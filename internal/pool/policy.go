package pool

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/fabric"
)

// Policy selects the placement discipline.
type Policy int

const (
	// FirstFit scans servers in fixed global order and takes free GPUs
	// greedily — fast, oblivious to boundaries, and happy to scatter a
	// gang across rows (paying whatever slack that spread costs).
	FirstFit Policy = iota
	// BestFit prefers the tightest fit at the narrowest boundary: the
	// single server with the least leftover, then the tightest rack, the
	// tightest row, and only then a cluster-wide scatter.
	BestFit
	// TierAware is BestFit gated by the slack penalty model: a spread is
	// only acceptable if the job's efficiency at that scale stays above
	// its shape's floor; otherwise the job queues and waits for capacity
	// (or the defragmenter) instead of running badly.
	TierAware
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case FirstFit:
		return "firstfit"
	case BestFit:
		return "bestfit"
	case TierAware:
		return "tieraware"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// placeJob computes a placement for j under the configured policy without
// mutating pool state. It returns the slices, the spread scale actually
// crossed, and whether placement succeeded; a false return means the job
// queues. The slices are the scheduler's scratch buffer, valid until the
// next placement query; doPlace copies them into the job's slot.
func (s *Scheduler) placeJob(j Job) ([]slice, fabric.Scale, bool) {
	var sl []slice
	switch s.cfg.Policy {
	case FirstFit:
		sl = s.firstFit(j.Gang)
	case BestFit:
		sl = s.tieredFit(j, false)
	case TierAware:
		sl = s.tieredFit(j, true)
	}
	if sl == nil {
		return nil, fabric.NodeLocal, false
	}
	return sl, s.topo.spreadScale(sl), true
}

// firstFit takes free GPUs in global server order until the gang is
// covered, visiting only the servers in the avail set.
func (s *Scheduler) firstFit(gang int) []slice {
	if s.totalFree < gang {
		return nil
	}
	s.scratchSl = s.scratchSl[:0]
	need := gang
	for w, word := range s.avail {
		for ; word != 0; word &= word - 1 {
			sv := w<<6 | bits.TrailingZeros64(word)
			take := min(s.free[sv], need)
			s.scratchSl = append(s.scratchSl, slice{sv, take})
			if need -= take; need == 0 {
				return s.scratchSl
			}
		}
	}
	return nil
}

// tieredFit walks the boundary ladder tightest-first. With gate set
// (TierAware), a rung is skipped when the shape's efficiency at that
// scale falls below its floor; BestFit walks the same ladder ungated.
func (s *Scheduler) tieredFit(j Job, gate bool) []slice {
	if sv := s.bestServer(j.Gang); sv >= 0 {
		s.scratchSl = append(s.scratchSl[:0], slice{sv, j.Gang})
		return s.scratchSl
	}
	if s.allowScale(j.Shape, fabric.RackScale, gate) {
		if r := s.bestGroup(s.freeRack, j.Gang); r >= 0 {
			if sl := s.fillGroup(r*s.topo.ServersPerRack, s.topo.ServersPerRack, j.Gang); sl != nil {
				return sl
			}
		}
	}
	if s.allowScale(j.Shape, fabric.RowScale, gate) {
		if w := s.bestGroup(s.freeRow, j.Gang); w >= 0 {
			rowServers := s.topo.ServersPerRack * s.topo.RacksPerRow
			if sl := s.fillGroup(w*rowServers, rowServers, j.Gang); sl != nil {
				return sl
			}
		}
	}
	if s.allowScale(j.Shape, fabric.ClusterScale, gate) && s.totalFree >= j.Gang {
		if sl := s.fillGroup(0, len(s.free), j.Gang); sl != nil {
			return sl
		}
	}
	return nil
}

// allowScale reports whether a spread at the given scale is admissible.
func (s *Scheduler) allowScale(sh Shape, sc fabric.Scale, gate bool) bool {
	if !gate {
		return true
	}
	return s.eff[sh][sc] >= sh.MinEfficiency()
}

// bestServer returns the live server with the smallest free block that
// still fits the gang, lowest index on ties, or -1: the lowest member of
// the first nonempty free-count bucket at or above the gang.
func (s *Scheduler) bestServer(gang int) int {
	for f := gang; f < len(s.freeHist); f++ {
		if s.freeHist[f] > 0 {
			return s.byFree[f].first()
		}
	}
	return -1
}

// bestGroup returns the index of the tightest group (rack or row, by its
// aggregate free array) that fits the gang, lowest index on ties, or -1.
func (s *Scheduler) bestGroup(groupFree []int, gang int) int {
	best, bestFree := -1, 0
	for g, f := range groupFree {
		if f < gang {
			continue
		}
		if best < 0 || f < bestFree {
			best, bestFree = g, f
		}
	}
	return best
}

// fillGroup covers the gang inside servers [base, base+n), visiting the
// fullest free blocks first (fewest crossings), ascending index on ties.
// The key encoding keeps the sort allocation-free and closure-free:
// ascending order of (GPUsPerServer−free)·servers+index is descending
// free, ascending index.
func (s *Scheduler) fillGroup(base, n, gang int) []slice {
	total := len(s.free)
	s.scratchKeys = s.scratchKeys[:0]
	for sv := base; sv < base+n && sv < total; sv++ {
		if !s.live[sv] || s.free[sv] == 0 {
			continue
		}
		s.scratchKeys = append(s.scratchKeys, (s.topo.GPUsPerServer-s.free[sv])*total+sv)
	}
	sort.Ints(s.scratchKeys)
	s.scratchSl = s.scratchSl[:0]
	need := gang
	for _, key := range s.scratchKeys {
		sv := key % total
		take := s.free[sv]
		if take > need {
			take = need
		}
		s.scratchSl = append(s.scratchSl, slice{sv, take})
		if need -= take; need == 0 {
			return s.scratchSl
		}
	}
	return nil
}
