package pool

import (
	"fmt"
	"math/bits"
	"testing"
)

// checkInvariants recomputes the scheduler's incrementally maintained
// state from the per-server ground truth (free, live, pinned, jobsOn and
// the allocation records) and reports the first disagreement.
func (s *Scheduler) checkInvariants() error {
	g := s.topo.GPUsPerServer
	servers := len(s.free)
	hist := make([]int, g+1)
	rack := make([]int, len(s.freeRack))
	row := make([]int, len(s.freeRow))
	total, stranded := 0, 0
	for sv, f := range s.free {
		if !s.live[sv] {
			if f != 0 {
				return fmt.Errorf("drained server %d has %d free GPUs", sv, f)
			}
			continue
		}
		if f < 0 || f > s.capEff(sv) {
			return fmt.Errorf("server %d: free %d outside [0, %d]", sv, f, s.capEff(sv))
		}
		hist[f]++
		rack[s.topo.RackOf(sv)] += f
		row[s.topo.RowOf(sv)] += f
		total += f
		stranded += strandedContrib(f, s.capEff(sv), s.refGang)
	}
	for f := range hist {
		if s.freeHist[f] != hist[f] {
			return fmt.Errorf("freeHist[%d] = %d, recomputed %d", f, s.freeHist[f], hist[f])
		}
	}
	if err := equalCounts("freeRack", s.freeRack, rack); err != nil {
		return err
	}
	if err := equalCounts("freeRow", s.freeRow, row); err != nil {
		return err
	}
	if s.totalFree != total {
		return fmt.Errorf("totalFree = %d, recomputed %d", s.totalFree, total)
	}
	if s.stranded != stranded {
		return fmt.Errorf("stranded = %d, recomputed %d", s.stranded, stranded)
	}

	// The index: byFree[f] holds exactly the live servers with f free,
	// avail exactly the live servers with any, and no bit past the last
	// server.
	if len(s.byFree) != g+1 {
		return fmt.Errorf("%d free-count buckets, want %d", len(s.byFree), g+1)
	}
	for f, set := range s.byFree {
		if n := onesCount(set); n != s.freeHist[f] {
			return fmt.Errorf("byFree[%d] holds %d servers, freeHist says %d", f, n, s.freeHist[f])
		}
	}
	for sv := 0; sv < len(s.avail)*64; sv++ {
		live := sv < servers && s.live[sv]
		for f, set := range s.byFree {
			if want := live && s.free[sv] == f; has(set, sv) != want {
				return fmt.Errorf("byFree[%d] bit %d = %v, want %v", f, sv, has(set, sv), want)
			}
		}
		if want := live && s.free[sv] > 0; has(s.avail, sv) != want {
			return fmt.Errorf("avail bit %d = %v, want %v", sv, has(s.avail, sv), want)
		}
	}

	// jobsOn against the placed allocations' slices, entry for entry, and
	// the per-server GPU balance.
	used := make([]int, servers)
	entries := 0
	for id := range s.allocs {
		a := &s.allocs[id]
		if a.state != allocPlaced {
			if len(a.slices) != 0 {
				return fmt.Errorf("job %d in state %d still holds %d slices", id, a.state, len(a.slices))
			}
			continue
		}
		for _, x := range a.slices {
			if x.gpus <= 0 || !s.live[x.server] {
				return fmt.Errorf("job %d holds %d GPUs on server %d (live %v)", id, x.gpus, x.server, s.live[x.server])
			}
			used[x.server] += x.gpus
			entries++
		}
	}
	for sv, ids := range s.jobsOn {
		entries -= len(ids)
		for _, id := range ids {
			if st := s.allocs[id].state; st != allocPlaced {
				return fmt.Errorf("server %d lists job %d in state %d", sv, id, st)
			}
			listed, held := 0, 0
			for _, x := range ids {
				if x == id {
					listed++
				}
			}
			for _, x := range s.allocs[id].slices {
				if x.server == sv {
					held++
				}
			}
			if listed != held {
				return fmt.Errorf("server %d lists job %d %d times, the job holds %d slices there", sv, id, listed, held)
			}
		}
		if s.live[sv] && s.free[sv]+used[sv]+s.pinned[sv] != g {
			return fmt.Errorf("server %d: %d free + %d placed + %d pinned != %d", sv, s.free[sv], used[sv], s.pinned[sv], g)
		}
	}
	if entries != 0 {
		return fmt.Errorf("jobsOn and the placed slices differ by %d entries", entries)
	}
	return nil
}

func equalCounts(name string, got, want []int) error {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d] = %d, recomputed %d", name, i, got[i], want[i])
		}
	}
	return nil
}

func onesCount(b bitset) int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

func has(b bitset, i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// checkEveryWake runs checkInvariants at the end of every scheduler
// wake-up for the rest of the test, failing it on the first violation.
func checkEveryWake(t *testing.T) {
	t.Helper()
	failed := false
	afterWake = func(s *Scheduler) {
		if failed {
			return
		}
		if err := s.checkInvariants(); err != nil {
			failed = true
			t.Errorf("at %v: %v", s.env.Now(), err)
		}
	}
	t.Cleanup(func() { afterWake = nil })
}
