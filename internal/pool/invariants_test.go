package pool

import (
	"fmt"
	"math/bits"
	"testing"
)

// checkInvariants recomputes the scheduler's incrementally maintained
// state from the per-server ground truth (free, live, pinned, jobsOn and
// the slot table) and reports the first disagreement.
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

	// The slot table: the free list names each free slot exactly once, a
	// free slot holds no slices, and the live slots are the running,
	// queued and tombstoned jobs.
	if want := (s.nslots + slotChunk - 1) / slotChunk; len(s.slots) != want {
		return fmt.Errorf("%d slots in %d chunks, want %d", s.nslots, len(s.slots), want)
	}
	onFree := make([]bool, s.nslots)
	nfree := 0
	for n := s.freeHead; n >= 0; n = int(s.slot(n).nextFree) {
		if n >= s.nslots || onFree[n] {
			return fmt.Errorf("free list names slot %d twice or out of [0, %d)", n, s.nslots)
		}
		onFree[n] = true
		nfree++
	}
	var perState [allocKilled + 1]int
	for n := 0; n < s.nslots; n++ {
		a := s.slot(n)
		if onFree[n] != (a.state == allocFree) {
			return fmt.Errorf("slot %d in state %d, on the free list %v", n, a.state, onFree[n])
		}
		perState[a.state]++
	}
	if perState[allocPlaced] != s.runningJobs {
		return fmt.Errorf("%d placed slots, %d running jobs", perState[allocPlaced], s.runningJobs)
	}
	if perState[allocQueued] != len(s.queue) {
		return fmt.Errorf("%d queued slots, %d queue entries", perState[allocQueued], len(s.queue))
	}
	if live := s.nslots - nfree; live != s.runningJobs+len(s.queue)+perState[allocKilled] {
		return fmt.Errorf("%d live slots, want %d running + %d queued + %d tombstones",
			live, s.runningJobs, len(s.queue), perState[allocKilled])
	}
	for _, n := range s.queue {
		if st := s.slot(n).state; st != allocQueued {
			return fmt.Errorf("queue names slot %d in state %d", n, st)
		}
	}

	// jobsOn against the placed slots' slices, entry for entry, and the
	// per-server GPU balance.
	used := make([]int, servers)
	entries := 0
	for n := 0; n < s.nslots; n++ {
		a := s.slot(n)
		if a.state != allocPlaced {
			if len(a.slices) != 0 {
				return fmt.Errorf("slot %d in state %d still holds %d slices", n, a.state, len(a.slices))
			}
			continue
		}
		for _, x := range a.slices {
			if x.gpus <= 0 || !s.live[x.server] {
				return fmt.Errorf("slot %d holds %d GPUs on server %d (live %v)", n, x.gpus, x.server, s.live[x.server])
			}
			used[x.server] += x.gpus
			entries++
		}
	}
	for sv, ns := range s.jobsOn {
		if cap(ns) != g {
			return fmt.Errorf("server %d job list has capacity %d, carved %d", sv, cap(ns), g)
		}
		entries -= len(ns)
		for _, n := range ns {
			if st := s.slot(n).state; st != allocPlaced {
				return fmt.Errorf("server %d lists slot %d in state %d", sv, n, st)
			}
			listed, held := 0, 0
			for _, x := range ns {
				if x == n {
					listed++
				}
			}
			for _, x := range s.slot(n).slices {
				if x.server == sv {
					held++
				}
			}
			if listed != held {
				return fmt.Errorf("server %d lists slot %d %d times, the job holds %d slices there", sv, n, listed, held)
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
