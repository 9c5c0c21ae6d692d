package experiments

import (
	"testing"

	"repro/internal/remoting"
	"repro/internal/sim"
)

// TestFaultFreeTimeoutsPinned counts the timeouts and retries that the
// resilient transport's 100 ms per-attempt deadline records when no fault
// is injected: in every zero-intensity proxy cell of the resilience sweep
// (quick and paper iteration counts) and in both arms of a zero-churn
// churn cell at every slack and load (quick and paper windows). The
// deadline covers wire time and server overhead but not execution, so a
// count here would be a spurious timeout, not a fault.
func TestFaultFreeTimeoutsPinned(t *testing.T) {
	type count struct{ timeouts, retries int64 }
	for _, iters := range []int{Quick().ProxyIters, 30} {
		for si, sl := range resilienceSlacks {
			seed := int64(31 + si*len(resilienceIntensities))
			row, err := resilientProxyCell(iters, sl, 0, seed, sim.Second)
			if err != nil {
				t.Fatal(err)
			}
			if got := (count{row.Timeouts, row.Retries}); got != (count{}) {
				t.Errorf("resilience proxy cell, %d iterations, slack %v: %+v, want none", iters, sl, got)
			}
		}
	}

	var st remoting.Stats
	afterChurnCell = func(s remoting.Stats) { st = s }
	defer func() { afterChurnCell = nil }()
	for _, window := range []sim.Duration{Quick().ServeWindow, Paper().ServeWindow} {
		for _, sl := range churnSlacks {
			for li, load := range servingLoads {
				for _, managed := range []bool{false, true} {
					st = remoting.Stats{}
					if _, _, err := churnCell(sl, load, 0, window, li, 0, managed, nil); err != nil {
						t.Fatal(err)
					}
					if st.Calls == 0 {
						t.Fatalf("zero-churn churn cell, window %v, slack %v, load %v: no transport call counted", window, sl, load)
					}
					if got := (count{st.Timeouts, st.Retries}); got != (count{}) {
						t.Errorf("zero-churn churn cell, window %v, slack %v, load %v, managed %v: %+v, want none",
							window, sl, load, managed, got)
					}
				}
			}
		}
	}
}
