package remoting

import (
	"strconv"
	"testing"

	"repro/internal/cuda"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/sim"
)

// kernelEnds is an interposer that records, by call name, when each
// synchronous launch on a server returns.
type kernelEnds map[string][]sim.Time

func (kernelEnds) Before(*sim.Proc, cuda.CallInfo) {}
func (k kernelEnds) After(p *sim.Proc, c cuda.CallInfo) {
	k[c.Name] = append(k[c.Name], p.Now())
}

// Stalls make attempts time out while their server processes still run:
// each such orphan runs its kernel after the stall and fires its response
// while the host waits on the retry. Every call launches a kernel of its
// own name, so a call that returned before one of its kernel's runs ended
// was woken by an orphan's Fire, not its own attempt's. The counters pin
// that recycling attempt states moves no retry and no event.
func TestOrphanedServerFiresIntoItsOwnAttempt(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	r, err := NewResilient(env, testSpec(), ResilientConfig{
		Config: Config{Path: mustPathForSlack(t, 10*sim.Microsecond), Seed: 5},
		Faults: faults.Config{Seed: 5, StallEvery: sim.Millisecond, StallFor: 150 * sim.Microsecond},
		Policy: faults.Policy{CallTimeout: 50 * sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ends := kernelEnds{}
	r.eps[0].ctx.Interpose(ends)
	returned := make([]sim.Time, 200)
	env.Spawn("host", func(p *sim.Proc) {
		for i := range returned {
			if err := r.LaunchSync(p, gpu.Kernel{Name: "k" + strconv.Itoa(i), FixedTime: 20 * sim.Microsecond}); err != nil {
				t.Error(err)
				return
			}
			returned[i] = p.Now()
		}
	})
	env.Run()
	orphans := 0
	for i, at := range returned {
		runs := ends["cudaLaunchKernelSync:k"+strconv.Itoa(i)]
		if len(runs) == 0 {
			t.Fatalf("call %d ran no kernel", i)
		}
		orphans += len(runs) - 1
		for _, end := range runs {
			if end > at {
				t.Fatalf("call %d returned at %v, before its kernel's run ending at %v", i, at, end)
			}
		}
	}
	if orphans != 16 {
		t.Errorf("%d orphaned server processes ran their kernel, want 16", orphans)
	}
	if got, want := r.Stats(), (Stats{Calls: 200, Retries: 16, Timeouts: 16}); got != want {
		t.Errorf("transport stats %+v, want %+v", got, want)
	}
	want := sim.Stats{Scheduled: 2169, Delivered: 1969, Cancelled: 200, Callbacks: 424,
		Spawns: 217, Goroutines: 3, SelfWakes: 1031, Switches: 514, PeakPending: 3}
	if got := env.Stats(); got != want {
		t.Errorf("engine stats %+v, want %+v", got, want)
	}
}

// A fault-free LaunchSync round trip allocates nothing once warm: the
// attempt state, the server process's Proc and coroutine, the device op
// and every event are reused.
func TestWarmLaunchSyncAllocatesNothing(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	r, err := NewResilient(env, testSpec(), ResilientConfig{
		Config: Config{Path: mustPathForSlack(t, 10*sim.Microsecond), Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	k := gpu.Kernel{Name: "k", FixedTime: 20 * sim.Microsecond}
	var allocs float64
	var failed error
	env.Spawn("host", func(p *sim.Proc) {
		launch := func() {
			if err := r.LaunchSync(p, k); err != nil {
				failed = err
			}
		}
		for i := 0; i < 10; i++ { // warm-up: states, Procs, coroutine, events
			launch()
		}
		allocs = testing.AllocsPerRun(100, launch)
	})
	env.Run()
	if failed != nil {
		t.Fatal(failed)
	}
	if allocs != 0 {
		t.Fatalf("LaunchSync round trip allocates %.1f objects, want 0", allocs)
	}
	if st := r.Stats(); st.Calls != 111 || st.Timeouts != 0 {
		t.Fatalf("stats %+v, want 111 calls and no timeouts", st)
	}
}
