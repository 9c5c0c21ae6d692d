package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	env := NewEnv()
	if env.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", env.Now())
	}
	if got := env.Run(); got != 0 {
		t.Fatalf("Run() on empty env = %v, want 0", got)
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	env := NewEnv()
	var woke Time
	env.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Millisecond)
		woke = p.Now()
	})
	end := env.Run()
	if want := Time(5e-3); woke != want {
		t.Errorf("woke at %v, want %v", woke, want)
	}
	if end != woke {
		t.Errorf("Run() = %v, want %v", end, woke)
	}
}

func TestSleepNegativeTreatedAsZero(t *testing.T) {
	env := NewEnv()
	env.Spawn("p", func(p *Proc) {
		p.Sleep(-1)
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced clock to %v", p.Now())
		}
	})
	env.Run()
}

// TestNaNDurationsPanic: NaN compares false both ways, so a NaN event time
// would break the queue's time order. Every entry point that turns a
// caller's duration into an event rejects it, and the environment stays
// usable: a process due at t = 1 still runs at t = 1. The entry points
// that take a start delay also reject a negative one, and scheduling on a
// closed environment panics.
func TestNaNDurationsPanic(t *testing.T) {
	nan := Duration(math.NaN())
	cases := []struct {
		name   string
		inProc bool // the call needs a running process
		closed bool // the call runs on a closed environment
		call   func(env *Env, p *Proc)
	}{
		{"SpawnAt", false, false, func(env *Env, _ *Proc) { env.SpawnAt(nan, "late", func(*Proc) {}) }},
		{"Sleep", true, false, func(_ *Env, p *Proc) { p.Sleep(nan) }},
		{"WaitTimeout", true, false, func(env *Env, p *Proc) { _ = NewSignal(env).WaitTimeout(p, nan) }},
		{"After", false, false, func(env *Env, _ *Proc) { env.After(nan, func() {}) }},
		{"After negative", false, false, func(env *Env, _ *Proc) { env.After(-1, func() {}) }},
		{"After in process", true, false, func(env *Env, _ *Proc) { env.After(nan, func() {}) }},
		{"SpawnAt negative", false, false, func(env *Env, _ *Proc) { env.SpawnAt(-1, "early", func(*Proc) {}) }},
		{"After closed", false, true, func(env *Env, _ *Proc) { env.After(0, func() {}) }},
		{"SpawnAt closed", false, true, func(env *Env, _ *Proc) { env.SpawnAt(0, "late", func(*Proc) {}) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := NewEnv()
			defer env.Close()
			var got any
			catch := func() { got = recover() }
			if c.closed {
				env.Close()
			}
			if c.inProc {
				env.Spawn("p", func(p *Proc) {
					defer catch()
					c.call(env, p)
				})
			} else {
				func() {
					defer catch()
					c.call(env, nil)
				}()
			}
			if c.closed {
				if got == nil {
					t.Fatalf("%s did not panic", c.name)
				}
				return
			}
			at := Time(-1)
			env.SpawnAt(1, "due", func(p *Proc) { at = p.Now() })
			env.Run()
			if got == nil {
				t.Fatalf("%s did not panic", c.name)
			}
			if at != 1 || env.Now() != 1 || len(env.Blocked()) != 0 || env.queued() != 0 {
				t.Errorf("after the panic: due process ran at %v, clock %v, blocked %v, %d queued; want 1, 1, none, 0",
					at, env.Now(), env.Blocked(), env.queued())
			}
		})
	}
}

func TestEventOrderingFIFOAtSameInstant(t *testing.T) {
	env := NewEnv()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		env.Spawn(name, func(p *Proc) {
			p.Sleep(1 * Microsecond)
			order = append(order, name)
		})
	}
	env.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEventsDeliveredInTimeOrder(t *testing.T) {
	env := NewEnv()
	var order []int
	delays := []Duration{30 * Microsecond, 10 * Microsecond, 20 * Microsecond}
	for i, d := range delays {
		i, d := i, d
		env.Spawn("p", func(p *Proc) {
			p.Sleep(d)
			order = append(order, i)
		})
	}
	env.Run()
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSpawnAtDelaysStart(t *testing.T) {
	env := NewEnv()
	var started Time
	env.SpawnAt(7*Millisecond, "late", func(p *Proc) {
		started = p.Now()
	})
	env.Run()
	if want := Time(7e-3); started != want {
		t.Errorf("started at %v, want %v", started, want)
	}
}

func TestNestedSpawnFromProcess(t *testing.T) {
	env := NewEnv()
	var childTime Time
	env.Spawn("parent", func(p *Proc) {
		p.Sleep(1 * Millisecond)
		p.Env().Spawn("child", func(c *Proc) {
			c.Sleep(2 * Millisecond)
			childTime = c.Now()
		})
	})
	env.Run()
	if want := Time(3e-3); childTime != want {
		t.Errorf("child finished at %v, want %v", childTime, want)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	env := NewEnv()
	var reached []Duration
	env.Spawn("p", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(1 * Second)
			reached = append(reached, Duration(p.Now()))
		}
	})
	got := env.RunUntil(Time(3.5))
	if got != Time(3.5) {
		t.Fatalf("RunUntil = %v, want 3.5", got)
	}
	if len(reached) != 3 {
		t.Fatalf("process ran %d steps before horizon, want 3", len(reached))
	}
	// Resume to completion.
	end := env.Run()
	if end != Time(10) || len(reached) != 10 {
		t.Fatalf("after resume: end=%v steps=%d, want 10s and 10", end, len(reached))
	}
}

func TestStepSingleEvent(t *testing.T) {
	env := NewEnv()
	n := 0
	env.Spawn("p", func(p *Proc) {
		p.Sleep(1 * Microsecond)
		n++
		p.Sleep(1 * Microsecond)
		n++
	})
	if !env.Step() { // start event
		t.Fatal("Step() = false on non-empty queue")
	}
	if n != 0 {
		t.Fatalf("n = %d after start, want 0", n)
	}
	env.Step()
	if n != 1 {
		t.Fatalf("n = %d after one sleep, want 1", n)
	}
	env.Run()
	if n != 2 {
		t.Fatalf("n = %d at end, want 2", n)
	}
	if env.Step() {
		t.Fatal("Step() = true on drained queue")
	}
}

func TestSignalFireReleasesAllWaitersInOrder(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		env.Spawn(name, func(p *Proc) {
			sig.Wait(p)
			order = append(order, name)
		})
	}
	env.Spawn("firer", func(p *Proc) {
		p.Sleep(1 * Millisecond)
		if sig.Waiters() != 3 {
			t.Errorf("Waiters() = %d, want 3", sig.Waiters())
		}
		sig.Fire()
	})
	env.Run()
	if len(order) != 3 || order[0] != "w1" || order[1] != "w2" || order[2] != "w3" {
		t.Fatalf("wake order = %v", order)
	}
	if sig.Waiters() != 0 {
		t.Errorf("Waiters() = %d after Fire, want 0", sig.Waiters())
	}
}

func TestSignalFireOne(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	released := 0
	for i := 0; i < 2; i++ {
		env.Spawn("w", func(p *Proc) {
			sig.Wait(p)
			released++
		})
	}
	env.Spawn("firer", func(p *Proc) {
		p.Sleep(1 * Microsecond)
		if !sig.FireOne() {
			t.Error("FireOne() = false with waiters present")
		}
	})
	env.Run()
	if released != 1 {
		t.Fatalf("released = %d, want 1", released)
	}
	if got := env.Blocked(); len(got) != 1 {
		t.Fatalf("Blocked() = %v, want one blocked process", got)
	}
	env.Close()
}

func TestSignalFireOneEmpty(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	if sig.FireOne() {
		t.Fatal("FireOne() = true with no waiters")
	}
}

func TestWaitTimeoutExpires(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	var err error
	var at Time
	env.Spawn("p", func(p *Proc) {
		err = sig.WaitTimeout(p, 2*Millisecond)
		at = p.Now()
	})
	env.Run()
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if at != Time(2e-3) {
		t.Fatalf("woke at %v, want 2ms", at)
	}
	if sig.Waiters() != 0 {
		t.Fatalf("stale waiter left on signal after timeout")
	}
}

func TestWaitTimeoutSignalWins(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	var err error
	var at Time
	env.Spawn("p", func(p *Proc) {
		err = sig.WaitTimeout(p, 10*Millisecond)
		at = p.Now()
	})
	env.Spawn("firer", func(p *Proc) {
		p.Sleep(1 * Millisecond)
		sig.Fire()
	})
	env.Run()
	if err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	if at != Time(1e-3) {
		t.Fatalf("woke at %v, want 1ms", at)
	}
}

// A timer and a Fire landing at the same instant must wake the process
// exactly once and leave no stale wake-up that could corrupt a later park.
func TestWaitTimeoutSimultaneousFireAndTimer(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	wakes := 0
	var second Time
	env.Spawn("p", func(p *Proc) {
		_ = sig.WaitTimeout(p, 1*Millisecond)
		wakes++
		p.Sleep(5 * Millisecond) // a stale wake-up would cut this short
		second = p.Now()
	})
	env.Spawn("firer", func(p *Proc) {
		p.Sleep(1 * Millisecond) // same instant as the timeout
		sig.Fire()
	})
	env.Run()
	if wakes != 1 {
		t.Fatalf("process woke %d times, want 1", wakes)
	}
	if second != Time(6e-3) {
		t.Fatalf("second sleep ended at %v, want 6ms (stale wake-up leaked)", second)
	}
}

func TestWaitGroup(t *testing.T) {
	env := NewEnv()
	wg := NewWaitGroup(env)
	var doneAt Time
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		d := Duration(i) * Millisecond
		env.Spawn("worker", func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	env.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	env.Run()
	if doneAt != Time(3e-3) {
		t.Fatalf("waiter released at %v, want 3ms", doneAt)
	}
	if wg.count != 0 {
		t.Fatalf("Count = %d, want 0", wg.count)
	}
}

func TestWaitGroupWaitOnZeroReturnsImmediately(t *testing.T) {
	env := NewEnv()
	wg := NewWaitGroup(env)
	ran := false
	env.Spawn("p", func(p *Proc) {
		wg.Wait(p)
		ran = true
	})
	env.Run()
	if !ran {
		t.Fatal("Wait on zero WaitGroup blocked")
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	env := NewEnv()
	wg := NewWaitGroup(env)
	defer func() {
		if recover() == nil {
			t.Fatal("negative WaitGroup did not panic")
		}
	}()
	wg.Add(-1)
}

func TestBlockedReportsDeadlockedProcesses(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	env.Spawn("stuck-b", func(p *Proc) { sig.Wait(p) })
	env.Spawn("stuck-a", func(p *Proc) { sig.Wait(p) })
	env.Run()
	got := env.Blocked()
	if len(got) != 2 || got[0] != "stuck-a" || got[1] != "stuck-b" {
		t.Fatalf("Blocked() = %v", got)
	}
	env.Close()
	if env.nprocs != 0 {
		t.Fatalf("Live() after Close = %d, want 0", env.nprocs)
	}
}

func TestCloseUnwindsTimerParkedProcesses(t *testing.T) {
	env := NewEnv()
	env.Spawn("long", func(p *Proc) {
		p.Sleep(1 * Minute)
		t.Error("process body continued after Close")
	})
	env.RunUntil(Time(0)) // deliver the start event only
	env.Close()
	if env.nprocs != 0 {
		t.Fatalf("Live() = %d after Close, want 0", env.nprocs)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed int64) []Time {
		env := NewEnv()
		defer env.Close()
		rng := rand.New(rand.NewSource(seed))
		// Two slots handed out through a Signal: contention makes the
		// finish order depend on the wake order.
		free := NewSignal(env)
		inUse := 0
		var finishes []Time
		for i := 0; i < 50; i++ {
			d := Duration(rng.Intn(1000)+1) * Microsecond
			start := Duration(rng.Intn(1000)) * Microsecond
			env.SpawnAt(start, "w", func(p *Proc) {
				for inUse >= 2 {
					free.Wait(p)
				}
				inUse++
				p.Sleep(d)
				inUse--
				free.FireOne()
				finishes = append(finishes, p.Now())
			})
		}
		env.Run()
		return finishes
	}
	a, b := run(42), run(42)
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("runs finished %d/%d processes, want 50", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0s"},
		{5 * Nanosecond, "5ns"},
		{12 * Microsecond, "12µs"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%g).String() = %q, want %q", float64(c.d), got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(1.5)
	if got := a.Add(500 * Millisecond); got != Time(2.0) {
		t.Errorf("Add = %v", got)
	}
	if got := Time(2.0).Sub(a); got != 500*Millisecond {
		t.Errorf("Sub = %v", got)
	}
}

// Property: for any set of sleep durations, Run ends at the maximum, and
// every process observes exactly its own duration.
func TestPropertySleepDurationsIndependent(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		env := NewEnv()
		defer env.Close()
		var maxD Duration
		ok := true
		for _, r := range raw {
			d := Duration(r) * Microsecond
			if d > maxD {
				maxD = d
			}
			env.Spawn("p", func(p *Proc) {
				p.Sleep(d)
				if p.Now() != Time(0).Add(d) {
					ok = false
				}
			})
		}
		end := env.Run()
		return ok && end == Time(0).Add(maxD)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEventFreelistRecycles: after warm-up, the schedule→Pop→deliver cycle
// of a steadily ticking process reuses recycled events instead of
// allocating — the hot-path property BenchmarkSimEngineEvents tracks.
func TestEventFreelistRecycles(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	env.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(1 * Microsecond)
		}
	})
	for i := 0; i < 100; i++ { // warm-up: start event, freelist priming
		env.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		env.Step()
	})
	if allocs > 0 {
		t.Fatalf("steady-state Step allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFreelistPreservesRacingWakeups: recycled events must not leak state
// into the timer-vs-signal race that cancelled events resolve.
func TestFreelistPreservesRacingWakeups(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	sig := NewSignal(env)
	var timedOut, fired int
	for i := 0; i < 50; i++ {
		env.Spawn("waiter", func(p *Proc) {
			for j := 0; j < 20; j++ {
				if err := sig.WaitTimeout(p, 2*Microsecond); err != nil {
					timedOut++
				} else {
					fired++
				}
			}
		})
	}
	env.Spawn("firer", func(p *Proc) {
		for j := 0; j < 10; j++ {
			p.Sleep(5 * Microsecond)
			sig.Fire()
		}
	})
	env.Run()
	if timedOut == 0 || fired == 0 {
		t.Fatalf("race did not exercise both outcomes: timeouts=%d fires=%d", timedOut, fired)
	}
	if got := timedOut + fired; got != 50*20 {
		t.Fatalf("waits completed = %d, want %d", got, 1000)
	}
}

// Delivery order at a shared instant follows the global schedule sequence:
// twelve procs, enough to fill two levels of the 4-ary heap, wake in exact
// spawn order.
func TestSameInstantOrdering(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	var order []int
	for i := 0; i < 12; i++ {
		i := i
		env.Spawn("p", func(p *Proc) {
			p.Sleep(5 * Microsecond)
			order = append(order, i)
		})
	}
	env.Run()
	if len(order) != 12 {
		t.Fatalf("%d procs woke, want 12", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v, want ascending spawn order", order)
		}
	}
}

// Close must unwind processes whose wake-ups are still queued — near-term
// sleeps, long sleeps and an undelivered delayed start — without running
// any more model code.
func TestCloseWithPendingTimers(t *testing.T) {
	env := NewEnv()
	finished := 0
	env.Spawn("near", func(p *Proc) {
		p.Sleep(50 * Microsecond) // near-term wake-up
		finished++
	})
	env.Spawn("far", func(p *Proc) {
		p.Sleep(5 * Millisecond) // long sleep, far behind the queue head
		finished++
	})
	// A delayed start, never delivered.
	env.SpawnAt(10*Millisecond, "unstarted", func(p *Proc) { finished++ })
	env.RunUntil(Time(0).Add(10 * Microsecond))
	if got := env.nprocs; got != 3 {
		t.Fatalf("Live() = %d before Close, want 3 (two sleepers, one undelivered start)", got)
	}
	env.Close()
	if got := env.nprocs; got != 0 {
		t.Errorf("Live() = %d after Close, want 0", got)
	}
	if finished != 0 {
		t.Errorf("%d aborted process bodies ran past their sleep", finished)
	}
}

// A horizon falling between two events less than a microsecond apart must
// deliver the earlier one, clamp the clock exactly to the horizon, and
// leave the later one for the next run.
func TestRunUntilHorizonBetweenCloseEvents(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	var wokeEarly, wokeLate Time
	env.Spawn("early", func(p *Proc) {
		p.Sleep(200 * Nanosecond)
		wokeEarly = p.Now()
	})
	env.Spawn("late", func(p *Proc) {
		p.Sleep(800 * Nanosecond)
		wokeLate = p.Now()
	})
	h := Time(0).Add(500 * Nanosecond) // between the two wake-ups
	if got := env.RunUntil(h); got != h {
		t.Fatalf("RunUntil = %v, want clock clamped to %v", got, h)
	}
	if want := Time(0).Add(200 * Nanosecond); wokeEarly != want {
		t.Errorf("early woke at %v, want %v", wokeEarly, want)
	}
	if wokeLate != 0 {
		t.Errorf("late woke at %v, before the horizon", wokeLate)
	}
	env.Run()
	if want := Time(0).Add(800 * Nanosecond); wokeLate != want {
		t.Errorf("late woke at %v, want %v", wokeLate, want)
	}
}

// Blocked must report exactly the signal-parked processes, sorted, while
// sleepers, short or long, have pending wake-ups and so never count as
// blocked.
func TestBlocked(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	sig := NewSignal(env)
	env.Spawn("wait-default", func(p *Proc) { sig.Wait(p) })
	env.Spawn("wait-a", func(p *Proc) { sig.Wait(p) })
	env.Spawn("wait-b", func(p *Proc) { sig.Wait(p) })
	// One short sleeper, one whose wake-up lies far past the horizon.
	env.Spawn("sleep-near", func(p *Proc) { p.Sleep(50 * Microsecond) })
	env.Spawn("sleep-far", func(p *Proc) { p.Sleep(5 * Millisecond) })

	env.RunUntil(Time(0).Add(10 * Microsecond))
	got := env.Blocked()
	want := []string{"wait-a", "wait-b", "wait-default"}
	if len(got) != len(want) {
		t.Fatalf("Blocked() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Blocked() = %v, want %v (sorted)", got, want)
		}
	}

	// Once the signal fires the waiters drain and nothing is blocked.
	env.Spawn("firer", func(p *Proc) { sig.Fire() })
	env.Run()
	if got := env.Blocked(); len(got) != 0 {
		t.Fatalf("Blocked() after drain = %v, want empty", got)
	}
	if env.nprocs != 0 {
		t.Fatalf("Live() after drain = %d, want 0", env.nprocs)
	}
}
