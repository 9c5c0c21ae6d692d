package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// A callback takes its (time, seq) slot when After is called, exactly as a
// SpawnAt start event does, so the two interleave at a shared instant in
// schedule order.
func TestAfterAndSpawnAtRunInScheduleOrder(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	var order []string
	d := 3 * Microsecond
	log := func(name string) func() {
		return func() { order = append(order, fmt.Sprintf("%s@%v", name, env.Now().Sub(0))) }
	}
	env.After(d, log("a1"))
	env.SpawnAt(d, "s1", func(*Proc) { log("s1")() })
	env.After(d, log("a2"))
	env.SpawnAt(d, "s2", func(*Proc) { log("s2")() })
	// From inside a process: a callback scheduled before a sleep to the
	// same instant runs first.
	env.Spawn("p", func(p *Proc) {
		p.Env().After(2*d, log("a3"))
		p.Sleep(2 * d)
		log("p")()
	})
	env.Run()
	want := []string{"a1@3µs", "s1@3µs", "a2@3µs", "s2@3µs", "a3@6µs", "p@6µs"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// Close drops a pending callback without running it, as it aborts an
// unstarted process.
func TestCloseDropsPendingCallback(t *testing.T) {
	env := NewEnv()
	ran := 0
	env.After(1*Microsecond, func() { ran++ })
	env.After(5*Microsecond, func() { ran += 10 })
	env.RunUntil(Time(0).Add(2 * Microsecond))
	if ran != 1 {
		t.Fatalf("ran = %d before Close, want 1 (only the due callback)", ran)
	}
	env.Close()
	if ran != 1 {
		t.Fatalf("ran = %d after Close, want 1: Close ran a pending callback", ran)
	}
	st := env.Stats()
	if st.Callbacks != 1 || st.Cancelled != 1 || env.queued() != 0 {
		t.Fatalf("after Close: %d callbacks run, %d cancelled, %d queued; want 1, 1, 0", st.Callbacks, st.Cancelled, env.queued())
	}
}

// Step counts one callback as one event and runs it on the caller.
func TestStepDeliversOneCallback(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	var fired []Time
	tick := func() { fired = append(fired, env.Now()) }
	env.After(1*Microsecond, tick)
	env.After(1*Microsecond, tick)
	env.After(2*Microsecond, tick)
	for i, want := range []Time{Time(0).Add(1 * Microsecond), Time(0).Add(1 * Microsecond), Time(0).Add(2 * Microsecond)} {
		if !env.Step() {
			t.Fatalf("Step %d = false with callbacks pending", i)
		}
		if len(fired) != i+1 || fired[i] != want || env.Now() != want {
			t.Fatalf("after Step %d: fired %v, clock %v; want %d callbacks, the last at %v", i, fired, env.Now(), i+1, want)
		}
	}
	if env.Step() {
		t.Fatal("Step() = true on drained queue")
	}
}

// A callback may fire a signal, spawn a process and schedule another
// callback; each lands in the queue at the callback's instant.
func TestCallbackSchedulesFromInline(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	sig := NewSignal(env)
	var woke, child, chained Time
	env.Spawn("waiter", func(p *Proc) {
		sig.Wait(p)
		woke = p.Now()
	})
	env.After(4*Microsecond, func() {
		sig.Fire()
		env.Spawn("child", func(p *Proc) { child = p.Now() })
		env.After(1*Microsecond, func() { chained = env.Now() })
	})
	env.Run()
	at4, at5 := Time(0).Add(4*Microsecond), Time(0).Add(5*Microsecond)
	if woke != at4 || child != at4 || chained != at5 {
		t.Fatalf("woke %v, child %v, chained %v; want %v, %v, %v", woke, child, chained, at4, at4, at5)
	}
	if got := env.Blocked(); len(got) != 0 {
		t.Fatalf("Blocked() = %v after the callback fired the signal", got)
	}
}

// The counters match a hand count of a small program, so the derived
// ones (scheduled, delivered, self-wakes) agree with what ran.
func TestStatsAccounting(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	env.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(1 * Microsecond)
		}
	})
	if st := env.Stats(); st != (Stats{Scheduled: 1, Spawns: 1, Goroutines: 1, PeakPending: 1}) {
		t.Fatalf("after one Spawn: %+v", st)
	}
	env.Run()
	// The start event is the loop's one switch; every sleep after it is
	// the sleeper's own next event.
	want := Stats{Scheduled: 11, Delivered: 11, Spawns: 1, Goroutines: 1, SelfWakes: 10, Switches: 1, PeakPending: 1}
	if st := env.Stats(); st != want {
		t.Fatalf("lone sleeper: %+v, want %+v", st, want)
	}

	// Four starts and two callbacks are queued (6 pending); each waiter's
	// start is a switch and schedules its timer. The first callback fires
	// the signal, scheduling four wake-ups that are four more switches
	// (the queue peaks at 8: three timers, the far callback and the four
	// wake-ups); the three timers then surface cancelled, and the far
	// callback is still queued when the run stops.
	for i := 0; i < 3; i++ {
		env.Spawn("waiter", func(p *Proc) { _ = sig.WaitTimeout(p, 10*Microsecond) })
	}
	env.Spawn("blocked", func(p *Proc) { sig.Wait(p) })
	env.After(2*Microsecond, sig.Fire)
	env.After(1*Second, func() {})
	env.RunUntil(env.Now().Add(5 * Microsecond))
	want = Stats{Scheduled: 24, Delivered: 20, Cancelled: 3, Callbacks: 1, Spawns: 5, Goroutines: 5, SelfWakes: 10, Switches: 9, PeakPending: 8}
	if st := env.Stats(); st != want {
		t.Fatalf("mixed program: %+v, want %+v", st, want)
	}
	env.Close()
	want.Cancelled++ // Close drops the far callback
	if st := env.Stats(); st != want {
		t.Fatalf("after Close: %+v, want %+v", st, want)
	}

	// Close delivers the sleeper's timer and the unstarted start as two
	// more switches, but unwinding the signal-parked process delivers no
	// event, so it is not a switch: counting it would push Switches past
	// Delivered and wrap the derived SelfWakes.
	env = NewEnv()
	env.Spawn("blocked", func(p *Proc) { NewSignal(p.Env()).Wait(p) })
	env.Spawn("sleeper", func(p *Proc) { p.Sleep(10 * Microsecond) })
	env.SpawnAt(10*Microsecond, "unstarted", func(*Proc) {})
	env.RunUntil(Time(0).Add(5 * Microsecond))
	env.Close()
	want = Stats{Scheduled: 4, Delivered: 4, Spawns: 3, Goroutines: 3, Switches: 4, PeakPending: 3}
	if st := env.Stats(); st != want {
		t.Fatalf("Close unwinding parked, sleeping and unstarted processes: %+v, want %+v", st, want)
	}
}

// Sleep and After with a prebuilt func run allocation-free once the
// freelist is warm, on the RunUntil path every experiment runs.
func TestSleepAndAfterDoNotAllocate(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	n := 0
	tick := func() { n++ }
	env.Spawn("ticker", func(p *Proc) {
		for {
			p.Env().After(1*Microsecond, tick)
			p.Sleep(2 * Microsecond)
		}
	})
	env.RunUntil(Time(0).Add(200 * Microsecond)) // warm-up: start event, freelist priming
	allocs := testing.AllocsPerRun(100, func() {
		env.RunUntil(env.Now().Add(100 * Microsecond))
	})
	if allocs > 0 {
		t.Fatalf("Sleep+After allocates %.1f objects per 100 µs segment, want 0", allocs)
	}
	if n < 100*50 {
		t.Fatalf("only %d callbacks ran", n)
	}
}

// checkParked recounts the blocked processes from scratch — the union of
// every signal's waiter list — and compares it with Blocked and with the
// parked list's own index bookkeeping.
func checkParked(t *testing.T, env *Env, sigs []*Signal) int {
	t.Helper()
	var want []string
	for _, s := range sigs {
		for _, p := range s.waiters {
			want = append(want, p.name)
		}
	}
	sort.Strings(want)
	if got := env.Blocked(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("at %v: Blocked() = %v, recount from the waiter lists = %v", env.Now(), got, want)
	}
	for i, p := range env.parked {
		if int(p.parkIdx) != i {
			t.Fatalf("at %v: parked[%d] = %s holds parkIdx %d", env.Now(), i, p.name, p.parkIdx)
		}
	}
	return len(want)
}

// Interleaved Wait, WaitTimeout, Fire and FireOne over many processes keep
// the intrusive parked list equal to a from-scratch recount at every
// step.
func TestParkedMatchesRecount(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	sigs := make([]*Signal, 4)
	for i := range sigs {
		sigs[i] = NewSignal(env)
	}
	for i := 0; i < 64; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		env.Spawn(fmt.Sprintf("w%02d", i), func(p *Proc) {
			for j := 0; j < 40; j++ {
				s := sigs[rng.Intn(len(sigs))]
				if rng.Intn(3) == 0 {
					s.Wait(p)
				} else {
					_ = s.WaitTimeout(p, Duration(1+rng.Intn(12))*Microsecond)
				}
			}
		})
	}
	rng := rand.New(rand.NewSource(99))
	env.Spawn("firer", func(p *Proc) {
		for {
			p.Sleep(Duration(rng.Intn(3)) * Microsecond)
			s := sigs[rng.Intn(len(sigs))]
			if rng.Intn(2) == 0 {
				s.Fire()
			} else {
				s.FireOne()
			}
		}
	})
	peak := 0
	for step := 1; step <= 400; step++ {
		env.RunUntil(Time(0).Add(Duration(step) * Microsecond / 2))
		peak = max(peak, checkParked(t, env, sigs))
	}
	if peak < 8 {
		t.Fatalf("at most %d processes ever parked; the test did not exercise the list", peak)
	}
}
