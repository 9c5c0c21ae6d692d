package sim

import "testing"

// Delivery order at a shared instant must follow the global schedule
// sequence, not shard topology: procs spread round-robin over the default
// domain plus three explicit shards wake in exact spawn order.
func TestSameInstantOrderingAcrossShards(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	shards := []*Shard{env.NewShard(), env.NewShard(), env.NewShard()}
	var order []int
	for i := 0; i < 12; i++ {
		i := i
		body := func(p *Proc) {
			p.Sleep(5 * Microsecond)
			order = append(order, i)
		}
		if i%4 == 0 {
			env.Spawn("p", body) // default shard 0
		} else {
			shards[i%4-1].Spawn("p", body)
		}
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

// The WaitTimeout exact-instant tie must resolve identically when the
// waiter and the firer live on different shards: the deadline timer always
// carries the earlier sequence number, so the timeout wins in both spawn
// orders, exactly as it does single-shard (see waittimeout_test.go).
func TestWaitTimeoutTieBreakAcrossShards(t *testing.T) {
	for _, firerFirst := range []bool{true, false} {
		env := NewEnv()
		sa, sb := env.NewShard(), env.NewShard()
		sig := NewSignal(env)
		var err error
		var wokeAt Time
		waiter := func(p *Proc) {
			err = sig.WaitTimeout(p, 10*Microsecond)
			wokeAt = p.Now()
		}
		firer := func(p *Proc) {
			p.Sleep(10 * Microsecond)
			sig.Fire()
		}
		if firerFirst {
			sa.Spawn("firer", firer)
			sb.Spawn("waiter", waiter)
		} else {
			sa.Spawn("waiter", waiter)
			sb.Spawn("firer", firer)
		}
		env.Run()
		env.Close()
		if err != ErrTimeout {
			t.Errorf("firerFirst=%v: err = %v, want ErrTimeout", firerFirst, err)
		}
		if wokeAt != Time(0).Add(10*Microsecond) {
			t.Errorf("firerFirst=%v: woke at %v, want 10µs", firerFirst, wokeAt)
		}
		if n := sig.Waiters(); n != 0 {
			t.Errorf("firerFirst=%v: %d waiters left on the list", firerFirst, n)
		}
	}
}

// Close must unwind processes whose wake-ups are still queued — near-term
// sleeps, long sleeps and an undelivered delayed start — across shards,
// without running any more model code.
func TestCloseWithPendingTimers(t *testing.T) {
	env := NewEnv()
	s := env.NewShard()
	finished := 0
	env.Spawn("near", func(p *Proc) {
		p.Sleep(50 * Microsecond) // near-term wake-up
		finished++
	})
	s.Spawn("far", func(p *Proc) {
		p.Sleep(5 * Millisecond) // long sleep, far behind the queue head
		finished++
	})
	// A delayed start on a shard, never delivered.
	s.SpawnAt(10*Millisecond, "unstarted", func(p *Proc) { finished++ })
	env.RunUntil(Time(0).Add(10 * Microsecond))
	if got := env.Live(); got != 3 {
		t.Fatalf("Live() = %d before Close, want 3 (two sleepers, one undelivered start)", got)
	}
	env.Close()
	if got := env.Live(); got != 0 {
		t.Errorf("Live() = %d after Close, want 0", got)
	}
	if finished != 0 {
		t.Errorf("%d aborted process bodies ran past their sleep", finished)
	}
}

// A horizon falling between two events less than a microsecond apart must
// deliver the earlier one, clamp the clock exactly to the horizon, and
// leave the later one for the next run — including on a non-default shard.
func TestRunUntilHorizonBetweenCloseEvents(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	var wokeEarly, wokeLate Time
	env.Spawn("early", func(p *Proc) {
		p.Sleep(200 * Nanosecond)
		wokeEarly = p.Now()
	})
	env.NewShard().Spawn("late", func(p *Proc) {
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

// Blocked must report exactly the signal-parked processes — sorted, and
// regardless of which shard each lives on — while sleepers, short or long,
// have pending wake-ups and so never count as blocked.
func TestBlockedAcrossShards(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	sA, sB := env.NewShard(), env.NewShard()
	sig := NewSignal(env)
	env.Spawn("wait-default", func(p *Proc) { sig.Wait(p) })
	sA.Spawn("wait-a", func(p *Proc) { sig.Wait(p) })
	sB.Spawn("wait-b", func(p *Proc) { sig.Wait(p) })
	// One short sleeper, one whose wake-up lies far past the horizon.
	sA.Spawn("sleep-near", func(p *Proc) { p.Sleep(50 * Microsecond) })
	sB.Spawn("sleep-far", func(p *Proc) { p.Sleep(5 * Millisecond) })

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
	if env.Live() != 0 {
		t.Fatalf("Live() after drain = %d, want 0", env.Live())
	}
}
