package sim

import "testing"

// When Fire lands at the exact instant the deadline expires, the outcome
// must be deterministic regardless of which process was spawned (and thus
// scheduled) first: the waiter's timer event always carries the earlier
// sequence number, so the deadline wins the tie in both orders.
func TestWaitTimeoutExactInstantTieIsDeterministic(t *testing.T) {
	for _, firerFirst := range []bool{true, false} {
		env := NewEnv()
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
			env.Spawn("firer", firer)
			env.Spawn("waiter", waiter)
		} else {
			env.Spawn("waiter", waiter)
			env.Spawn("firer", firer)
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

// A Fire arriving after a waiter already timed out must not wake it a
// second time or disturb whatever it is blocked on next.
func TestWaitTimeoutFireAfterTimeoutDoesNotDoubleWake(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	sig := NewSignal(env)
	next := NewSignal(env)
	wakes := 0
	var timeoutErr, nextErr error
	env.Spawn("waiter", func(p *Proc) {
		timeoutErr = sig.WaitTimeout(p, 5*Microsecond)
		wakes++
		// Immediately block on a different signal; a stray second wake-up
		// from the stale Fire would surface here as a spurious return.
		nextErr = next.WaitTimeout(p, 100*Microsecond)
		wakes++
	})
	env.Spawn("firer", func(p *Proc) {
		p.Sleep(20 * Microsecond)
		sig.Fire() // waiter timed out 15µs ago; must be a no-op
		p.Sleep(10 * Microsecond)
		next.Fire()
	})
	env.Run()
	if timeoutErr != ErrTimeout {
		t.Errorf("first wait err = %v, want ErrTimeout", timeoutErr)
	}
	if nextErr != nil {
		t.Errorf("second wait err = %v, want nil (fired at 30µs, deadline 105µs)", nextErr)
	}
	if wakes != 2 {
		t.Errorf("waiter woke %d times, want exactly 2", wakes)
	}
	if sig.Waiters() != 0 || next.Waiters() != 0 {
		t.Errorf("waiter lists not drained: %d, %d", sig.Waiters(), next.Waiters())
	}
}

// Interleaved timeouts must splice the right processes out of the waiter
// list: A and C (with deadlines) time out at 5µs, B (plain Wait between
// them in the list) must remain and be the only process a later Fire
// releases.
func TestWaitTimeoutInterleavedRemovalKeepsListConsistent(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	sig := NewSignal(env)
	var errA, errC error
	var bWokeAt Time
	env.Spawn("a", func(p *Proc) { errA = sig.WaitTimeout(p, 5*Microsecond) })
	env.Spawn("b", func(p *Proc) { sig.Wait(p); bWokeAt = p.Now() })
	env.Spawn("c", func(p *Proc) { errC = sig.WaitTimeout(p, 5*Microsecond) })
	env.Spawn("observer", func(p *Proc) {
		p.Sleep(0) // let all three enqueue
		if n := sig.Waiters(); n != 3 {
			t.Errorf("waiters after enqueue = %d, want 3", n)
		}
		p.Sleep(10 * Microsecond) // past both deadlines
		if n := sig.Waiters(); n != 1 {
			t.Errorf("waiters after timeouts = %d, want 1 (only b)", n)
		}
		sig.Fire()
	})
	env.Run()
	if errA != ErrTimeout || errC != ErrTimeout {
		t.Errorf("timed waiters: a=%v c=%v, want ErrTimeout for both", errA, errC)
	}
	if bWokeAt != Time(0).Add(10*Microsecond) {
		t.Errorf("b woke at %v, want 10µs", bWokeAt)
	}
	if sig.Waiters() != 0 {
		t.Errorf("%d waiters left after Fire", sig.Waiters())
	}
}

// A process whose signal fires before the deadline must not be woken
// again when the abandoned timer expires (the sibling wake-up is
// cancelled on delivery).
func TestWaitTimeoutSignalWinsCancelsTimer(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	sig := NewSignal(env)
	var err error
	var resumedAt, doneAt Time
	env.Spawn("waiter", func(p *Proc) {
		err = sig.WaitTimeout(p, 50*Microsecond)
		resumedAt = p.Now()
		p.Sleep(100 * Microsecond) // crosses the stale 50µs deadline
		doneAt = p.Now()
	})
	env.Spawn("firer", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		sig.Fire()
	})
	env.Run()
	if err != nil {
		t.Errorf("err = %v, want nil", err)
	}
	if resumedAt != Time(0).Add(5*Microsecond) {
		t.Errorf("resumed at %v, want 5µs", resumedAt)
	}
	if doneAt != Time(0).Add(105*Microsecond) {
		t.Errorf("finished at %v, want 105µs (stale timer must not cut the sleep short)", doneAt)
	}
}

// A WaitTimeout that Fire ends before its deadline allocates nothing once
// warm: the signal's wake-up and the timer come from the free list, and
// the cancelled timer goes back to it when it surfaces.
func TestWaitTimeoutFiredAllocatesNothing(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	sig := NewSignal(env)
	fired, timedOut := 0, 0
	env.Spawn("waiter", func(p *Proc) {
		for {
			if sig.WaitTimeout(p, Millisecond) == nil {
				fired++
			} else {
				timedOut++
			}
		}
	})
	env.Spawn("firer", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
			sig.Fire()
		}
	})
	// Warm-up: past the first deadline, so cancelled timers surface and
	// recycle as fast as new ones are scheduled.
	env.RunUntil(Time(0).Add(2 * Millisecond))
	allocs := testing.AllocsPerRun(100, func() {
		env.RunUntil(env.Now().Add(100 * Microsecond))
	})
	if allocs != 0 {
		t.Fatalf("Fire-ended WaitTimeout allocates %.1f objects per 100 µs segment, want 0", allocs)
	}
	if timedOut != 0 || fired < 100*100 {
		t.Fatalf("%d waits fired, %d timed out: want every wait ended by Fire", fired, timedOut)
	}
}
