package mpi

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// zeroCost removes communication costs so logical behaviour can be tested
// with exact times.
func zeroCost() CostModel { return CostModel{} }

func runWorld(t *testing.T, size int, cost CostModel, fn func(r *Rank)) *sim.Env {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	w := NewWorld(env, size, cost)
	w.SpawnAll(fn)
	env.Run()
	if blocked := env.Blocked(); len(blocked) != 0 {
		t.Fatalf("deadlocked ranks: %v", blocked)
	}
	return env
}

func TestNewWorldValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size world accepted")
		}
	}()
	NewWorld(sim.NewEnv(), 0, zeroCost())
}

func TestSendRecvDeliversPayload(t *testing.T) {
	var got int64
	runWorld(t, 2, zeroCost(), func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 7, 5)
		} else {
			got = r.Recv(0, 7)
		}
	})
	if got != 5 {
		t.Fatalf("bytes = %d, want 5", got)
	}
}

func TestRecvMatchesTagAndSource(t *testing.T) {
	var order []int
	runWorld(t, 3, zeroCost(), func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Send(2, 1, 100)
		case 1:
			r.Send(2, 2, 200)
		case 2:
			// Receive in the opposite order of arrival-likelihood: tag 2
			// from rank 1 first, then tag 1 from rank 0. The sizes tell
			// the two messages apart.
			order = append(order, int(r.Recv(1, 2)))
			order = append(order, int(r.Recv(0, 1)))
		}
	})
	if len(order) != 2 || order[0] != 200 || order[1] != 100 {
		t.Fatalf("order = %v", order)
	}
}

func TestSendChargesAlphaBeta(t *testing.T) {
	cost := CostModel{Alpha: 10 * sim.Microsecond, Beta: 1e9}
	var sendTime sim.Duration
	runWorld(t, 2, cost, func(r *Rank) {
		if r.Rank() == 0 {
			start := r.Proc().Now()
			r.Send(1, 0, 1_000_000) // 10µs + 1ms
			sendTime = r.Proc().Now().Sub(start)
		} else {
			r.Recv(0, 0)
		}
	})
	want := 10*sim.Microsecond + 1*sim.Millisecond
	if math.Abs(float64(sendTime-want)) > 1e-12 {
		t.Fatalf("send cost = %v, want %v", sendTime, want)
	}
}

func TestSendrecvPairDoesNotDeadlock(t *testing.T) {
	runWorld(t, 2, IntraNode(), func(r *Rank) {
		partner := 1 - r.Rank()
		n := r.Sendrecv(partner, 0, int64(8+r.Rank()), partner, 0)
		if want := int64(8 + partner); n != want {
			t.Errorf("rank %d received %d bytes, want %d", r.Rank(), n, want)
		}
	})
}

func TestBarrierSynchronizesRanks(t *testing.T) {
	var times []sim.Time
	runWorld(t, 4, zeroCost(), func(r *Rank) {
		r.Proc().Sleep(sim.Duration(r.Rank()) * sim.Millisecond)
		r.Barrier()
		times = append(times, r.Proc().Now())
	})
	if len(times) != 4 {
		t.Fatalf("times = %v", times)
	}
	for _, tm := range times {
		if tm != times[0] {
			t.Fatalf("ranks left barrier at different times: %v", times)
		}
		if tm != sim.Time(3e-3) {
			t.Fatalf("barrier released at %v, want 3ms (slowest rank)", tm)
		}
	}
}

func TestAllreduceRingCostScalesWithSize(t *testing.T) {
	// Ring allreduce of n bytes on P ranks: 2(P-1) steps of alpha + n/(P·beta).
	cost := CostModel{Alpha: 1 * sim.Microsecond, Beta: 1e9}
	elapsed := func(p int) sim.Duration {
		var d sim.Duration
		env := sim.NewEnv()
		defer env.Close()
		w := NewWorld(env, p, cost)
		w.SpawnAll(func(r *Rank) {
			start := r.Proc().Now()
			r.AllreduceBytes(8000)
			d = r.Proc().Now().Sub(start)
		})
		env.Run()
		return d
	}
	if got := elapsed(1); got != 0 {
		t.Errorf("single-rank allreduce cost = %v, want 0", got)
	}
	got4 := elapsed(4)
	want4 := sim.Duration(6) * (1*sim.Microsecond + sim.Duration(2000.0/1e9))
	if math.Abs(float64(got4-want4)) > 1e-12 {
		t.Errorf("4-rank ring cost = %v, want %v", got4, want4)
	}
}

func TestCollectiveKindMismatchPanics(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	w := NewWorld(env, 2, zeroCost())
	w.Spawn(0, func(r *Rank) { r.Barrier() })
	w.Spawn(1, func(r *Rank) {
		defer func() {
			if recover() == nil {
				t.Error("mismatched collective did not panic")
			}
		}()
		r.AllreduceBytes(8)
	})
	env.Run()
}

func TestTrafficCounters(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	w := NewWorld(env, 2, zeroCost())
	w.Spawn(0, func(r *Rank) {
		r.Send(1, 0, 100)
		r.Send(1, 1, 200)
	})
	var got []int64
	w.Spawn(1, func(r *Rank) {
		got = append(got, r.Recv(0, 0), r.Recv(0, 1))
	})
	env.Run()
	if len(got) != 2 || got[0]+got[1] != 300 || len(w.inbox[1]) != 0 {
		t.Fatalf("received %v, %d left in the inbox", got, len(w.inbox[1]))
	}
}

func TestInvalidRanksPanic(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	w := NewWorld(env, 2, zeroCost())
	for _, tc := range []struct {
		name string
		fn   func(r *Rank)
	}{
		{"send", func(r *Rank) { r.Send(5, 0, 0) }},
		{"send-negative", func(r *Rank) { r.Send(-1, 0, 0) }},
	} {
		name := tc.name
		fn := tc.fn
		w = NewWorld(env, 2, zeroCost())
		w.Spawn(0, func(r *Rank) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with invalid rank did not panic", name)
				}
			}()
			fn(r)
		})
		env.Run()
	}
	defer func() {
		if recover() == nil {
			t.Error("Spawn with invalid rank did not panic")
		}
	}()
	w.Spawn(7, func(r *Rank) {})
}
