package horovod

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

func TestSyncBytesChargesRingCost(t *testing.T) {
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	w := mpi.NewWorld(env, 4, mpi.CostModel{Alpha: 1 * sim.Microsecond, Beta: 1e9})
	var elapsed sim.Duration
	w.SpawnAll(func(r *mpi.Rank) {
		s := New(r)
		start := r.Proc().Now()
		s.SyncBytes(3 * fusionThreshold) // three fusion chunks
		if r.Rank() == 0 {
			elapsed = r.Proc().Now().Sub(start)
		}
	})
	env.Run()
	// 3 cycles × (1ms cycle + ring cost of 64 MiB on 4 ranks).
	ring := sim.Duration(6) * (1*sim.Microsecond + sim.Duration(float64(64<<20)/4/1e9))
	want := 3 * (1*sim.Millisecond + ring)
	if diff := float64(elapsed - want); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("elapsed = %v, want %v", elapsed, want)
	}
}

func TestSyncBytesZeroAndNegative(t *testing.T) {
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	w := mpi.NewWorld(env, 1, mpi.CostModel{})
	w.SpawnAll(func(r *mpi.Rank) {
		s := New(r)
		start := r.Proc().Now()
		s.SyncBytes(0) // no-op: no fusion cycle, no allreduce
		if d := r.Proc().Now().Sub(start); d != 0 {
			t.Errorf("zero-byte sync took %v", d)
		}
		defer func() {
			if recover() == nil {
				t.Error("negative size accepted")
			}
		}()
		s.SyncBytes(-1)
	})
	env.Run()
}
