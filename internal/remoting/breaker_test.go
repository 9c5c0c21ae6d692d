package remoting

import (
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/proxy"
	"repro/internal/sim"
)

// firstFlapSeed scans seeds for a flap schedule whose first outage starts
// after t=0 and is followed by at least 2 ms of healthy link — room for
// the breaker timeline to play out without the next window interfering.
// The scan uses its own injector, so the transport under test draws the
// identical (unperturbed) schedule from the same config.
func firstFlapSeed(t *testing.T, outage sim.Duration) (seed int64, start, end sim.Time) {
	t.Helper()
	for s := int64(1); s < 200; s++ {
		cfg := faults.Config{Seed: s, FlapEvery: 50 * sim.Millisecond, FlapOutage: outage}
		in, err := faults.NewInjector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var probe sim.Time
		var S, E sim.Time
		found := false
		for probe.Sub(sim.Time(0)) < sim.Second {
			probe = probe.Add(20 * sim.Microsecond)
			if down, until := in.LinkDown(probe); down {
				E = until
				S = until.Add(-outage)
				found = true
				break
			}
		}
		if !found || S.Sub(sim.Time(0)) < 100*sim.Microsecond {
			continue
		}
		clear := true
		for q := E.Add(sim.Microsecond); q.Sub(E) < 2*sim.Millisecond; q = q.Add(20 * sim.Microsecond) {
			if down, _ := in.LinkDown(q); down {
				clear = false
				break
			}
		}
		if clear {
			return s, S, E
		}
	}
	t.Fatal("no seed produced an isolated first flap window")
	return 0, 0, 0
}

// breakerPolicy is timed so that, for a call issued at the start of a
// flap outage, two attempts (72 µs each, 10 µs backoff between) trip the
// breaker at +154 µs and the half-open probe goes out at +454 µs.
func breakerPolicy() faults.Policy {
	return faults.Policy{
		CallTimeout:      50 * sim.Microsecond,
		MaxRetries:       10,
		BackoffBase:      10 * sim.Microsecond,
		JitterFrac:       -1, // normalized to zero: exact timings
		BreakerThreshold: 2,
		BreakerCooldown:  300 * sim.Microsecond,
		FailoverPenalty:  100 * sim.Microsecond,
	}
}

// breakerRun issues a single Malloc at the first flap window's start and
// returns the transport for stats inspection.
func breakerRun(t *testing.T, outage sim.Duration) *Resilient {
	t.Helper()
	seed, start, _ := firstFlapSeed(t, outage)
	env := sim.NewEnv()
	defer env.Close()
	r, err := NewResilient(env, gpu.A100(), ResilientConfig{
		Config: Config{Path: mustPathForSlack(t, 10*sim.Microsecond), Seed: seed},
		Faults: faults.Config{Seed: seed, FlapEvery: 50 * sim.Millisecond, FlapOutage: outage},
		Policy: breakerPolicy(), Standbys: 1, DisableLocalFallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var callErr error
	env.Spawn("host", func(p *sim.Proc) {
		// Land just inside the window (float rounding could place the
		// computed start a hair before it).
		p.Sleep(start.Add(2 * sim.Microsecond).Sub(p.Now()))
		_, callErr = r.Malloc(p, 1<<20)
	})
	env.Run()
	if callErr != nil {
		t.Fatalf("call failed: %v", callErr)
	}
	return r
}

func TestBreakerHalfOpenCloses(t *testing.T) {
	// A 250 µs outage ends during the breaker cooldown: the half-open
	// probe finds the link healthy, the breaker closes on the same server,
	// and no failover is paid.
	r := breakerRun(t, 250*sim.Microsecond)
	st := r.Stats()
	if st.BreakerTrips != 1 || st.HalfOpenProbes != 1 || st.HalfOpenRecoveries != 1 {
		t.Errorf("trips/probes/recoveries = %d/%d/%d, want 1/1/1",
			st.BreakerTrips, st.HalfOpenProbes, st.HalfOpenRecoveries)
	}
	if st.Failovers != 0 {
		t.Errorf("half-open recovery still paid %d failover(s)", st.Failovers)
	}
	if r.active != 0 {
		t.Errorf("active server %d after recovery, want 0", r.active)
	}
}

func TestBreakerHalfOpenReopens(t *testing.T) {
	// A 500 µs outage is still up when the probe goes out at +454 µs; the
	// window ends at +500 µs while the probe is waiting on its deadline —
	// too late: the request was already lost, the breaker re-opens, and
	// the call fails over to the standby.
	r := breakerRun(t, 500*sim.Microsecond)
	st := r.Stats()
	if st.BreakerTrips != 1 || st.HalfOpenProbes != 1 || st.HalfOpenRecoveries != 0 {
		t.Errorf("trips/probes/recoveries = %d/%d/%d, want 1/1/0",
			st.BreakerTrips, st.HalfOpenProbes, st.HalfOpenRecoveries)
	}
	if st.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", st.Failovers)
	}
	if r.active != 1 {
		t.Errorf("active server %d after re-open, want 1", r.active)
	}
}

func TestDrainMigratesAndReadmitRestores(t *testing.T) {
	// Policy-triggered drain rides the same DMA-replay path as failover:
	// the handle table moves to the standby, the drained server stays
	// readmittable, and a readmitted server is reachable again through the
	// circular rotation scan.
	env := sim.NewEnv()
	defer env.Close()
	r, err := NewResilient(env, gpu.A100(), ResilientConfig{
		Config:   Config{Path: mustPathForSlack(t, 10*sim.Microsecond), Seed: 5},
		Standbys: 1, DisableLocalFallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	matBytes := gpu.MatrixBytes(64)
	kernel := gpu.MatMul(64)
	env.Spawn("host", func(p *sim.Proc) {
		m, err := proxy.Alloc(p, r, matBytes)
		if err != nil {
			t.Errorf("malloc: %v", err)
			return
		}
		if err := m.Iterate(p, r, kernel); err != nil {
			t.Errorf("pre-drain iteration: %v", err)
			return
		}
		if err := r.Drain(p, 0); err != nil {
			t.Errorf("drain(0): %v", err)
			return
		}
		if got := r.active; got != 1 {
			t.Errorf("active after drain = %d, want 1", got)
		}
		if r.Live(0) {
			t.Error("drained server still reports live")
		}
		if err := m.Iterate(p, r, kernel); err != nil {
			t.Errorf("post-drain iteration: %v", err)
			return
		}
		// Draining the last live server must be refused, not executed.
		if err := r.Drain(p, 1); err == nil || !strings.Contains(err.Error(), "no live peer") {
			t.Errorf("draining the last live server: err = %v", err)
		}
		if err := r.Readmit(0); err != nil {
			t.Errorf("readmit(0): %v", err)
			return
		}
		if !r.Live(0) {
			t.Error("readmitted server not live")
		}
		// Now server 1 can drain back onto the readmitted 0 — the circular
		// scan reaches a lower index, which crash failover never needs.
		if err := r.Drain(p, 1); err != nil {
			t.Errorf("drain(1): %v", err)
			return
		}
		if got := r.active; got != 0 {
			t.Errorf("active after second drain = %d, want 0", got)
		}
		if err := m.Iterate(p, r, kernel); err != nil {
			t.Errorf("iteration on readmitted server: %v", err)
		}
	})
	env.Run()
	st := r.Stats()
	if st.Migrations != 2 || st.Readmissions != 1 || st.Failovers != 0 {
		t.Errorf("migrations/readmissions/failovers = %d/%d/%d, want 2/1/0",
			st.Migrations, st.Readmissions, st.Failovers)
	}
	if st.ReuploadBytes != 2*3*matBytes {
		t.Errorf("reupload bytes = %d, want %d (3 handles × 2 migrations)", st.ReuploadBytes, 2*3*matBytes)
	}
}

func TestDrainStandbyRemovesFromRotation(t *testing.T) {
	// A drained standby has no state to move, but failover must skip it.
	env := sim.NewEnv()
	defer env.Close()
	r, err := NewResilient(env, gpu.A100(), ResilientConfig{
		Config:   Config{Path: mustPathForSlack(t, 10*sim.Microsecond), Seed: 6},
		Standbys: 2, DisableLocalFallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	env.Spawn("host", func(p *sim.Proc) {
		if err := r.Drain(p, 1); err != nil {
			t.Errorf("drain standby: %v", err)
			return
		}
		if got := r.active; got != 0 {
			t.Errorf("draining a standby moved the executor to %d", got)
		}
		if got := r.nextLive(0); got != 2 {
			t.Errorf("nextLive(0) = %d, want 2 (standby 1 is drained)", got)
		}
	})
	env.Run()
	if st := r.Stats(); st.Migrations != 0 {
		t.Errorf("standby drain migrated state: %+v", st)
	}
}
