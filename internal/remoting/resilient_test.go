package remoting

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cuda"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/sim"
)

func TestResilientDeterministicReplay(t *testing.T) {
	run := func() ([]float64, Stats) {
		env := sim.NewEnv()
		defer env.Close()
		r, err := NewResilient(env, gpu.A100(), ResilientConfig{
			Config:   Config{Path: mustPathForSlack(t, 100*sim.Microsecond), NoiseFraction: 0.2, Seed: 3},
			Faults:   faults.AtIntensity(2, 3),
			Standbys: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		durs, err := proxyLoop(env, r, 30, gpu.MatrixBytes(64), gpu.MatMul(64))
		if err != nil {
			t.Fatal(err)
		}
		return durs, r.Stats()
	}
	d1, s1 := run()
	d2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ across replays: %+v vs %+v", s1, s2)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("iteration %d differs across replays: %v vs %v", i, d1[i], d2[i])
		}
	}
}

// TestResilientRejectsStandbysPastSaltBlock: server 4,096's stall stream
// would be server 0's crash stream, so a pool that large is an error
// before any device is built.
func TestResilientRejectsStandbysPastSaltBlock(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	_, err := NewResilient(env, gpu.A100(), ResilientConfig{
		Config:   Config{Path: mustPathForSlack(t, 50*sim.Microsecond), Seed: 1},
		Standbys: 4096,
	})
	if err == nil || !strings.Contains(err.Error(), "salt block") {
		t.Fatalf("NewResilient with 4096 standbys: err = %v, want a salt-block error", err)
	}
}

func TestResilientFailoverOnCrash(t *testing.T) {
	// Crash the primary early in the run (seed 5 places the crash at
	// ~0.165×CrashAfter ≈ 825µs, after the mallocs but well before the
	// loop ends); the transport must fail over to the standby, replay
	// device state as DMA uploads, and finish.
	env := sim.NewEnv()
	defer env.Close()
	r, err := NewResilient(env, gpu.A100(), ResilientConfig{
		Config:   Config{Path: mustPathForSlack(t, 50*sim.Microsecond), Seed: 5},
		Faults:   faults.Config{Seed: 5, CrashAfter: 5 * sim.Millisecond},
		Standbys: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proxyLoop(env, r, 10, gpu.MatrixBytes(64), gpu.MatMul(64)); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Failovers < 1 {
		t.Fatalf("no failover despite early crash: %+v", st)
	}
	if st.ReuploadBytes < 3*gpu.MatrixBytes(64) {
		t.Errorf("state re-upload bytes = %d, want ≥ %d", st.ReuploadBytes, 3*gpu.MatrixBytes(64))
	}
	if st.Timeouts < 1 {
		t.Errorf("crash produced no timeouts: %+v", st)
	}
}

func TestResilientDegradesToLocal(t *testing.T) {
	// With no standby and a crashed primary, the transport must degrade
	// gracefully to node-local execution and keep serving calls.
	env := sim.NewEnv()
	defer env.Close()
	r, err := NewResilient(env, gpu.A100(), ResilientConfig{
		Config: Config{Path: mustPathForSlack(t, 50*sim.Microsecond), Seed: 9},
		Faults: faults.Config{Seed: 9, CrashAfter: 50 * sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	durs, err := proxyLoop(env, r, 10, gpu.MatrixBytes(64), gpu.MatMul(64))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Degraded() {
		t.Fatalf("transport not degraded after losing only server: %+v", r.Stats())
	}
	// Degraded iterations run node-local: no network crossing, so they
	// must be far cheaper than the remoted round trips.
	last := sim.Duration(durs[len(durs)-1])
	if last >= 100*sim.Microsecond {
		t.Errorf("degraded iteration took %v, want < one round trip", last)
	}
}

func TestResilientExhaustedFailsFast(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	r, err := NewResilient(env, gpu.A100(), ResilientConfig{
		Config:               Config{Path: mustPathForSlack(t, 50*sim.Microsecond), Seed: 1},
		Faults:               faults.Config{Seed: 1, CrashAfter: 50 * sim.Microsecond},
		DisableLocalFallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var first, second error
	var firstAt, secondAt sim.Time
	env.Spawn("host", func(p *sim.Proc) {
		_, first = r.Malloc(p, 1024)
		firstAt = p.Now()
		_, second = r.Malloc(p, 1024)
		secondAt = p.Now()
	})
	env.Run()
	if !errors.Is(first, cuda.ErrDeviceLost) {
		t.Fatalf("first call error = %v, want ErrDeviceLost", first)
	}
	if !errors.Is(second, cuda.ErrDeviceLost) {
		t.Fatalf("second call error = %v, want ErrDeviceLost", second)
	}
	if secondAt != firstAt {
		t.Errorf("exhausted transport did not fail fast: %v vs %v", secondAt, firstAt)
	}
}

func TestResilientMallocFreeIdempotentUnderLoss(t *testing.T) {
	// Heavy packet loss forces retries of malloc and free. Request-id
	// dedup must keep them idempotent: every handle frees cleanly and the
	// allocator balances.
	env := sim.NewEnv()
	defer env.Close()
	r, err := NewResilient(env, gpu.A100(), ResilientConfig{
		Config:   Config{Path: mustPathForSlack(t, 20*sim.Microsecond), Seed: 11},
		Faults:   faults.Config{Seed: 11, DropProbability: 0.4},
		Standbys: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	env.Spawn("host", func(p *sim.Proc) {
		for round := 0; round < 8; round++ {
			var hs []gpu.Ptr
			for i := 0; i < 4; i++ {
				h, err := r.Malloc(p, 1<<20)
				if err != nil {
					runErr = err
					return
				}
				hs = append(hs, h)
			}
			for _, h := range hs {
				if err := r.Free(p, h); err != nil {
					runErr = err
					return
				}
			}
		}
	})
	env.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	st := r.Stats()
	if st.Retries == 0 {
		t.Errorf("drop probability 0.4 produced no retries: %+v", st)
	}
}

func TestComparePerArmStreamsIndependent(t *testing.T) {
	// The injected arm draws jitter from its own substream: doubling the
	// remote arm's draw count (more iterations) must not change the
	// injected arm's per-iteration distribution for the shared prefix.
	cfg := Config{Path: mustPathForSlack(t, 50*sim.Microsecond), NoiseFraction: 0.3, Seed: 42}
	a, err := Compare(32, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compare(32, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("Compare not deterministic: %+v vs %+v", a, b)
	}
	if a.InjectedMean <= 0 || a.InjectedStddev < 0 {
		t.Errorf("injected arm not measured: %+v", a)
	}
	// The injected arm tracks the nominal slack tightly (that is the whole
	// point of controlled injection): its mean must sit within jitter
	// range of remoted mean's ballpark but with its own independent value.
	if a.InjectedMean == a.RemotedMean {
		t.Errorf("arms suspiciously identical: %+v", a)
	}
}

// TestRefusedReadmitAllocatesNothing: once the only server is lost and
// the transport has degraded to node-local, every readmission is refused
// with the one sentinel error, allocating nothing — the health control
// plane retries readmission on every evaluator tick.
func TestRefusedReadmitAllocatesNothing(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	r, err := NewResilient(env, gpu.A100(), ResilientConfig{
		Config: Config{Path: mustPathForSlack(t, 50*sim.Microsecond), Seed: 9},
		Faults: faults.Config{Seed: 9, CrashAfter: 50 * sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proxyLoop(env, r, 10, gpu.MatrixBytes(64), gpu.MatMul(64)); err != nil {
		t.Fatal(err)
	}
	if !r.Degraded() {
		t.Fatalf("transport not degraded after losing only server: %+v", r.Stats())
	}
	var got error
	if allocs := testing.AllocsPerRun(100, func() { got = r.Readmit(0) }); allocs != 0 {
		t.Errorf("a refused readmit allocates %v times, want 0", allocs)
	}
	if !errors.Is(got, ErrReadmitRefused) {
		t.Errorf("refused readmit returned %v, want ErrReadmitRefused", got)
	}
	if n := r.Stats().Readmissions; n != 0 {
		t.Errorf("%d readmissions after refusals, want 0", n)
	}
}
