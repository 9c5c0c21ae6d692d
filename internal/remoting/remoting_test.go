package remoting

import (
	"math"
	"testing"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/sim"
)

func mustPathForSlack(t *testing.T, d sim.Duration) fabric.Path {
	t.Helper()
	p, err := fabric.PathForSlack(d)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func testSpec() gpu.Spec {
	return gpu.Spec{
		Name:            "test-gpu",
		MemoryBytes:     1 << 30,
		MemoryBandwidth: 1e12,
		PeakFLOPS:       1e12,
		H2DBandwidth:    1e9,
		D2HBandwidth:    1e9,
		DMAEngines:      2,
	}
}

// newPlain builds the transport Compare measures: no faults and no
// per-attempt deadline, so every call simply crosses the fabric.
func newPlain(t *testing.T, env *sim.Env, cfg Config) *Resilient {
	t.Helper()
	r, err := NewResilient(env, testSpec(), ResilientConfig{
		Config: cfg,
		Policy: faults.Policy{CallTimeout: sim.Duration(math.Inf(1))},
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEveryCallCrossesTheNetworkTwice(t *testing.T) {
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	path, err := fabric.PathForSlack(50 * sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	r := newPlain(t, env, Config{Path: path, ServerOverhead: -1})
	env.Spawn("host", func(p *sim.Proc) {
		ptr, err := r.Malloc(p, 1000)
		if err != nil {
			t.Errorf("Malloc: %v", err)
		}
		r.Free(p, ptr)
	})
	env.Run()
	if got := r.Stats().Calls; got != 2 {
		t.Fatalf("Calls = %d, want 2", got)
	}
	// Two calls × two crossings × 50µs.
	want := 4 * 50 * sim.Microsecond
	if math.Abs(float64(r.netTime-want)) > 1e-12 {
		t.Errorf("network time = %v, want %v", r.netTime, want)
	}
	if got := r.MeanCallDelay(); math.Abs(float64(got-100*sim.Microsecond)) > 1e-12 {
		t.Errorf("MeanCallDelay = %v, want 100µs (two crossings)", got)
	}
}

func TestPayloadRidesTheWire(t *testing.T) {
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	// 1 GB/s path: a 1 MB payload adds ~1ms per crossing on top of latency.
	path := fabric.Path{Hops: []fabric.Hop{{Name: "net", Latency: 10 * sim.Microsecond, Bandwidth: 1e9}}}
	r := newPlain(t, env, Config{Path: path, ServerOverhead: -1})
	var h2d, d2h sim.Duration
	env.Spawn("host", func(p *sim.Proc) {
		ptr, _ := r.Malloc(p, 1_000_000)
		start := p.Now()
		r.MemcpyH2D(p, ptr, 1_000_000)
		h2d = p.Now().Sub(start)
		start = p.Now()
		r.MemcpyD2H(p, ptr, 1_000_000)
		d2h = p.Now().Sub(start)
	})
	env.Run()
	// H2D: request carries 1MB (1ms + 10µs) + device copy (1ms) +
	// response (10µs) ≈ 2.02ms. Same arithmetic for D2H.
	for name, got := range map[string]sim.Duration{"h2d": h2d, "d2h": d2h} {
		if got < 2*sim.Millisecond || got > 2.2*sim.Millisecond {
			t.Errorf("%s remote copy = %v, want ≈ 2.02ms", name, got)
		}
	}
	if st := r.Stats(); st.Timeouts != 0 || st.Degraded {
		t.Errorf("fault-free copies timed out: %+v", st)
	}
}

// The per-attempt deadline covers wire time and server overhead, not
// execution: with no faults, a long kernel must time out under the
// default allowance and must not under an unbounded one.
func TestDeadlineExcludesExecution(t *testing.T) {
	launch := func(pol faults.Policy, n int) Stats {
		env := sim.NewEnv()
		defer env.Close()
		r, err := NewResilient(env, gpu.A100(), ResilientConfig{
			Config: Config{Path: fabric.Preset(fabric.RowScale, 0)},
			Policy: pol,
		})
		if err != nil {
			t.Fatal(err)
		}
		env.Spawn("host", func(p *sim.Proc) {
			if err := r.LaunchSync(p, gpu.MatMul(n)); err != nil {
				t.Error(err)
			}
		})
		env.Run()
		return r.Stats()
	}
	if st := launch(faults.Policy{CallTimeout: sim.Duration(math.Inf(1))}, 16384); st.Timeouts != 0 || st.Retries != 0 || st.Degraded {
		t.Errorf("unbounded deadline, no faults: %+v, want no timeouts, retries or degradation", st)
	}
	if st := launch(faults.Policy{}, 2048); st.Timeouts == 0 || !st.Degraded {
		t.Errorf("default deadline, no faults, 2048 matmul: %+v, want timeouts and degradation", st)
	}
}

func TestNoiseMakesDelaysVary(t *testing.T) {
	cfg := Config{
		Path:          mustPathForSlack(t, 100*sim.Microsecond),
		NoiseFraction: 0.3,
		Seed:          11,
	}
	res, err := Compare(512, 30, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemotedStddev <= 0 {
		t.Error("no variance despite network noise")
	}
	// Without noise the iteration durations collapse to a point (matmul
	// warm-up aside) — the "granular control" the paper wants.
	clean, err := Compare(512, 30, Config{Path: cfg.Path})
	if err != nil {
		t.Fatal(err)
	}
	if clean.RemotedStddev >= res.RemotedStddev {
		t.Errorf("noiseless stddev %v >= noisy %v", clean.RemotedStddev, res.RemotedStddev)
	}
}

func TestMeanCallDelayDriftsFromNominal(t *testing.T) {
	// The paper's complaint: the delay a remoting layer induces is not
	// the nominal latency — serialization adds a payload-dependent term.
	cfg := Config{Path: fabric.Preset(fabric.RowScale, 0)}
	res, err := Compare(2048, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanCallDelay <= res.NominalSlack {
		t.Errorf("mean call delay %v not above nominal slack %v (payload serialization)",
			res.MeanCallDelay, res.NominalSlack)
	}
}

// One 16384 iteration takes over a second, longer than any plausible
// per-attempt allowance; the remoted arm must still time only the fabric
// and the device. A bounded deadline
// (1 s, say) fails the iteration over mid-run and reports about ten times
// the pinned remoted mean.
func TestCompareTimesLongCalls(t *testing.T) {
	res, err := Compare(16384, 1, Config{Path: fabric.Preset(fabric.RowScale, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.RemotedMean != 1.339382043980716 {
		t.Errorf("RemotedMean = %v, want 1.339382043980716s", float64(res.RemotedMean))
	}
	if res.MeanCallDelay != 0.017508966782608694 {
		t.Errorf("MeanCallDelay = %v, want 0.017508966782608694s", float64(res.MeanCallDelay))
	}
}

func TestCompareValidation(t *testing.T) {
	if _, err := Compare(0, 10, Config{}); err == nil {
		t.Error("zero matrix accepted")
	}
	if _, err := Compare(512, 0, Config{}); err == nil {
		t.Error("zero iterations accepted")
	}
}

// Compare and NewResilient must reject bad configurations with an error
// instead of panicking inside the transport or the slack injector.
func TestCompareRejectsInvalidConfig(t *testing.T) {
	good := mustPathForSlack(t, 10*sim.Microsecond)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"noise fraction 1", Config{Path: good, NoiseFraction: 1}},
		{"noise fraction 1.5", Config{Path: good, NoiseFraction: 1.5}},
		{"negative noise fraction", Config{Path: good, NoiseFraction: -0.1}},
		{"negative hop latency", Config{Path: fabric.Path{Hops: []fabric.Hop{{Name: "bad", Latency: -sim.Microsecond}}}}},
		{"NaN hop latency", Config{Path: fabric.Path{Hops: []fabric.Hop{{Name: "bad", Latency: sim.Duration(math.NaN())}}}}},
		{"+Inf hop latency", Config{Path: fabric.Path{Hops: []fabric.Hop{{Name: "bad", Latency: sim.Duration(math.Inf(1))}}}}},
		{"NaN hop bandwidth", Config{Path: fabric.Path{Hops: []fabric.Hop{{Name: "bad", Latency: sim.Microsecond, Bandwidth: math.NaN()}}}}},
		{"NaN noise fraction", Config{Path: good, NoiseFraction: math.NaN()}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Compare(512, 2, c.cfg); err == nil {
				t.Error("Compare accepted an invalid config")
			}
			env := sim.NewEnv()
			defer env.Close()
			if _, err := NewResilient(env, testSpec(), ResilientConfig{Config: c.cfg}); err == nil {
				t.Error("NewResilient accepted an invalid config")
			}
		})
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	cfg := Config{Path: mustPathForSlack(t, 10*sim.Microsecond), NoiseFraction: 0.2, Seed: 3}
	a, err := Compare(512, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compare(512, 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.RemotedMean != b.RemotedMean || a.RemotedStddev != b.RemotedStddev {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}
