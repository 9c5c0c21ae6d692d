package slack

import (
	"math"
	"testing"

	"repro/internal/cuda"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/sim"
)

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

// runProxyIteration performs the proxy's 5-call iteration (2 H2D copies,
// kernel launch, device sync, 1 D2H copy... the paper counts 3 transfers +
// launch + sync = 5) and returns the elapsed host time.
func runProxyIteration(t *testing.T, in *Injector) sim.Duration {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	dev, err := gpu.NewDevice(env, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx := cuda.NewContext(dev, cuda.Config{CallOverhead: -1})
	if in != nil {
		ctx.Interpose(in)
	}
	var elapsed sim.Duration
	env.Spawn("host", func(p *sim.Proc) {
		a, _ := ctx.Malloc(p, 1000)
		b, _ := ctx.Malloc(p, 1000)
		c, _ := ctx.Malloc(p, 1000)
		start := p.Now()
		ctx.MemcpyH2D(p, a, 1000)
		ctx.MemcpyH2D(p, b, 1000)
		ctx.LaunchSync(p, gpu.Kernel{Name: "sgemm", FixedTime: 1 * sim.Millisecond}, nil)
		ctx.DeviceSynchronize(p)
		ctx.MemcpyD2H(p, c, 1000)
		elapsed = p.Now().Sub(start)
	})
	env.Run()
	return elapsed
}

func TestInjectorAddsExactlyPerCallSlack(t *testing.T) {
	base := runProxyIteration(t, nil)
	var injected sim.Duration
	in := New(100*sim.Microsecond, WithObserver(func(_ string, start, end sim.Time) {
		injected += end.Sub(start)
	}))
	with := runProxyIteration(t, in)
	if in.DelayedCalls() != 5 {
		t.Fatalf("DelayedCalls = %d, want 5 (3 memcpy + launch + sync)", in.DelayedCalls())
	}
	wantExtra := 5 * 100 * sim.Microsecond
	if got := with - base; math.Abs(float64(got-wantExtra)) > 1e-12 {
		t.Errorf("slack added %v, want %v", got, wantExtra)
	}
	if math.Abs(float64(injected-wantExtra)) > 1e-12 {
		t.Errorf("observed %v of injected delay, want %v", injected, wantExtra)
	}
}

func TestZeroAmountInjectsNothing(t *testing.T) {
	in := New(0)
	base := runProxyIteration(t, nil)
	with := runProxyIteration(t, in)
	if with != base {
		t.Errorf("zero-slack run took %v vs baseline %v", with, base)
	}
	if in.DelayedCalls() != 0 {
		t.Errorf("DelayedCalls = %d", in.DelayedCalls())
	}
}

func TestMemoryCallsNotDelayed(t *testing.T) {
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	dev, _ := gpu.NewDevice(env, testSpec())
	ctx := cuda.NewContext(dev, cuda.Config{CallOverhead: -1})
	in := New(1 * sim.Millisecond)
	ctx.Interpose(in)
	env.Spawn("host", func(p *sim.Proc) {
		start := p.Now()
		ptr, _ := ctx.Malloc(p, 100)
		ctx.Free(p, ptr)
		if p.Now() != start {
			t.Errorf("malloc/free delayed by %v", p.Now().Sub(start))
		}
	})
	env.Run()
	if in.DelayedCalls() != 0 {
		t.Errorf("DelayedCalls = %d for memory-only calls", in.DelayedCalls())
	}
}

func TestWithSymbolsLDPreloadStyle(t *testing.T) {
	// A shim that only wraps the synchronous memcpy symbols misses the
	// launch and sync calls — the coverage gap the paper warns about.
	in := New(1*sim.Millisecond, WithSymbols("cudaMemcpy(HtoD)", "cudaMemcpy(DtoH)"))
	runProxyIteration(t, in)
	if in.DelayedCalls() != 3 {
		t.Errorf("DelayedCalls = %d, want 3 (memcpy symbols only)", in.DelayedCalls())
	}
}

func TestJitterDeterministicAndBounded(t *testing.T) {
	run := func() (int64, sim.Duration) {
		var injected sim.Duration
		in := New(100*sim.Microsecond, WithJitter(0.2, 7), WithObserver(func(_ string, start, end sim.Time) {
			injected += end.Sub(start)
		}))
		runProxyIteration(t, in)
		return in.DelayedCalls(), injected
	}
	c1, t1 := run()
	c2, t2 := run()
	if c1 != c2 || t1 != t2 {
		t.Errorf("jittered runs diverged: %d/%v vs %d/%v", c1, t1, c2, t2)
	}
	// Bounds: 5 calls × 100µs × [0.8, 1.2].
	lo, hi := 5*80*sim.Microsecond, 5*120*sim.Microsecond
	if t1 < lo || t1 > hi {
		t.Errorf("injected %v outside [%v, %v]", t1, lo, hi)
	}
	if math.Abs(float64(t1-5*100*sim.Microsecond)) < 1e-12 {
		t.Error("jitter had no effect")
	}
}

func TestFromPathUsesOneWayLatency(t *testing.T) {
	p, err := fabric.PathForSlack(42 * sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	in := FromPath(p)
	if in.amount != 42*sim.Microsecond {
		t.Errorf("amount = %v", in.amount)
	}
	row := FromPath(fabric.Preset(fabric.RowScale, 0))
	if row.amount <= 0 {
		t.Error("row-scale path produced zero slack")
	}
}

func TestSetAmountAndReset(t *testing.T) {
	in := New(1 * sim.Microsecond)
	runProxyIteration(t, in)
	if in.DelayedCalls() == 0 {
		t.Fatal("no calls delayed")
	}
	in.Reset()
	if in.DelayedCalls() != 0 {
		t.Error("Reset did not zero counters")
	}
	in.SetAmount(0)
	runProxyIteration(t, in)
	if in.DelayedCalls() != 0 {
		t.Error("disabled injector delayed calls")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative amount": func() { New(-1) },
		"negative set":    func() { New(0).SetAmount(-1) },
		"jitter >= 1":     func() { New(1, WithJitter(1, 0)) },
		"jitter < 0":      func() { New(1, WithJitter(-0.1, 0)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNoSlackTimeEquationOne(t *testing.T) {
	// Time_NoSlack = Time − num_calls × slack_per_call.
	got := NoSlackTime(10*sim.Second, 5000, 1*sim.Millisecond)
	if got != 5*sim.Second {
		t.Errorf("NoSlackTime = %v, want 5s", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative accounting did not panic")
		}
	}()
	NoSlackTime(1, -1, 0)
}

func TestPenaltyKeepsItsSign(t *testing.T) {
	// 10 s measured, 8 s of it injected, 4 s baseline: the corrected 2 s
	// is below the baseline, so the penalty is negative.
	if got := Penalty(10*sim.Second, 4*sim.Second, 4, 2*sim.Second); got != -0.5 {
		t.Errorf("Penalty = %v, want -0.5", got)
	}
	// With no delayed calls Penalty is the raw runtime ratio minus 1.
	if got, want := Penalty(3*sim.Second, 2*sim.Second, 0, sim.Millisecond), 0.5; got != want {
		t.Errorf("Penalty with zero calls = %v, want %v", got, want)
	}
}

func TestClampPenalty(t *testing.T) {
	for _, p := range []float64{-0.49, -1e-300, math.Inf(-1)} {
		if got := ClampPenalty(p); got != 0 {
			t.Errorf("ClampPenalty(%v) = %v, want 0", p, got)
		}
	}
	for _, p := range []float64{0, 1e-300, 0.0042, 0.61734, math.Inf(1)} {
		if got := ClampPenalty(p); math.Float64bits(got) != math.Float64bits(p) {
			t.Errorf("ClampPenalty(%v) = %v, want it unchanged", p, got)
		}
	}
}
