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
		ctx.LaunchSync(p, gpu.Fixed("sgemm", 1*sim.Millisecond), nil)
		ctx.DeviceSynchronize(p)
		ctx.MemcpyD2H(p, c, 1000)
		elapsed = p.Now().Sub(start)
	})
	env.Run()
	return elapsed
}

func TestInjectorAddsExactlyPerCallSlack(t *testing.T) {
	base := runProxyIteration(t, nil)
	in := New(100 * sim.Microsecond)
	with := runProxyIteration(t, in)
	if in.DelayedCalls() != 5 {
		t.Fatalf("DelayedCalls = %d, want 5 (3 memcpy + launch + sync)", in.DelayedCalls())
	}
	wantExtra := 5 * 100 * sim.Microsecond
	if got := with - base; math.Abs(float64(got-wantExtra)) > 1e-12 {
		t.Errorf("slack added %v, want %v", got, wantExtra)
	}
	if got := in.TotalInjected(); math.Abs(float64(got-wantExtra)) > 1e-12 {
		t.Errorf("TotalInjected = %v, want %v", got, wantExtra)
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
		in := New(100*sim.Microsecond, WithJitter(0.2, 7))
		runProxyIteration(t, in)
		return in.DelayedCalls(), in.TotalInjected()
	}
	c1, t1 := run()
	c2, t2 := run()
	if c1 != c2 || t1 != t2 {
		t.Errorf("jittered runs diverged: %d/%v vs %d/%v", c1, t1, c2, t2)
	}
	// Bounds: 5 calls × 100µs × [0.8, 1.2].
	lo, hi := 5*80*sim.Microsecond, 5*120*sim.Microsecond
	if t1 < lo || t1 > hi {
		t.Errorf("TotalInjected = %v outside [%v, %v]", t1, lo, hi)
	}
	if t1 == 5*100*sim.Microsecond {
		t.Error("jitter had no effect")
	}
}

func TestFromPathUsesOneWayLatency(t *testing.T) {
	p, err := fabric.PathForSlack(42 * sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	in := FromPath(p)
	if in.Amount() != 42*sim.Microsecond {
		t.Errorf("Amount = %v", in.Amount())
	}
	row := FromPath(fabric.Preset(fabric.RowScale, 0))
	if row.Amount() <= 0 {
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
	if in.DelayedCalls() != 0 || in.TotalInjected() != 0 {
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
