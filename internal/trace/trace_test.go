package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/cuda"
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

// record runs fn on a traced context and returns the trace.
func record(t *testing.T, fn func(p *sim.Proc, ctx *cuda.Context)) *Trace {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	dev, err := gpu.NewDevice(env, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx := cuda.NewContext(dev, cuda.Config{CallOverhead: -1})
	rec := NewRecorder("test")
	dev.Listen(rec)
	ctx.Interpose(rec)
	rec.Start(env)
	env.Spawn("host", func(p *sim.Proc) { fn(p, ctx) })
	env.Run()
	rec.Stop(env)
	return rec.Trace()
}

func TestRecorderCapturesKernelsCopiesCalls(t *testing.T) {
	tr := record(t, func(p *sim.Proc, ctx *cuda.Context) {
		ptr, _ := ctx.Malloc(p, 1<<20)
		ctx.MemcpyH2D(p, ptr, 1<<20)
		ctx.LaunchSync(p, gpu.Fixed("sgemm", 2*sim.Millisecond), nil)
		ctx.MemcpyD2H(p, ptr, 1<<20)
	})
	if len(tr.Kernels) != 1 {
		t.Fatalf("kernels = %d, want 1", len(tr.Kernels))
	}
	if len(tr.Copies) != 2 {
		t.Fatalf("copies = %d, want 2", len(tr.Copies))
	}
	if len(tr.Calls) != 4 {
		t.Fatalf("calls = %d, want 4 (malloc + 2 memcpy + launch)", len(tr.Calls))
	}
	if tr.Kernels[0].Name != "sgemm" {
		t.Errorf("kernel name = %q", tr.Kernels[0].Name)
	}
	if got := tr.Kernels[0].Duration(); math.Abs(float64(got-2*sim.Millisecond)) > 1e-12 {
		t.Errorf("kernel duration = %v", got)
	}
}

func TestRecorderRespectsStartStop(t *testing.T) {
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	dev, _ := gpu.NewDevice(env, testSpec())
	ctx := cuda.NewContext(dev, cuda.Config{CallOverhead: -1})
	rec := NewRecorder("gated")
	dev.Listen(rec)
	ctx.Interpose(rec)
	env.Spawn("host", func(p *sim.Proc) {
		// Not recording yet: warm-up work must be excluded.
		ctx.LaunchSync(p, gpu.Fixed("warmup", 1*sim.Millisecond), nil)
		rec.Start(p.Env())
		ctx.LaunchSync(p, gpu.Fixed("measured", 1*sim.Millisecond), nil)
		rec.Stop(p.Env())
		ctx.LaunchSync(p, gpu.Fixed("cooldown", 1*sim.Millisecond), nil)
	})
	env.Run()
	tr := rec.Trace()
	if len(tr.Kernels) != 1 || tr.Kernels[0].Name != "measured" {
		t.Fatalf("recorded kernels: %v", tr.Kernels)
	}
	if got := tr.Runtime(); math.Abs(float64(got-1*sim.Millisecond)) > 1e-9 {
		t.Errorf("runtime = %v, want ~1ms", got)
	}
}

func TestKernelDurationAnalyses(t *testing.T) {
	tr := record(t, func(p *sim.Proc, ctx *cuda.Context) {
		for i := 0; i < 3; i++ {
			ctx.LaunchSync(p, gpu.Fixed("big", 10*sim.Millisecond), nil)
		}
		for i := 0; i < 5; i++ {
			ctx.LaunchSync(p, gpu.Fixed("small", 1*sim.Millisecond), nil)
		}
	})
	ds := tr.KernelDurations()
	if len(ds) != 8 {
		t.Fatalf("durations = %d", len(ds))
	}
	byName := tr.KernelDurationsByName()
	if len(byName["big"]) != 3 || len(byName["small"]) != 5 {
		t.Fatalf("byName = %v", byName)
	}
	top := tr.TopKernels(1)
	if len(top) != 1 || top[0].Name != "big" || top[0].Count != 3 {
		t.Fatalf("TopKernels(1) = %+v", top)
	}
	all := tr.TopKernels(0)
	if len(all) != 2 || all[0].Name != "big" || all[1].Name != "small" {
		t.Fatalf("TopKernels(0) = %+v", all)
	}
	if got := tr.KernelTime(); math.Abs(float64(got-35*sim.Millisecond)) > 1e-9 {
		t.Errorf("KernelTime = %v, want 35ms", got)
	}
}

func TestMemcpyAnalyses(t *testing.T) {
	tr := record(t, func(p *sim.Proc, ctx *cuda.Context) {
		ptr, _ := ctx.Malloc(p, 4<<20)
		ctx.MemcpyH2D(p, ptr, 1<<20)
		ctx.MemcpyH2D(p, ptr, 2<<20)
		ctx.MemcpyD2H(p, ptr, 4<<20)
	})
	if got := tr.MemcpySizes(); len(got) != 3 {
		t.Fatalf("all sizes = %v", got)
	}
	h2d := tr.MemcpySizes(gpu.H2D)
	if len(h2d) != 2 || h2d[0] != float64(1<<20) || h2d[1] != float64(2<<20) {
		t.Fatalf("h2d sizes = %v", h2d)
	}
	d2h := tr.MemcpySizes(gpu.D2H)
	if len(d2h) != 1 || d2h[0] != float64(4<<20) {
		t.Fatalf("d2h sizes = %v", d2h)
	}
	if tr.MemcpyTime() <= 0 {
		t.Error("MemcpyTime not positive")
	}
}

func TestRuntimeFractionsSumSensibly(t *testing.T) {
	// Kernel 8ms + copies ~2ms over a 10ms recording: fractions must
	// reflect the split and sum to ~1 with no host-only time.
	tr := record(t, func(p *sim.Proc, ctx *cuda.Context) {
		ptr, _ := ctx.Malloc(p, 2_000_000)
		ctx.MemcpyH2D(p, ptr, 2_000_000) // 2ms at 1 GB/s
		ctx.LaunchSync(p, gpu.Fixed("k", 8*sim.Millisecond), nil)
	})
	kf, mf := tr.KernelFraction(), tr.MemcpyFraction()
	if math.Abs(kf-0.8) > 0.01 {
		t.Errorf("KernelFraction = %v, want ~0.8", kf)
	}
	if math.Abs(mf-0.2) > 0.01 {
		t.Errorf("MemcpyFraction = %v, want ~0.2", mf)
	}
}

func TestFractionsZeroOnEmptyTrace(t *testing.T) {
	tr := &Trace{}
	if tr.KernelFraction() != 0 || tr.MemcpyFraction() != 0 {
		t.Error("fractions on empty trace not zero")
	}
}

func TestCallCountsAndLinkCrossing(t *testing.T) {
	tr := record(t, func(p *sim.Proc, ctx *cuda.Context) {
		a, _ := ctx.Malloc(p, 1000)
		b, _ := ctx.Malloc(p, 1000)
		c, _ := ctx.Malloc(p, 1000)
		// One proxy iteration: 3 transfers + launch + sync = 5 crossing.
		ctx.MemcpyH2D(p, a, 1000)
		ctx.MemcpyH2D(p, b, 1000)
		ctx.LaunchSync(p, gpu.Fixed("sgemm", 1*sim.Millisecond), nil)
		ctx.DeviceSynchronize(p)
		ctx.MemcpyD2H(p, c, 1000)
	})
	if got := tr.LinkCrossingCalls(); got != 5 {
		t.Errorf("LinkCrossingCalls = %d, want 5", got)
	}
	if got := len(tr.Calls); got != 8 {
		t.Errorf("total calls = %d, want 8", got)
	}
}

func TestInterleavedThreadsCallTimesCorrect(t *testing.T) {
	// Two host threads with in-flight synchronous calls: each recorded
	// call's duration must match its own transfer, not its neighbour's.
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	dev, _ := gpu.NewDevice(env, testSpec())
	ctx := cuda.NewContext(dev, cuda.Config{CallOverhead: -1})
	rec := NewRecorder("threads")
	dev.Listen(rec)
	ctx.Interpose(rec)
	rec.Start(env)
	for i := 0; i < 2; i++ {
		env.Spawn("thread", func(p *sim.Proc) {
			ptr, _ := ctx.Malloc(p, 1_000_000)
			ctx.MemcpyH2D(p, ptr, 1_000_000) // 1ms each, overlapping engines
		})
	}
	env.Run()
	rec.Stop(env)
	tr := rec.Trace()
	for _, c := range tr.Calls {
		if c.Class != cuda.ClassMemcpyH2D {
			continue
		}
		if got := c.End.Sub(c.Begin); got < 1*sim.Millisecond-sim.Nanosecond {
			t.Errorf("call %s duration %v, want >= 1ms", c.Name, got)
		}
	}
}

func TestStreams(t *testing.T) {
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	dev, _ := gpu.NewDevice(env, testSpec())
	ctx := cuda.NewContext(dev, cuda.Config{CallOverhead: -1})
	rec := NewRecorder("streams")
	dev.Listen(rec)
	rec.Start(env)
	env.Spawn("host", func(p *sim.Proc) {
		s1 := ctx.StreamCreate(p)
		s2 := ctx.StreamCreate(p)
		ctx.Launch(p, gpu.Fixed("a", 1*sim.Millisecond), s1)
		ctx.Launch(p, gpu.Fixed("b", 1*sim.Millisecond), s2)
		ctx.DeviceSynchronize(p)
	})
	env.Run()
	rec.Stop(env)
	if got := rec.Trace().Streams(); got != 2 {
		t.Errorf("Streams = %d, want 2", got)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := record(t, func(p *sim.Proc, ctx *cuda.Context) {
		ptr, _ := ctx.Malloc(p, 1<<20)
		ctx.MemcpyH2D(p, ptr, 1<<20)
		ctx.LaunchSync(p, gpu.Fixed("sgemm", 1*sim.Millisecond), nil)
	})
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	// 3 API calls + 1 kernel + 1 copy.
	if len(events) != 5 {
		t.Fatalf("events = %d, want 5", len(events))
	}
	kinds := map[string]int{}
	for _, ev := range events {
		if ev["ph"] != "X" {
			t.Errorf("event phase = %v, want X", ev["ph"])
		}
		kinds[ev["cat"].(string)]++
		if ev["dur"].(float64) < 0 {
			t.Errorf("negative duration: %+v", ev)
		}
	}
	if kinds["kernel"] != 1 || kinds["memcpy"] != 1 {
		t.Errorf("categories = %v", kinds)
	}
}
