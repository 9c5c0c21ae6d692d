package trace

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/sim"
)

// traceWithPattern builds a trace from explicit kernel launches with a
// known timing pattern: k1 at [0,1ms], idle, k2 at [3ms,4ms].
func traceWithPattern(t *testing.T) *Trace {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	dev, _ := gpu.NewDevice(env, testSpec())
	ctx := cuda.NewContext(dev, cuda.Config{CallOverhead: -1})
	rec := NewRecorder("pattern")
	dev.Listen(rec)
	rec.Start(env)
	env.Spawn("host", func(p *sim.Proc) {
		ctx.LaunchSync(p, gpu.Fixed("k1", 1*sim.Millisecond), nil)
		p.Sleep(2 * sim.Millisecond)
		ctx.LaunchSync(p, gpu.Fixed("k2", 1*sim.Millisecond), nil)
	})
	env.Run()
	rec.Stop(env)
	return rec.Trace()
}

func TestComputeSpansMerged(t *testing.T) {
	tr := traceWithPattern(t)
	spans := tr.ComputeSpans()
	if len(spans) != 2 {
		t.Fatalf("spans = %v", spans)
	}
	if math.Abs(float64(spans[0].Duration()-1*sim.Millisecond)) > 1e-12 {
		t.Errorf("span 0 = %v", spans[0])
	}
}

func TestComputeGapsBetweenKernels(t *testing.T) {
	tr := traceWithPattern(t)
	gaps := tr.ComputeGaps()
	// One 2ms gap between the kernels; no leading gap (k1 starts at 0)
	// and no trailing gap (recording stops at k2's end).
	if len(gaps) != 1 {
		t.Fatalf("gaps = %v", gaps)
	}
	if math.Abs(float64(gaps[0].Duration()-2*sim.Millisecond)) > 1e-12 {
		t.Errorf("gap = %v, want 2ms", gaps[0].Duration())
	}
}

func TestUtilizationEmptyTrace(t *testing.T) {
	tr := &Trace{}
	if len(tr.ComputeGaps()) != 0 {
		t.Error("gaps on empty trace")
	}
}

func TestGapsGrowUnderSlackInTraces(t *testing.T) {
	// End-to-end: the mechanism the model reads off traces — injected
	// slack widens compute gaps.
	run := func(slack sim.Duration) sim.Duration {
		env := sim.NewEnv()
		defer env.Close()
		dev, _ := gpu.NewDevice(env, testSpec())
		ctx := cuda.NewContext(dev, cuda.Config{CallOverhead: -1})
		rec := NewRecorder("gaps")
		dev.Listen(rec)
		rec.Start(env)
		env.Spawn("host", func(p *sim.Proc) {
			for i := 0; i < 5; i++ {
				ctx.LaunchSync(p, gpu.Fixed("k", 1*sim.Millisecond), nil)
				p.Sleep(slack)
			}
		})
		env.Run()
		rec.Stop(env)
		var total sim.Duration
		for _, g := range rec.Trace().ComputeGaps() {
			total += g.Duration()
		}
		return total
	}
	if g0, g1 := run(0), run(500*sim.Microsecond); g1 <= g0 {
		t.Errorf("gaps did not grow under slack: %v vs %v", g0, g1)
	}
}

// Property: busy spans plus idle gaps exactly partition the recorded
// runtime for any synthetic kernel layout.
func TestPropertySpansAndGapsPartitionRuntime(t *testing.T) {
	f := func(raw []uint8) bool {
		tr := &Trace{Started: 0}
		cursor := sim.Time(0)
		for _, r := range raw {
			gap := sim.Duration(r%7) * sim.Millisecond
			dur := sim.Duration(r%5+1) * sim.Millisecond
			start := cursor.Add(gap)
			end := start.Add(dur)
			tr.Kernels = append(tr.Kernels, gpu.KernelEvent{Name: "k", Start: start, End: end})
			cursor = end
		}
		tr.Ended = cursor.Add(sim.Duration(len(raw)%3) * sim.Millisecond)
		var busy, idle sim.Duration
		for _, s := range tr.ComputeSpans() {
			busy += s.Duration()
		}
		for _, g := range tr.ComputeGaps() {
			idle += g.Duration()
		}
		diff := float64(busy + idle - tr.Runtime())
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
