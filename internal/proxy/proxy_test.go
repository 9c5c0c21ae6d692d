package proxy

import (
	"errors"
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/sim"
)

func TestPaperSizes(t *testing.T) {
	want := []int{512, 2048, 8192, 32768}
	got := PaperSizes()
	if len(got) != len(want) {
		t.Fatalf("sizes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", got, want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{MatrixSize: 0}); err == nil {
		t.Error("zero matrix size accepted")
	}
	if _, err := Run(Config{MatrixSize: 512, Threads: -1}); err == nil {
		t.Error("negative threads accepted")
	}
	if _, err := Run(Config{MatrixSize: 512, Slack: -1}); err == nil {
		t.Error("negative slack accepted")
	}
	if _, err := Run(Config{MatrixSize: 512, Iters: -1}); err == nil {
		t.Error("negative iteration count accepted")
	}
	// A partly set spec is validated as given, not replaced by the A100
	// default, and fails as a spec before the memory-fit check.
	_, err := Run(Config{MatrixSize: 512, Iters: 1, Spec: gpu.Spec{PeakFLOPS: 1e13}})
	if err == nil || errors.Is(err, ErrDoesNotFit) {
		t.Errorf("PeakFLOPS-only spec err = %v, want a spec error", err)
	}
}

func TestMatrixMemoryGate(t *testing.T) {
	// 3 × 4 GiB × 4 threads > 40 GiB: the paper's excluded configuration.
	_, err := Run(Config{MatrixSize: 1 << 15, Threads: 4, Iters: 1})
	if !errors.Is(err, ErrDoesNotFit) {
		t.Fatalf("2^15 × 4 threads err = %v, want ErrDoesNotFit", err)
	}
	// 2 threads fit (24 GiB).
	if _, err := Run(Config{MatrixSize: 1 << 15, Threads: 2, Iters: 1}); err != nil {
		t.Fatalf("2^15 × 2 threads err = %v", err)
	}
}

func TestIterationSizing(t *testing.T) {
	// 2^9 kernel is far under 30ms ⇒ N clamps at the 1000 ceiling.
	small, err := Run(Config{MatrixSize: 1 << 9, Iters: 0})
	if err != nil {
		t.Fatal(err)
	}
	if small.Iters != MaxIters {
		t.Errorf("2^9 iters = %d, want ceiling %d", small.Iters, MaxIters)
	}
	// 2^15 kernel takes seconds ⇒ N clamps at the 5 floor.
	big, err := Run(Config{MatrixSize: 1 << 15, Iters: 0})
	if err != nil {
		t.Fatal(err)
	}
	if big.Iters != MinIters {
		t.Errorf("2^15 iters = %d, want floor %d", big.Iters, MinIters)
	}
	// 2^13 lands between the clamps, at roughly 30s/kernel.
	mid, err := Run(Config{MatrixSize: 1 << 13, Iters: 0})
	if err != nil {
		t.Fatal(err)
	}
	if mid.Iters <= MinIters || mid.Iters >= MaxIters {
		t.Errorf("2^13 iters = %d, want strictly inside [%d, %d]", mid.Iters, MinIters, MaxIters)
	}
	approx := float64(TargetComputeTime) / float64(mid.KernelTime)
	if math.Abs(float64(mid.Iters)-approx) > 1 {
		t.Errorf("2^13 iters = %d, want ≈ %.1f", mid.Iters, approx)
	}
}

func TestKernelTimeGrowsWithSize(t *testing.T) {
	var prev sim.Duration
	for _, n := range PaperSizes() {
		r, err := Run(Config{MatrixSize: n, Iters: 1})
		if err != nil {
			t.Fatal(err)
		}
		if r.KernelTime <= prev {
			t.Fatalf("kernel time for %d = %v, not larger than %v", n, r.KernelTime, prev)
		}
		prev = r.KernelTime
	}
}

func TestZeroSlackCorrectionIsIdentity(t *testing.T) {
	r, err := Run(Config{MatrixSize: 1 << 11, Iters: 20})
	if err != nil {
		t.Fatal(err)
	}
	if r.CorrectedTime != r.LoopTime {
		t.Errorf("corrected %v != loop %v at zero slack", r.CorrectedTime, r.LoopTime)
	}
	if r.DelayedCalls != 0 {
		t.Errorf("delayed calls = %d at zero slack", r.DelayedCalls)
	}
}

func TestDelayedCallCountsFivePerIteration(t *testing.T) {
	r, err := Run(Config{MatrixSize: 1 << 11, Threads: 2, Iters: 10, Slack: 1 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(CallsPerIteration * 10 * 2)
	if r.DelayedCalls != want {
		t.Errorf("delayed calls = %d, want %d", r.DelayedCalls, want)
	}
}

func TestEquationOneRemovesDirectDelay(t *testing.T) {
	base, err := Run(Config{MatrixSize: 1 << 13, Iters: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Small slack (well under the warm-up regime's bite at this size):
	// the corrected time must land almost exactly on the baseline.
	r, err := Run(Config{MatrixSize: 1 << 13, Iters: 10, Slack: 10 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	direct := sim.Duration(CallsPerIteration*10) * 10 * sim.Microsecond
	if got := r.LoopTime - r.CorrectedTime; math.Abs(float64(got-direct)) > 1e-12 {
		t.Errorf("correction removed %v, want %v", got, direct)
	}
	if p := Penalty(base, r); p < 0 || p > 0.01 {
		t.Errorf("penalty at 10µs on 2^13 = %v, want ≈ 0", p)
	}
}

func TestPenaltyGrowsWithSlack(t *testing.T) {
	base, err := Run(Config{MatrixSize: 1 << 11, Iters: 30})
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = -1
	for _, s := range []sim.Duration{10 * sim.Microsecond, 100 * sim.Microsecond, 1 * sim.Millisecond, 10 * sim.Millisecond} {
		r, err := Run(Config{MatrixSize: 1 << 11, Iters: 30, Slack: s})
		if err != nil {
			t.Fatal(err)
		}
		p := Penalty(base, r)
		if p < prev-1e-9 {
			t.Errorf("penalty decreased: %v at %v (prev %v)", p, s, prev)
		}
		prev = p
	}
	if prev < 0.05 {
		t.Errorf("penalty at 10ms on 2^11 = %v, want substantial (>5%%)", prev)
	}
}

func TestLargerKernelsMoreResilient(t *testing.T) {
	// Paper trend 1: longer-running kernels tolerate more slack.
	s := 1 * sim.Millisecond
	penaltyAt := func(n int) float64 {
		base, err := Run(Config{MatrixSize: n, Iters: 10})
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(Config{MatrixSize: n, Iters: 10, Slack: s})
		if err != nil {
			t.Fatal(err)
		}
		return Penalty(base, r)
	}
	small := penaltyAt(1 << 9)
	big := penaltyAt(1 << 13)
	if big >= small {
		t.Errorf("penalty 2^13 (%v) >= 2^9 (%v) at %v slack", big, small, s)
	}
}

func TestMoreThreadsMoreTolerant(t *testing.T) {
	// Paper trend 2: parallel kernel submission raises slack tolerance.
	s := 200 * sim.Microsecond
	penaltyAt := func(threads int) float64 {
		base, err := Run(Config{MatrixSize: 1 << 9, Threads: threads, Iters: 50})
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(Config{MatrixSize: 1 << 9, Threads: threads, Iters: 50, Slack: s})
		if err != nil {
			t.Fatal(err)
		}
		return Penalty(base, r)
	}
	p1 := penaltyAt(1)
	p8 := penaltyAt(8)
	if p8 >= p1 {
		t.Errorf("8-thread penalty %v >= 1-thread %v at %v slack", p8, p1, s)
	}
}

func TestPaperCalibrationPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("full-length calibration run")
	}
	// §IV-B anchors: 2^13 sees its first substantial penalty (~10%) at
	// 10 ms slack, and 2^15 stays under 1% up to 1 s.
	base13, err := Run(Config{MatrixSize: 1 << 13})
	if err != nil {
		t.Fatal(err)
	}
	r13, err := Run(Config{MatrixSize: 1 << 13, Slack: 10 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	p13 := Penalty(base13, r13)
	if p13 < 0.03 || p13 > 0.25 {
		t.Errorf("2^13 penalty at 10ms = %v, want ≈ 0.10 (paper)", p13)
	}
	r13mid, err := Run(Config{MatrixSize: 1 << 13, Slack: 1 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if p := Penalty(base13, r13mid); p > 0.012 {
		t.Errorf("2^13 penalty at 1ms = %v, want ≤ ~1%% (first effect is at 10ms)", p)
	}

	base15, err := Run(Config{MatrixSize: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	r15, err := Run(Config{MatrixSize: 1 << 15, Slack: 1 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if p := Penalty(base15, r15); p > 0.01 {
		t.Errorf("2^15 penalty at 1s = %v, want < 1%% (paper found none)", p)
	}
}

func TestRecordProducesTrace(t *testing.T) {
	r, err := Run(Config{MatrixSize: 1 << 9, Iters: 5, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Trace == nil {
		t.Fatal("no trace recorded")
	}
	if got := len(r.Trace.Kernels); got != 5 {
		t.Errorf("traced kernels = %d, want 5", got)
	}
	if got := len(r.Trace.Copies); got != 15 {
		t.Errorf("traced copies = %d, want 15 (3 per iteration)", got)
	}
	if got := r.Trace.LinkCrossingCalls(); got != 25 {
		t.Errorf("link-crossing calls = %d, want 25", got)
	}
	if r.MatrixBytes() != 512*512*4 {
		t.Errorf("MatrixBytes = %d", r.MatrixBytes())
	}
}

func TestSweepSkipsOversizedConfigs(t *testing.T) {
	pts, err := Sweep([]int{1 << 15}, []int{2, 4}, []sim.Duration{1 * sim.Microsecond}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Only the 2-thread config fits.
	if len(pts) != 1 || pts[0].Threads != 2 {
		t.Fatalf("sweep points = %+v", pts)
	}
}

func TestSweepGridComplete(t *testing.T) {
	slacks := []sim.Duration{1 * sim.Microsecond, 1 * sim.Millisecond}
	pts, err := Sweep([]int{1 << 9, 1 << 11}, []int{1, 2}, slacks, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2*2*2 {
		t.Fatalf("sweep points = %d, want 8", len(pts))
	}
	for _, pt := range pts {
		if pt.Result.Iters != 5 {
			t.Errorf("point %+v iters = %d", pt, pt.Result.Iters)
		}
		if pt.Penalty < -0.01 {
			t.Errorf("negative penalty %v at %+v", pt.Penalty, pt)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Result {
		r, err := Run(Config{MatrixSize: 1 << 11, Threads: 2, Iters: 10, Slack: 50 * sim.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.LoopTime != b.LoopTime || a.CorrectedTime != b.CorrectedTime || a.KernelTime != b.KernelTime {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestThreadOffsetNoCorrelation(t *testing.T) {
	// §IV-B: "offsetting the time between each thread's launch ... showed
	// no correlation to the slack performance penalty."
	penalty := func(offset sim.Duration) float64 {
		base, err := Run(Config{MatrixSize: 1 << 11, Threads: 4, Iters: 20, ThreadOffset: offset})
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(Config{MatrixSize: 1 << 11, Threads: 4, Iters: 20, ThreadOffset: offset, Slack: 1 * sim.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return Penalty(base, r)
	}
	p0 := penalty(0)
	p1 := penalty(500 * sim.Microsecond)
	if diff := p1 - p0; diff > 0.03 || diff < -0.03 {
		t.Errorf("thread offset changed penalty: %v vs %v", p0, p1)
	}
}

func TestIterSpacingNoCorrelation(t *testing.T) {
	// §IV-B: "increasing the spacing between iterations of the main
	// compute loop ... showed no correlation." The invariant is the
	// absolute starvation cost (corrected − baseline): spacing shifts
	// both runs' idle gaps equally, so the slack-attributable extra time
	// stays put even though the baseline itself slows down.
	extra := func(spacing sim.Duration) sim.Duration {
		base, err := Run(Config{MatrixSize: 1 << 11, Iters: 20, IterSpacing: spacing})
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(Config{MatrixSize: 1 << 11, Iters: 20, IterSpacing: spacing, Slack: 1 * sim.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return r.CorrectedTime - base.LoopTime
	}
	e0 := extra(0)
	e1 := extra(2 * sim.Millisecond)
	if e0 <= 0 {
		t.Fatalf("no starvation cost at 1ms slack: %v", e0)
	}
	rel := float64(e1-e0) / float64(e0)
	if rel > 0.1 || rel < -0.1 {
		t.Errorf("iteration spacing changed the starvation cost: %v vs %v", e0, e1)
	}
}

func TestNegativeOffsetSpacingRejected(t *testing.T) {
	if _, err := Run(Config{MatrixSize: 512, ThreadOffset: -1}); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := Run(Config{MatrixSize: 512, IterSpacing: -1}); err == nil {
		t.Error("negative spacing accepted")
	}
}
