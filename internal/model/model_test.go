package model

import (
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/proxy"
	"repro/internal/sim"
)

// syntheticSweep builds a sweep result by hand: penalty rises linearly in
// log-slack, small sizes penalized more, more threads penalized less.
func syntheticSweep() []proxy.SweepPoint {
	sizes := []int{512, 2048, 8192, 32768}
	kernelTimes := map[int]sim.Duration{
		512:   100 * sim.Microsecond,
		2048:  3 * sim.Millisecond,
		8192:  140 * sim.Millisecond,
		32768: 8 * sim.Second,
	}
	slacks := []sim.Duration{1 * sim.Microsecond, 100 * sim.Microsecond, 10 * sim.Millisecond}
	var pts []proxy.SweepPoint
	for si, size := range sizes {
		for _, th := range []int{1, 4} {
			for li, sl := range slacks {
				pen := float64(li) * 0.1 / float64(si+1) / float64(th)
				pts = append(pts, proxy.SweepPoint{
					MatrixSize: size,
					Threads:    th,
					Slack:      sl,
					Penalty:    pen,
					Result:     proxy.Result{KernelTime: kernelTimes[size]},
				})
			}
		}
	}
	return pts
}

func TestBuildSurfaceValidation(t *testing.T) {
	if _, err := BuildSurface(nil); err == nil {
		t.Error("empty sweep accepted")
	}
	bad := []proxy.SweepPoint{{MatrixSize: 512, Threads: 1, Slack: 0}}
	if _, err := BuildSurface(bad); err == nil {
		t.Error("zero-slack point accepted")
	}
}

func TestSurfaceLookup(t *testing.T) {
	s, err := BuildSurface(syntheticSweep())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.sizes; len(got) != 4 || got[0] != 512 || got[3] != 32768 {
		t.Fatalf("sizes = %v", got)
	}
	if kt, ok := s.kernelTimes[2048]; !ok || kt != 3*sim.Millisecond {
		t.Errorf("KernelTime(2048) = %v, %v", kt, ok)
	}
	// Exact knot.
	p, err := s.Penalty(512, 1, 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.2) > 1e-12 {
		t.Errorf("penalty = %v, want 0.2", p)
	}
	// Clamps: below the smallest tested slack → the smallest-slack value.
	p, _ = s.Penalty(512, 1, 1*sim.Nanosecond)
	if p != 0 {
		t.Errorf("clamped low penalty = %v", p)
	}
	// Unknown size errors.
	if _, err := s.Penalty(1024, 1, 1*sim.Microsecond); err == nil {
		t.Error("unknown size accepted")
	}
}

func TestSurfaceThreadSnapping(t *testing.T) {
	s, _ := BuildSurface(syntheticSweep()) // threads 1 and 4 tested
	p1, _ := s.Penalty(512, 1, 10*sim.Millisecond)
	p4, _ := s.Penalty(512, 4, 10*sim.Millisecond)
	// Requesting 3 threads snaps down to 1 (pessimistic).
	p3, _ := s.Penalty(512, 3, 10*sim.Millisecond)
	if p3 != p1 {
		t.Errorf("3-thread penalty %v, want 1-thread value %v", p3, p1)
	}
	// Requesting 8 snaps down to 4.
	p8, _ := s.Penalty(512, 8, 10*sim.Millisecond)
	if p8 != p4 {
		t.Errorf("8-thread penalty %v, want 4-thread value %v", p8, p4)
	}
	if p4 >= p1 {
		t.Errorf("more threads should tolerate more: p4=%v p1=%v", p4, p1)
	}
}

func TestBinKernelDurations(t *testing.T) {
	s, _ := BuildSurface(syntheticSweep())
	// Durations: one below all (→512/512), one between 512 and 2048
	// (→512 lower, 2048 upper), one exactly at 2048's kernel time, one
	// above all (→32768/32768).
	durs := []float64{
		10e-6,
		1e-3,
		float64(3 * sim.Millisecond),
		20,
	}
	b := s.BinKernelDurations(durs)
	if b.Total != 4 {
		t.Fatalf("total = %d", b.Total)
	}
	if b.RoundedDown[512] != 2 || b.RoundedUp[512] != 1 {
		t.Errorf("512 bins: lower=%d upper=%d", b.RoundedDown[512], b.RoundedUp[512])
	}
	if b.RoundedDown[2048] != 1 || b.RoundedUp[2048] != 2 {
		t.Errorf("2048 bins: lower=%d upper=%d", b.RoundedDown[2048], b.RoundedUp[2048])
	}
	if b.RoundedDown[32768] != 1 || b.RoundedUp[32768] != 1 {
		t.Errorf("32768 bins: lower=%d upper=%d", b.RoundedDown[32768], b.RoundedUp[32768])
	}
}

func TestBinTransferSizesTableIIIThresholds(t *testing.T) {
	s, _ := BuildSurface(syntheticSweep())
	// Table III thresholds: 1, 16, 256, 4096 MiB, the matrix footprints
	// BinTransferSizes bins by.
	want := []float64{1, 16, 256, 4096}
	for i := range want {
		if th := float64(gpu.MatrixBytes(s.sizes[i])) / (1 << 20); th != want[i] {
			t.Fatalf("threshold %d = %v MiB, want %v", i, th, want[i])
		}
	}
	bytes := []float64{
		0.5 * (1 << 20), // ≤ 1 MiB
		10 * (1 << 20),  // (1, 16) and outside the 25% band of both
		600 * (1 << 20), // (256, 4096), outside both bands
		8 * (1 << 30),   // > 4096 MiB
	}
	b := s.BinTransferSizes(bytes)
	if b.RoundedDown[512] != 2 || b.RoundedUp[512] != 1 {
		t.Errorf("512: %d/%d", b.RoundedDown[512], b.RoundedUp[512])
	}
	if b.RoundedDown[512]+b.RoundedDown[2048]+b.RoundedDown[8192]+b.RoundedDown[32768] != 4 {
		t.Errorf("lower counts don't sum: %v", b.RoundedDown)
	}
	if b.RoundedUp[32768] != 2 { // the 300MiB (rounded up) and the 8GiB
		t.Errorf("32768 upper = %d", b.RoundedUp[32768])
	}
}

func TestPredictCombinesFractions(t *testing.T) {
	s, _ := BuildSurface(syntheticSweep())
	app := AppProfile{
		Label:           "synthetic",
		KernelFraction:  0.5,
		MemcpyFraction:  0.25,
		KernelDurations: []float64{10e-6}, // → size 512 both ways
		TransferBytes:   []float64{1024},  // → size 512 both ways
		Parallelism:     1,
	}
	pred, err := s.Predict(app, 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// Penalty(512, 1, 10ms) = 0.2 for both components.
	want := 0.5*0.2 + 0.25*0.2
	if math.Abs(pred.Lower-want) > 1e-12 || math.Abs(pred.Upper-want) > 1e-12 {
		t.Errorf("prediction = %+v, want %v", pred, want)
	}
}

func TestPredictLowerNeverExceedsUpper(t *testing.T) {
	s, _ := BuildSurface(syntheticSweep())
	app := AppProfile{
		KernelFraction:  0.4,
		MemcpyFraction:  0.2,
		KernelDurations: []float64{5e-5, 1e-3, 0.05, 1, 30},
		TransferBytes:   []float64{1 << 18, 1 << 22, 1 << 26, 1 << 31},
		Parallelism:     4,
	}
	preds, err := s.PredictSweep(app, PaperSlacks())
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 5 {
		t.Fatalf("predictions = %d", len(preds))
	}
	for _, p := range preds {
		if p.Lower > p.Upper+1e-12 {
			t.Errorf("lower %v > upper %v at %v", p.Lower, p.Upper, p.Slack)
		}
		if p.Lower < 0 {
			t.Errorf("negative lower bound %v", p.Lower)
		}
	}
	// Smaller matrix-size equivalents penalize harder, so the upper bound
	// must be monotone in slack for this synthetic surface.
	for i := 1; i < len(preds); i++ {
		if preds[i].Upper < preds[i-1].Upper-1e-12 {
			t.Errorf("upper bound not monotone: %v then %v", preds[i-1].Upper, preds[i].Upper)
		}
	}
}

func TestPredictRejectsNegativeSlack(t *testing.T) {
	s, _ := BuildSurface(syntheticSweep())
	if _, err := s.Predict(AppProfile{}, -1); err == nil {
		t.Error("negative slack accepted")
	}
}

func TestEmptyProfilePredictsZero(t *testing.T) {
	s, _ := BuildSurface(syntheticSweep())
	pred, err := s.Predict(AppProfile{KernelFraction: 0.5, MemcpyFraction: 0.5}, 1*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Lower != 0 || pred.Upper != 0 {
		t.Errorf("empty profile prediction = %+v", pred)
	}
}

// TestSelfValidation reruns §IV-D's check: profile the proxy itself, feed
// the profile through the model, and compare the predicted penalty against
// the measured one. The lower bound must track the measurement closely
// (the paper reports within 0.005 for single-threaded runs) and the upper
// bound must be pessimistic.
func TestSelfValidation(t *testing.T) {
	sizes := proxy.PaperSizes()[:3] // 2^9, 2^11, 2^13 (2^15 is slow)
	slacks := []sim.Duration{
		1 * sim.Microsecond, 10 * sim.Microsecond, 100 * sim.Microsecond,
		1 * sim.Millisecond, 10 * sim.Millisecond,
	}
	pts, err := proxy.Sweep(sizes, []int{1}, slacks, 20)
	if err != nil {
		t.Fatal(err)
	}
	surface, err := BuildSurface(pts)
	if err != nil {
		t.Fatal(err)
	}

	// Profile a single-threaded 2^11 proxy run and predict its own
	// penalty at 1 ms of slack.
	rec, err := proxy.Run(proxy.Config{MatrixSize: 2048, Threads: 1, Iters: 20, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	app := ProfileFromTrace(rec.Trace, 1)
	if app.KernelFraction <= 0 || app.MemcpyFraction <= 0 {
		t.Fatalf("degenerate profile: %+v", app)
	}

	base, err := proxy.Run(proxy.Config{MatrixSize: 2048, Threads: 1, Iters: 20})
	if err != nil {
		t.Fatal(err)
	}
	slackRun, err := proxy.Run(proxy.Config{MatrixSize: 2048, Threads: 1, Iters: 20, Slack: 1 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	measured := proxy.Penalty(base, slackRun)

	pred, err := surface.Predict(app, 1*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// The proxy's kernels sit exactly at a tested size, so lower must be
	// close to the measurement; allow a small tolerance for the kernel/
	// memcpy fraction approximation.
	if math.Abs(pred.Lower-measured) > 0.05 {
		t.Errorf("self-validation lower = %v, measured = %v", pred.Lower, measured)
	}
	if pred.Upper < pred.Lower {
		t.Errorf("upper %v < lower %v", pred.Upper, pred.Lower)
	}
}

func TestMatrixBytesThresholdsMatchGPUPackage(t *testing.T) {
	// The binning must agree with the footprint arithmetic used elsewhere.
	if gpu.MatrixBytes(512) != 1<<20 {
		t.Error("512 matrix not 1 MiB")
	}
	if gpu.MatrixBytes(32768) != 4<<30 {
		t.Error("32768 matrix not 4 GiB")
	}
}

func TestAvailabilityAdjustedPenalty(t *testing.T) {
	const base = 10 * sim.Second
	cases := []struct {
		name     string
		measured sim.Duration
		calls    int64
		perCall  sim.Duration
		baseline sim.Duration
		want     float64
	}{
		{"fault-free reduces to Equation 1", 12 * sim.Second, 1000, 2 * sim.Millisecond, base, 0},
		{"availability cost stays inside", 15 * sim.Second, 0, 0, base, 0.5},
		{"slack removed before the ratio", 16 * sim.Second, 2000, sim.Millisecond, base, 0.4},
		{"clamped at zero", 9 * sim.Second, 0, 0, base, 0},
		{"full outage dwarfs the baseline", 1000 * base, 0, 0, base, 999},
		{"zero availability: no baseline", 12 * sim.Second, 0, 0, 0, math.Inf(1)},
		{"negative baseline guards too", 12 * sim.Second, 0, 0, -base, math.Inf(1)},
	}
	for _, c := range cases {
		got := AvailabilityAdjustedPenalty(c.measured, c.calls, c.perCall, c.baseline)
		if math.IsInf(c.want, 1) {
			if !math.IsInf(got, 1) {
				t.Errorf("%s: got %g, want +Inf", c.name, got)
			}
			continue
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: got %g, want %g", c.name, got, c.want)
		}
	}
	// The range contract: never negative, never NaN.
	for _, m := range []sim.Duration{0, base, 100 * base} {
		p := AvailabilityAdjustedPenalty(m, 0, 0, base)
		if p < 0 || math.IsNaN(p) {
			t.Errorf("penalty(%v) = %g outside [0, +Inf]", m, p)
		}
	}
}
