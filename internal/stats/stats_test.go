package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestSumMean(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Sum(xs); got != 10 {
		t.Errorf("Sum = %v", got)
	}
	if got := Mean(xs); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if Sum(nil) != 0 {
		t.Error("Sum(nil) should be 0")
	}
}

func TestVarianceStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 32.0/7, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
	if got := Stddev(xs); !almostEqual(got, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("Stddev = %v", got)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of one sample should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 || Max(xs) != 5 {
		t.Errorf("Min=%v Max=%v", Min(xs), Max(xs))
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("Min/Max of empty should be NaN")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40}, {40, 29},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{7}, 50); got != 7 {
		t.Errorf("Percentile single = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile(nil) should be NaN")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentileOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for p=101")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("Summary = %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Errorf("quartiles = %v, %v", s.Q1, s.Q3)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestLinearEdges(t *testing.T) {
	e := LinearEdges(0, 10, 5)
	if len(e) != 6 || e[0] != 0 || e[5] != 10 || e[2] != 4 {
		t.Errorf("LinearEdges = %v", e)
	}
}

func TestBinByThresholds(t *testing.T) {
	// Mirrors Table III: MiB thresholds 1, 16, 256, 4096 plus overflow.
	xs := []float64{0.5, 1, 2, 16, 100, 256, 1000, 5000}
	counts := BinByThresholds(xs, []float64{1, 16, 256, 4096})
	want := []int{2, 2, 2, 1, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func TestBinByThresholdsPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unsorted thresholds")
		}
	}()
	BinByThresholds(nil, []float64{2, 1})
}

func TestKDEIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	grid := LinearEdges(-6, 6, 600)
	dens := KDE(xs, grid, 0)
	integral := 0.0
	for i := 1; i < len(grid); i++ {
		integral += (dens[i] + dens[i-1]) / 2 * (grid[i] - grid[i-1])
	}
	if !almostEqual(integral, 1, 0.02) {
		t.Errorf("KDE integral = %v, want ~1", integral)
	}
}

func TestKDEPeakNearMode(t *testing.T) {
	xs := []float64{5, 5.1, 4.9, 5.05, 4.95, 5}
	grid := LinearEdges(0, 10, 100)
	dens := KDE(xs, grid, 0)
	best := 0
	for i := range dens {
		if dens[i] > dens[best] {
			best = i
		}
	}
	if math.Abs(grid[best]-5) > 0.3 {
		t.Errorf("KDE peak at %v, want near 5", grid[best])
	}
}

func TestKDEEmptyInput(t *testing.T) {
	dens := KDE(nil, []float64{0, 1}, 0)
	if dens[0] != 0 || dens[1] != 0 {
		t.Errorf("KDE(nil) = %v", dens)
	}
}

func TestViolinLogScale(t *testing.T) {
	// Durations spanning orders of magnitude.
	xs := []float64{1e-6, 2e-6, 1e-5, 1e-4, 1e-4, 2e-4}
	v := NewViolin(xs, 50, true)
	if len(v.Grid) != 50 || len(v.Density) != 50 {
		t.Errorf("grid/density lengths %d/%d", len(v.Grid), len(v.Density))
	}
	if !v.LogScale {
		t.Error("LogScale not set")
	}
	if v.Render(30) == "" {
		t.Error("empty Render")
	}
}

func TestViolinDegenerateSpike(t *testing.T) {
	v := NewViolin([]float64{3, 3, 3}, 50, false)
	if len(v.Grid) != 1 || v.Density[0] != 1 {
		t.Errorf("degenerate violin = %+v", v)
	}
}

func TestViolinEmpty(t *testing.T) {
	v := NewViolin(nil, 50, false)
	if len(v.Grid) != 0 {
		t.Errorf("empty violin has grid %v", v.Grid)
	}
	if v.Render(10) != "(empty)\n" {
		t.Errorf("Render = %q", v.Render(10))
	}
}

func TestInterpolatorLinear(t *testing.T) {
	in, err := NewInterpolator([]float64{0, 10}, []float64{0, 100}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.At(5); got != 50 {
		t.Errorf("At(5) = %v", got)
	}
	if got := in.At(-1); got != 0 {
		t.Errorf("At(-1) = %v (want clamp)", got)
	}
	if got := in.At(20); got != 100 {
		t.Errorf("At(20) = %v (want clamp)", got)
	}
}

func TestInterpolatorSortsKnots(t *testing.T) {
	in, err := NewInterpolator([]float64{10, 0}, []float64{100, 0}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.At(5); got != 50 {
		t.Errorf("At(5) = %v", got)
	}
}

func TestInterpolatorLogX(t *testing.T) {
	// y linear in log(x): y = log10(x)
	in, err := NewInterpolator([]float64{1, 100}, []float64{0, 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := in.At(10); !almostEqual(got, 1, 1e-12) {
		t.Errorf("At(10) = %v, want 1", got)
	}
	if got := in.At(0); got != 0 {
		t.Errorf("At(0) = %v (want low clamp)", got)
	}
}

func TestInterpolatorErrors(t *testing.T) {
	if _, err := NewInterpolator([]float64{1}, []float64{1, 2}, false); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewInterpolator(nil, nil, false); err == nil {
		t.Error("empty knots accepted")
	}
	if _, err := NewInterpolator([]float64{1, 1}, []float64{1, 2}, false); err == nil {
		t.Error("duplicate knots accepted")
	}
	if _, err := NewInterpolator([]float64{-1, 1}, []float64{1, 2}, true); err == nil {
		t.Error("non-positive x accepted for logX")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []float64, p1, p2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		a, b := float64(p1%101), float64(p2%101)
		if a > b {
			a, b = b, a
		}
		pa, pb := Percentile(raw, a), Percentile(raw, b)
		return pa <= pb && pa >= Min(raw) && pb <= Max(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: BinByThresholds conserves counts.
func TestPropertyBinConservation(t *testing.T) {
	f := func(raw []float64) bool {
		clean := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) {
				clean = append(clean, x)
			}
		}
		counts := BinByThresholds(clean, []float64{1, 16, 256, 4096})
		total := 0
		for _, c := range counts {
			total += c
		}
		return total == len(clean)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: interpolation at a knot returns the knot value; between knots
// stays within the [min, max] of the two bracketing values.
func TestPropertyInterpolatorWithinBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 2
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i) + rng.Float64()*0.5
			ys[i] = rng.Float64() * 100
		}
		in, err := NewInterpolator(xs, ys, false)
		if err != nil {
			return false
		}
		for i := range xs {
			if !almostEqual(in.At(xs[i]), ys[i], 1e-9) {
				return false
			}
		}
		for k := 0; k < 20; k++ {
			x := xs[0] + rng.Float64()*(xs[n-1]-xs[0])
			y := in.At(x)
			if y < Min(ys)-1e-9 || y > Max(ys)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestApproxEqual(t *testing.T) {
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 0, true},
		{0, 0, 0, true},
		{1, 1 + 1e-12, 1e-9, true},             // relative agreement at scale 1
		{1e12, 1e12 * (1 + 1e-12), 1e-9, true}, // relative agreement at large scale
		{1e12, 1.01e12, 1e-9, false},
		{0, 1e-12, 1e-9, true}, // absolute tolerance near zero
		{0, 1e-3, 1e-9, false},
		{math.NaN(), math.NaN(), 1, false},
		{math.NaN(), 0, 1, false},
		{math.Inf(1), math.Inf(1), 1e-9, true},
		{math.Inf(1), math.Inf(-1), 1e-9, false},
		{math.Inf(1), 1e300, 1e-9, false},
	}
	for _, c := range cases {
		if got := ApproxEqual(c.a, c.b, c.tol); got != c.want {
			t.Errorf("ApproxEqual(%g, %g, %g) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}

func TestApproxEqualNegativeTolerancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative tolerance")
		}
	}()
	ApproxEqual(1, 1, -1e-9)
}
