package stats

import (
	"math"
	"testing"
)

func TestQuantilesHandComputed(t *testing.T) {
	// Unsorted on purpose: Quantiles must sort a copy.
	xs := []float64{40, 10, 30, 20}
	qs := []float64{0, 0.25, 0.5, 0.75, 1}
	// Linear interpolation between order statistics of {10,20,30,40}:
	// rank = q*(n-1) = q*3.
	want := []float64{10, 17.5, 25, 32.5, 40}
	got := Quantiles(xs, qs)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("Quantiles[%d] (q=%v) = %v, want %v", i, qs[i], got[i], want[i])
		}
	}
	// The input must be untouched.
	if xs[0] != 40 || xs[1] != 10 || xs[2] != 30 || xs[3] != 20 {
		t.Errorf("Quantiles mutated its input: %v", xs)
	}
}

func TestQuantilesMatchesPercentile(t *testing.T) {
	xs := []float64{3.5, -1, 7, 0, 2, 2, 9.25}
	for _, p := range []float64{0, 10, 25, 50, 75, 90, 99, 100} {
		got := Quantiles(xs, []float64{p / 100})[0]
		want := Percentile(xs, p)
		if !almostEqual(got, want, 1e-12) {
			t.Errorf("Quantiles(q=%v) = %v, Percentile(p=%v) = %v", p/100, got, p, want)
		}
	}
}

func TestQuantilesEdgeCases(t *testing.T) {
	for _, q := range Quantiles(nil, []float64{0, 0.5, 1}) {
		if !math.IsNaN(q) {
			t.Errorf("empty input should give NaN, got %v", q)
		}
	}
	got := Quantiles([]float64{42}, []float64{0, 0.5, 1})
	for i, g := range got {
		if g != 42 {
			t.Errorf("single-element quantile %d = %v, want 42", i, g)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range quantile should panic")
		}
	}()
	Quantiles([]float64{1, 2}, []float64{1.5})
}
