// Package stats provides the statistical toolkit the evaluation harness
// needs: summary statistics, percentiles, histograms, Gaussian-KDE "violin"
// summaries (Figures 4 and 5 of the paper), binning, and the interpolation
// used to build slack-response surfaces.
//
// Everything operates on plain []float64 and is deterministic.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sum returns the sum of xs (0 for an empty slice).
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs; it returns NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (NaN for fewer than
// two samples).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// Stddev returns the unbiased sample standard deviation of xs.
func Stddev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element of xs; NaN for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs; NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between order statistics (the "exclusive" convention used
// by numpy's default). xs need not be sorted. NaN for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of [0,100]", p))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Summary holds the descriptive statistics reported throughout the
// evaluation tables.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
}

// Summarize computes a Summary of xs. An empty input yields a zero-count
// summary with NaN statistics.
func Summarize(xs []float64) Summary {
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Stddev: Stddev(xs),
		Min:    Min(xs),
		Q1:     Percentile(xs, 25),
		Median: Median(xs),
		Q3:     Percentile(xs, 75),
		Max:    Max(xs),
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g",
		s.N, s.Mean, s.Stddev, s.Min, s.Q1, s.Median, s.Q3, s.Max)
}

// ApproxEqual reports whether a and b agree to within tol, measured
// relative to the larger magnitude once that exceeds 1 (so tol acts as an
// absolute tolerance near zero and a relative one for large values). It is
// the approved comparison for computed floating-point quantities — exact
// ==/!= between computed floats is rejected repo-wide by cdivet's floateq
// rule, because two mathematically equal results reached along different
// code paths routinely differ in the final ulp. NaN equals nothing,
// matching IEEE-754.
func ApproxEqual(a, b, tol float64) bool {
	if tol < 0 {
		panic("stats: negative ApproxEqual tolerance")
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	scale := 1.0
	if m := math.Max(math.Abs(a), math.Abs(b)); m > scale {
		scale = m
	}
	return math.Abs(a-b) <= tol*scale
}
