package stats

import (
	"fmt"
	"math"
	"sort"
)

// Interpolator performs piecewise-linear interpolation over a set of
// (x, y) knots, optionally in log-x space. It is the tool used to read
// intermediate slack values off the proxy response surfaces.
type Interpolator struct {
	xs, ys []float64
	logX   bool
}

// NewInterpolator builds an interpolator from parallel slices, which are
// copied and sorted by x. Duplicate x values are rejected. With logX set,
// interpolation runs in log(x) space and all x must be positive.
func NewInterpolator(xs, ys []float64, logX bool) (*Interpolator, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("stats: interpolator knot length mismatch: %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 1 {
		return nil, fmt.Errorf("stats: interpolator needs at least one knot")
	}
	type knot struct{ x, y float64 }
	ks := make([]knot, len(xs))
	for i := range xs {
		if logX && xs[i] <= 0 {
			return nil, fmt.Errorf("stats: log-x interpolator requires positive x, got %g", xs[i])
		}
		ks[i] = knot{xs[i], ys[i]}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].x < ks[j].x })
	for i := 1; i < len(ks); i++ {
		if ks[i].x == ks[i-1].x {
			return nil, fmt.Errorf("stats: duplicate interpolator knot x=%g", ks[i].x)
		}
	}
	in := &Interpolator{
		xs:   make([]float64, len(ks)),
		ys:   make([]float64, len(ks)),
		logX: logX,
	}
	for i, k := range ks {
		in.xs[i] = k.x
		in.ys[i] = k.y
		if logX {
			in.xs[i] = math.Log(k.x)
		}
	}
	return in, nil
}

// At evaluates the interpolant at x, clamping outside the knot range to the
// boundary values (flat extrapolation — response surfaces saturate rather
// than extrapolate).
func (in *Interpolator) At(x float64) float64 {
	if in.logX {
		if x <= 0 {
			return in.ys[0]
		}
		x = math.Log(x)
	}
	n := len(in.xs)
	if x <= in.xs[0] {
		return in.ys[0]
	}
	if x >= in.xs[n-1] {
		return in.ys[n-1]
	}
	i := sort.SearchFloat64s(in.xs, x)
	// xs[i-1] < x <= xs[i]
	x0, x1 := in.xs[i-1], in.xs[i]
	y0, y1 := in.ys[i-1], in.ys[i]
	f := (x - x0) / (x1 - x0)
	return y0 + f*(y1-y0)
}
