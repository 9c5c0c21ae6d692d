package stats

import (
	"fmt"
	"math"
	"strings"
)

// Violin is the textual equivalent of the violin plots in Figures 4 and 5:
// a kernel-density profile sampled on a grid.
type Violin struct {
	// Grid holds the positions at which the density was evaluated and
	// Density the corresponding KDE values (unnormalized shape).
	Grid    []float64
	Density []float64
	// LogScale records whether the density was estimated in log10 space,
	// which is how long-tailed duration and size distributions are shown.
	LogScale bool
}

// KDEBandwidth returns Silverman's rule-of-thumb bandwidth for xs.
func KDEBandwidth(xs []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 1
	}
	sd := Stddev(xs)
	iqr := Percentile(xs, 75) - Percentile(xs, 25)
	a := sd
	if iqr > 0 && iqr/1.34 < a {
		a = iqr / 1.34
	}
	if a == 0 {
		a = sd
	}
	if a == 0 {
		return 1
	}
	return 0.9 * a * math.Pow(n, -0.2)
}

// KDE evaluates a Gaussian kernel density estimate of xs at each grid
// point using bandwidth h (h <= 0 selects Silverman's rule).
func KDE(xs, grid []float64, h float64) []float64 {
	if h <= 0 {
		h = KDEBandwidth(xs)
	}
	out := make([]float64, len(grid))
	if len(xs) == 0 {
		return out
	}
	norm := 1 / (float64(len(xs)) * h * math.Sqrt(2*math.Pi))
	for i, g := range grid {
		s := 0.0
		for _, x := range xs {
			u := (g - x) / h
			s += math.Exp(-0.5 * u * u)
		}
		out[i] = s * norm
	}
	return out
}

// NewViolin builds a violin summary of xs with points density samples.
// When logScale is true (recommended for durations and byte sizes spanning
// orders of magnitude) the KDE runs on log10(xs), ignoring non-positive
// samples.
func NewViolin(xs []float64, points int, logScale bool) Violin {
	v := Violin{LogScale: logScale}
	if len(xs) == 0 || points < 2 {
		return v
	}
	data := xs
	if logScale {
		data = make([]float64, 0, len(xs))
		for _, x := range xs {
			if x > 0 {
				data = append(data, math.Log10(x))
			}
		}
		if len(data) == 0 {
			return v
		}
	}
	lo, hi := Min(data), Max(data)
	if lo == hi {
		// Degenerate distribution: a single spike.
		v.Grid = []float64{lo}
		v.Density = []float64{1}
		return v
	}
	pad := (hi - lo) * 0.05
	grid := LinearEdges(lo-pad, hi+pad, points-1)
	v.Grid = grid
	v.Density = KDE(data, grid, 0)
	return v
}

// Render draws the violin sideways as ASCII art, one row per grid point,
// labelled in original units. Width is the maximum bar width in columns.
func (v Violin) Render(width int) string {
	if len(v.Grid) == 0 {
		return "(empty)\n"
	}
	maxD := Max(v.Density)
	var b strings.Builder
	for i, g := range v.Grid {
		val := g
		if v.LogScale {
			val = math.Pow(10, g)
		}
		w := 0
		if maxD > 0 {
			w = int(v.Density[i] / maxD * float64(width))
		}
		fmt.Fprintf(&b, "%12.4g |%s\n", val, strings.Repeat("*", w))
	}
	return b.String()
}
