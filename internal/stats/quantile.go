package stats

import (
	"fmt"
	"math"
	"sort"
)

// Quantiles returns the q-th quantiles (each q in [0, 1]) of xs using the
// same linear interpolation between order statistics as Percentile, but
// sorting a copy of xs exactly once — the right shape for SLO reporting,
// where one latency population is read at p50/p95/p99/p99.9 together.
// Quantiles(xs, []float64{0.5})[0] equals Percentile(xs, 50). The result
// has one entry per q; every entry is NaN for an empty xs.
func Quantiles(xs []float64, qs []float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, q := range qs {
		if q < 0 || q > 1 {
			panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
		}
		if len(s) == 1 {
			out[i] = s[0]
			continue
		}
		rank := q * float64(len(s)-1)
		lo := int(math.Floor(rank))
		hi := int(math.Ceil(rank))
		if lo == hi {
			out[i] = s[lo]
			continue
		}
		frac := rank - float64(lo)
		out[i] = s[lo]*(1-frac) + s[hi]*frac
	}
	return out
}
