package stats

// LinearEdges returns n+1 evenly spaced edges covering [lo, hi].
func LinearEdges(lo, hi float64, n int) []float64 {
	if n < 1 || hi <= lo {
		panic("stats: invalid LinearEdges parameters")
	}
	edges := make([]float64, n+1)
	for i := range edges {
		edges[i] = lo + (hi-lo)*float64(i)/float64(n)
	}
	return edges
}

// BinByThresholds assigns each sample to the first threshold bin that can
// hold it, reproducing the paper's Table III binning: a sample x goes to
// bin i when x <= thresholds[i] (thresholds ascending); samples larger than
// every threshold go to the final overflow bin. The returned slice has
// len(thresholds)+1 entries.
func BinByThresholds(xs, thresholds []float64) []int {
	for i := 1; i < len(thresholds); i++ {
		if thresholds[i] <= thresholds[i-1] {
			panic("stats: thresholds must be strictly increasing")
		}
	}
	counts := make([]int, len(thresholds)+1)
	for _, x := range xs {
		placed := false
		for i, th := range thresholds {
			if x <= th {
				counts[i]++
				placed = true
				break
			}
		}
		if !placed {
			counts[len(thresholds)]++
		}
	}
	return counts
}
