// Package producer manufactures values whose content depends on map
// iteration order without ever emitting them. Nothing here prints, sends,
// or schedules, so catching a consumer that publishes the returned values
// takes the module-wide taint analysis.
package producer

import "sort"

// ArbitraryKey returns whichever key Go's randomized map walk yields first.
// No sink runs in this body: the nondeterminism escapes via return.
func ArbitraryKey(m map[string]int) string {
	for k := range m {
		return k
	}
	return ""
}

// FloatSum accumulates float64 in map order. Float addition does not
// associate, so the low bits of the result change with the walk order.
func FloatSum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}

// SortedKeys launders iteration order through an in-place sort; callers
// receive a deterministic slice.
func SortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Count accumulates an integer: commutative, so order-independent.
func Count(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}
