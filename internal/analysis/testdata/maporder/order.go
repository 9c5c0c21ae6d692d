package corpus

import (
	"fmt"
	"sort"
)

// The map-range cases: a sink inside a map-range body runs once per key in
// map order, so it is reported even when the value it emits is fixed.

// appendsInMapOrder emits nothing itself; the slice carries the order taint
// to its caller.
func appendsInMapOrder(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// PrintsCollected publishes the slice appended in map order.
func PrintsCollected(m map[string]int) {
	fmt.Println(appendsInMapOrder(m)) // want
}

func printsInMapOrder(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want
	}
}

func sendsInMapOrder(m map[string]int, ch chan int) {
	for _, v := range m {
		ch <- v // want
	}
}

// printsConstantPerKey emits a fixed value, but once per key in map order.
func printsConstantPerKey(m map[string]int) {
	for range m {
		fmt.Println("tick") // want
	}
}

func sendsConstantPerKey(m map[string]bool, ch chan int) {
	for range m {
		ch <- 1 // want
	}
}

type signal struct{}

func (signal) Fire() {}

// firesPerKey wakes waiters in map order.
func firesPerKey(m map[string]signal) {
	for _, s := range m {
		s.Fire() // want
	}
}

type clock struct{}

func (clock) After(d float64, fn func()) {}

// schedulesPerKey queues one callback per key, in map order.
func schedulesPerKey(m map[string]func(), c clock) {
	for _, fn := range m {
		c.After(0, fn) // want
	}
}

type instant float64

func (a instant) After(b instant) bool { return a > b }

// countsLaterPerKey compares instants in map order; a one-argument After
// is a comparison, not a callback, and the count commutes.
func countsLaterPerKey(m map[string]instant, t instant) int {
	n := 0
	for _, v := range m {
		if v.After(t) {
			n++
		}
	}
	return n
}

func suppressedPerKey(m map[string]int) {
	for range m {
		//cdivet:allow taint corpus: demonstrates a justified suppression
		fmt.Println("tick")
	}
}

// sortedThenPrinted is the collect-then-sort idiom: clean with no
// directive.
func sortedThenPrinted(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k, m[k])
	}
}

// orderIndependent bodies commute, so iteration order never shows.
func orderIndependent(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// sliceRangesAreFine: the order check is about maps, not ordered
// collections.
func sliceRangesAreFine(xs []int) {
	for _, x := range xs {
		fmt.Println(x)
	}
}
