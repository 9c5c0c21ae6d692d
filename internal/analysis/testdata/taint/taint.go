// Package corpus exercises the cross-package taint rule: nondeterministic
// values minted in the producer subpackage (or locally) are reported only
// where they reach a result-emitting sink.
package corpus

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/corpus/producer"
)

// EmitArbitrary publishes a map-order-dependent value produced one package
// away, where no sink ran inside the map range.
func EmitArbitrary(m map[string]int) {
	k := producer.ArbitraryKey(m)
	fmt.Println(k) // want
}

// EmitFloatSum publishes an order-sensitive float accumulation.
func EmitFloatSum(m map[string]float64) {
	fmt.Println(producer.FloatSum(m)) // want
}

// EmitSorted is clean: the producer sorted before returning.
func EmitSorted(m map[string]int) {
	for _, k := range producer.SortedKeys(m) {
		fmt.Println(k)
	}
}

// EmitCount is clean: integer accumulation is commutative.
func EmitCount(m map[string]int) {
	fmt.Println(producer.Count(m))
}

// EmitLocalRange publishes a key straight out of a local map walk.
func EmitLocalRange(m map[int]bool) {
	for k := range m {
		fmt.Println(k) // want
	}
}

// EmitWallClock publishes a wall-clock read through a local variable and a
// method call on it.
func EmitWallClock() {
	t := time.Now()
	fmt.Println(t.Unix()) // want
}

// EmitGlobalRand publishes a draw from the shared global stream.
func EmitGlobalRand() {
	fmt.Println(rand.Intn(10)) // want
}

// EmitSeededRand is clean: an explicit stream is deterministic under its
// seed.
func EmitSeededRand() {
	r := rand.New(rand.NewSource(1))
	fmt.Println(r.Intn(10))
}

// FillMap is clean: writing m2[k] under a map range yields the same map
// contents in any order.
func FillMap(m map[string]int) map[string]int {
	out := map[string]int{}
	for k, v := range m {
		out[k] = v
	}
	return out
}

// EmitLen is clean: len() of a map carries no order.
func EmitLen(m map[string]int) {
	fmt.Println(len(m))
}

// ReassignClean is clean: a strong update with a deterministic value clears
// the taint before the sink.
func ReassignClean(m map[string]int) {
	k := producer.ArbitraryKey(m)
	k = "fixed"
	fmt.Println(k)
}
