package pool

import "math/bits"

// bitset is a set of server indices, one bit each, lowest index in the
// low bit of word 0.
type bitset []uint64

// newBitsets carves n bitsets of the given width, plus one more, out of
// a single backing array.
func newBitsets(n, width int) ([]bitset, bitset) {
	words := (width + 63) / 64
	backing := make([]uint64, (n+1)*words)
	sets := make([]bitset, n)
	for i := range sets {
		sets[i] = backing[i*words : (i+1)*words : (i+1)*words]
	}
	return sets, backing[n*words:]
}

func (b bitset) set(i int)   { b[i>>6] |= 1 << (i & 63) }
func (b bitset) clear(i int) { b[i>>6] &^= 1 << (i & 63) }

// first returns the lowest index in the set, or -1 when it is empty.
func (b bitset) first() int {
	for w, word := range b {
		if word != 0 {
			return w<<6 | bits.TrailingZeros64(word)
		}
	}
	return -1
}
