package sim

import (
	"math"
	"math/bits"
)

// The event queue has two tiers, split by each event's time key: the
// float64 bit pattern of its time, which orders exactly as the time does
// because no event time is negative.
//
//   - The near tier is a 4-ary min-heap ordered by evLess. While the far
//     tier holds anything, the heap holds only the events whose key agrees
//     with Env.base on every bit from nearBits up.
//   - The far tier holds every other event, unsorted, in radix buckets: an
//     event waits in bucket j, where j is the highest bit in which its key
//     differs from the base (Ahuja, Mehlhorn, Orlin and Tarjan's radix
//     heap). Its key is above the base at that bit, so it follows every
//     heap event.
//
// Pops come from the heap. When the heap empties, the smallest key of the
// lowest non-empty bucket becomes the new base, and that bucket's events
// move to the heap or to lower buckets; an event therefore moves at most
// once per bit level it descends, and a far-future timer is never sifted
// past by the pops ahead of it. While the far tier is empty the heap takes
// every push up to heapOnly events; the push after that splits the queue
// at the clock, which no pending event precedes. A push below the base,
// which only follows a RunUntil horizon stop, re-files every queued
// event.

// nearBits is the bit level of the near/far split. Times within one
// binade of width w share their exponent, so an aligned window of w/1024
// keeps its events in the heap: about 0.24 ms around a time of 0.3 s.
const nearBits = 42

// nearSpan is the key distance from the base below which an event is near.
const nearSpan = 1 << nearBits

// heapOnly is how many events the heap takes, near or not, while the far
// tier is empty. A 4-ary heap that small is three levels deep, so a
// bucket would cost more than it saves, and an Env with few pending
// events never makes a far tier.
const heapOnly = 64

// timeKey is the radix key of a (non-negative) event time.
func timeKey(at Time) uint64 { return math.Float64bits(float64(at)) }

// evLess is the engine's total event order: time first, then the global
// schedule sequence as FIFO tie-break.
func evLess(a, b *event) bool {
	//cdivet:allow floateq exact tie-break: events at bit-identical times fall through to the seq FIFO order; an epsilon would merge distinct instants
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a hand-rolled 4-ary min-heap ordered by evLess. The
// container/heap interface would force an `any` conversion and dynamic
// dispatch on the hottest queue path. Four children per node halve a
// binary heap's depth, so each push and pop walks fewer levels.
type eventHeap []*event

func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !evLess(ev, s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

// pop removes and returns the minimum event. The heap must be non-empty.
func (h *eventHeap) pop() *event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	// Sift last down from the root.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if evLess(s[c], s[least]) {
				least = c
			}
		}
		if !evLess(s[least], last) {
			break
		}
		s[i] = s[least]
		i = least
	}
	s[i] = last
	return top
}

// farTier is the far tier's bucket index. An Env makes it the first time
// an event goes far.
type farTier struct {
	// mask has bit j set while bucket j is non-empty.
	mask uint64
	// head[j-nearBits] is the id of bucket j's first event, 0 when the
	// bucket is empty; each member links to the next through its block's
	// next array.
	head [64 - nearBits]uint32
	// min[j-nearBits] is the smallest key in non-empty bucket j.
	min [64 - nearBits]uint64
}

// queued returns the number of pending events, cancelled ones included.
func (e *Env) queued() int { return len(e.queue) + int(e.nfar) }

// pushFar queues ev, whose key k is not near the base, when the heap
// cannot simply take it. A heap that has grown to heapOnly events with
// the far tier empty is split first, at the clock: no pending event and no
// later push lies below it. A key below the base re-files the queue first.
func (e *Env) pushFar(ev *event, k uint64) {
	if e.nfar == 0 {
		e.rebase(timeKey(e.now))
	} else if k < e.base {
		e.rebase(k)
	}
	e.file(ev)
	e.setGate()
}

// setGate opens the heap to every push, up to heapOnly events, exactly
// while the far tier is empty. Only pushFar and refill move events into
// or out of the far tier, and each ends here, so push tests one byte
// instead of the far count and the heap length.
func (e *Env) setGate() {
	e.gate = 0
	if e.nfar == 0 {
		e.gate = heapOnly
	}
}

// file queues ev by its key relative to the base: on the heap when it is
// near, else at the head of its bucket. Its key must not be below the
// base unless it is near.
func (e *Env) file(ev *event) {
	k := timeKey(ev.at)
	d := k ^ e.base
	if d < nearSpan {
		e.queue.push(ev)
		return
	}
	f := e.far
	if f == nil {
		f = new(farTier)
		e.far = f
	}
	j := bits.Len64(d) - 1
	b := e.chunks[(ev.id-1)/eventChunk]
	if b.next == nil {
		b.next = new([eventChunk]uint32)
	}
	head := f.head[j-nearBits]
	if head == 0 || k < f.min[j-nearBits] {
		f.min[j-nearBits] = k
	}
	b.next[(ev.id-1)%eventChunk] = head
	f.head[j-nearBits] = ev.id
	f.mask |= 1 << j
	e.nfar++
}

// refill moves the lowest far bucket down once the heap is empty: the
// bucket's smallest key becomes the base, and its events go on the heap
// or into lower buckets. It reports false when the far tier is empty too.
func (e *Env) refill() bool {
	if e.nfar == 0 {
		return false
	}
	f := e.far
	j := bits.TrailingZeros64(f.mask)
	first := f.head[j-nearBits]
	f.head[j-nearBits] = 0
	f.mask &^= 1 << j
	e.base = f.min[j-nearBits]
	e.refileList(first)
	e.setGate()
	return true
}

// refileList files every event of the bucket list that starts at first
// anew against the current base.
func (e *Env) refileList(first uint32) {
	for id := first; id != 0; {
		b, i := e.chunks[(id-1)/eventChunk], (id-1)%eventChunk
		id = b.next[i]
		e.nfar--
		e.file(&b.ev[i])
	}
}

// rebase makes k, which lies at or below every queued key, the new base
// and re-files every queued event against it, the heap's included: an
// event that was near the old base may be far from k.
func (e *Env) rebase(k uint64) {
	e.base = k
	old := e.queue
	e.queue = old[:0]
	for i, ev := range old {
		// A re-filed event lands at or before index i, which is read.
		old[i] = nil
		e.file(ev)
	}
	if e.far == nil {
		return
	}
	lists := e.far.head
	*e.far = farTier{}
	for _, first := range lists {
		e.refileList(first)
	}
}
