package faults

import (
	"math/rand/v2"

	"repro/internal/sim"
)

// span is one half-open window [start, end) in virtual time.
type span struct {
	start, end sim.Time
}

// windows lazily generates a deterministic sequence of fixed-length
// event windows separated by exponentially distributed gaps. Only the
// current window is materialized; each query extends the sequence just
// far enough to answer, so the cost of a schedule is proportional to how
// much of it a run actually observes.
//
// Queries must arrive at non-decreasing times: past windows are
// discarded once the sequence advances beyond them. Simulation callers
// satisfy this for free because sim time is monotonic.
type windows struct {
	rng  *rand.Rand
	mean sim.Duration // mean gap from one window's end to the next start
	dur  sim.Duration // fixed window length
	cur  span         // most recently generated window
}

func newWindows(rng *rand.Rand, mean, dur sim.Duration) *windows {
	return &windows{rng: rng, mean: mean, dur: dur}
}

// at reports whether t falls inside an event window and, if so, when the
// window ends.
func (w *windows) at(t sim.Time) (bool, sim.Time) {
	if w.mean <= 0 || w.dur <= 0 {
		return false, 0
	}
	for w.cur.end <= t {
		w.next()
	}
	if t >= w.cur.start {
		return true, w.cur.end
	}
	return false, 0
}

// next draws the window after the current one.
func (w *windows) next() {
	gap := sim.Duration(w.rng.ExpFloat64() * float64(w.mean))
	start := w.cur.end.Add(gap)
	w.cur = span{start: start, end: start.Add(w.dur)}
}

// window returns the full span containing t, if t is inside a window.
func (w *windows) window(t sim.Time) (span, bool) {
	if ok, _ := w.at(t); !ok {
		return span{}, false
	}
	return w.cur, true
}
