package sim

import (
	"errors"
	"math"
)

// errAborted is the panic value used to unwind process coroutines when the
// environment is closed. It never escapes the package.
var errAborted = errors.New("sim: process aborted by Env.Close")

// ErrTimeout is returned by the *Timeout wait variants when the deadline
// fires before the awaited condition.
var ErrTimeout = errors.New("sim: wait timed out")

// Proc is the handle a simulated process uses to interact with virtual
// time. A Proc is only valid inside the function passed to Env.Spawn, and
// only until that function returns: the Env then reuses it for a later
// spawn. It must not be shared between process functions.
type Proc struct {
	env  *Env
	name string
	fn   func(p *Proc) // the process body; nil once it has returned
	// co is the coroutine running the process. It is shared across a run:
	// when a process finishes, the next spawn may take it over (Env.idle).
	co    *coro
	waits []*event // outstanding wake-ups while parked
	// parkIdx is the process's index in env.parked while it is blocked on
	// a Signal, and -1 otherwise. It and the one-byte fields share a word,
	// so a Proc fits the 96-byte allocation size class.
	parkIdx int32
	wake    wakeKind // why the last resume happened, set before the resume
	aborted bool

	// waitsBuf backs waits inline: a process has at most two outstanding
	// wake-ups in every blocking primitive the package offers (a timer
	// racing a signal in WaitTimeout), so the common case never allocates
	// a separate waits array.
	waitsBuf [2]*event

	nextFree *Proc // the next Proc on Env.procs, while this one is free
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Env returns the environment that owns this process.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// yield parks the process until its next wake-up and returns the wake kind.
// Inside Run/RunUntil the process pops the next event itself: if it is its
// own wake-up it continues with no switch at all; otherwise it leaves the
// woken process for the scheduling loop and suspends. Outside RunUntil
// (Step, Close) it suspends straight back to the caller, which delivers
// the next wake-up.
func (p *Proc) yield() wakeKind {
	e := p.env
	if e.direct {
		q := e.nextWake()
		if q == p {
			return p.wake
		}
		e.handed = q
	}
	p.co.suspend(struct{}{})
	if p.aborted {
		panic(errAborted)
	}
	return p.wake
}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (the process still yields, preserving event ordering). A
// NaN duration panics: NaN compares false both ways, so it would break the
// event queue's time order.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	} else if math.IsNaN(float64(d)) {
		panic("sim: NaN sleep duration")
	}
	p.env.schedule(p.env.now.Add(d), p, wakeTimer)
	p.yield()
}

// Signal is a broadcast condition in virtual time: processes Wait on it and
// are all released by Fire. Signals are reusable — Fire releases the current
// waiters and leaves the signal ready for new ones.
//
// A Signal must only be touched from inside running processes (or before
// Env.Run starts), never from other goroutines.
type Signal struct {
	env     *Env
	waiters []*Proc
	// wbuf backs waiters inline while there are at most two: per-operation
	// completion signals (gpu.Op) almost always see exactly one waiter, and
	// without the buffer each such wait would allocate a one-element slice.
	wbuf [2]*Proc
}

// NewSignal returns a Signal bound to env.
func NewSignal(env *Env) *Signal {
	s := &Signal{env: env}
	s.waiters = s.wbuf[:0]
	return s
}

// Bind associates a zero-value Signal with env. It exists so Signals can be
// embedded in slab-allocated structures (per-operation completion signals on
// device queues) instead of paying one allocation each via NewSignal. Bind
// must run before the first Wait; rebinding an idle Signal to the same env
// is a no-op.
func (s *Signal) Bind(env *Env) {
	s.env = env
	if s.waiters == nil {
		s.waiters = s.wbuf[:0]
	}
}

// remove drops p from the waiter list if present.
func (s *Signal) remove(p *Proc) {
	for i, w := range s.waiters {
		if w == p {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return
		}
	}
}

// Wait parks the process until the next Fire.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.env.parkOn(p)
	p.yield()
}

// WaitTimeout parks the process until the next Fire or until d elapses,
// whichever comes first. It returns nil if the signal fired and ErrTimeout
// if the deadline won. A NaN d panics before the process registers as a
// waiter.
func (s *Signal) WaitTimeout(p *Proc, d Duration) error {
	if math.IsNaN(float64(d)) {
		panic("sim: NaN wait timeout")
	}
	s.waiters = append(s.waiters, p)
	p.env.parkOn(p)
	p.env.schedule(p.env.now.Add(d), p, wakeTimer)
	if p.yield() == wakeTimer {
		// The deadline won; we are no longer a live waiter. (If Fire ran in
		// the same instant after the timer delivered, it already dropped us.)
		s.remove(p)
		return ErrTimeout
	}
	return nil
}

// Fire releases every current waiter at the present instant, in the order
// they began waiting. It is a no-op with no waiters.
func (s *Signal) Fire() {
	// Keep the backing array: signals on steady-state paths (stream
	// arrival/drain, batcher wake-ups) cycle Wait/Fire every iteration, and
	// dropping the array here would make each of those Waits reallocate.
	// No process runs while this loop schedules wake-ups, so the slice
	// cannot be appended to mid-iteration.
	waiters := s.waiters
	s.waiters = s.waiters[:0]
	for _, p := range waiters {
		if p.parkIdx >= 0 {
			s.env.unpark(p)
		}
		s.env.schedule(s.env.now, p, wakeSignal)
	}
}

// FireOne releases only the longest-waiting process, if any, and reports
// whether one was released.
func (s *Signal) FireOne() bool {
	if len(s.waiters) == 0 {
		return false
	}
	p := s.waiters[0]
	copy(s.waiters, s.waiters[1:])
	s.waiters = s.waiters[:len(s.waiters)-1]
	if p.parkIdx >= 0 {
		s.env.unpark(p)
	}
	s.env.schedule(s.env.now, p, wakeSignal)
	return true
}

// Waiters returns the number of processes currently waiting.
func (s *Signal) Waiters() int { return len(s.waiters) }

// WaitGroup counts outstanding work in virtual time; Wait parks until the
// count returns to zero.
type WaitGroup struct {
	env   *Env
	count int
	done  *Signal
}

// NewWaitGroup returns a WaitGroup bound to env.
func NewWaitGroup(env *Env) *WaitGroup {
	return &WaitGroup{env: env, done: NewSignal(env)}
}

// Add adjusts the counter by delta, which may be negative. A counter that
// reaches zero releases all current waiters; a negative counter panics.
func (w *WaitGroup) Add(delta int) {
	w.count += delta
	if w.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.count == 0 {
		w.done.Fire()
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait parks the process until the counter is zero.
func (w *WaitGroup) Wait(p *Proc) {
	for w.count > 0 {
		w.done.Wait(p)
	}
}

// Count returns the current counter value.
func (w *WaitGroup) Count() int { return w.count }
