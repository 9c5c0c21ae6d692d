package sim

import "errors"

// errAborted is the panic value used to unwind process goroutines when the
// environment is closed. It never escapes the package.
var errAborted = errors.New("sim: process aborted by Env.Close")

// ErrTimeout is returned by the *Timeout wait variants when the deadline
// fires before the awaited condition.
var ErrTimeout = errors.New("sim: wait timed out")

// Proc is the handle a simulated process uses to interact with virtual
// time. A Proc is only valid inside the function passed to Env.Spawn and
// must not be shared between process functions.
type Proc struct {
	env      *Env
	name     string
	resume   chan struct{}
	wake     wakeKind // why the last resume happened, set before the handoff
	waits    []*event // outstanding wake-ups while parked
	finished bool
	aborted  bool
	// sigParked mirrors membership in env.parked, so the wake path can skip
	// the map delete — a measurable cost per event — for the overwhelmingly
	// common timer wake-ups that were never in the map.
	sigParked bool

	// waitsBuf backs waits inline: a process has at most two outstanding
	// wake-ups in every blocking primitive the package offers (a timer
	// racing a signal in WaitTimeout), so the common case never allocates
	// a separate waits array.
	waitsBuf [2]*event
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Env returns the environment that owns this process.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// yield parks the process until its next wake-up and returns the wake kind.
// Inside Run/RunUntil this is the baton handoff: the yielding goroutine
// dispatches the next event itself, so a process whose own wake-up is next
// continues with no channel operation at all, and a switch to another
// process costs a single send. Outside the direct path (Step, Close) the
// baton goes back to the driver goroutine, which delivers the next wake-up.
func (p *Proc) yield() wakeKind {
	e := p.env
	if e.direct {
		if e.dispatch(p) {
			return p.wake
		}
	} else {
		e.park <- struct{}{}
	}
	<-p.resume
	if p.aborted {
		panic(errAborted)
	}
	return p.wake
}

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (the process still yields, preserving event ordering).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.env.schedule(p.env.now.Add(d), p, wakeTimer)
	p.yield()
}

// Yield gives other processes scheduled at the current instant a chance to
// run, without advancing the clock relative to them.
func (p *Proc) Yield() { p.Sleep(0) }

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
	p.env.parked[p] = struct{}{}
	p.sigParked = true
	p.yield()
}

// WaitTimeout parks the process until the next Fire or until d elapses,
// whichever comes first. It returns nil if the signal fired and ErrTimeout
// if the deadline won.
func (s *Signal) WaitTimeout(p *Proc, d Duration) error {
	s.waiters = append(s.waiters, p)
	p.env.parked[p] = struct{}{}
	p.sigParked = true
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
		if p.sigParked {
			delete(s.env.parked, p)
			p.sigParked = false
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
	if p.sigParked {
		delete(s.env.parked, p)
		p.sigParked = false
	}
	s.env.schedule(s.env.now, p, wakeSignal)
	return true
}

// Waiters returns the number of processes currently waiting.
func (s *Signal) Waiters() int { return len(s.waiters) }

// Resource is a counting semaphore in virtual time with FIFO granting, the
// building block for modelling exclusive or capacity-limited hardware
// (DMA engines, PCIe lanes, CPU cores).
type Resource struct {
	env      *Env
	capacity int
	inUse    int
	queue    *Signal
}

// NewResource returns a Resource with the given capacity (> 0).
func NewResource(env *Env, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: Resource capacity must be positive")
	}
	return &Resource{env: env, capacity: capacity, queue: NewSignal(env)}
}

// Acquire blocks the process until a unit of capacity is available, then
// claims it.
func (r *Resource) Acquire(p *Proc) {
	for r.inUse >= r.capacity {
		r.queue.Wait(p)
	}
	r.inUse++
}

// TryAcquire claims a unit if one is free, without blocking; it reports
// whether the claim succeeded.
func (r *Resource) TryAcquire() bool {
	if r.inUse >= r.capacity {
		return false
	}
	r.inUse++
	return true
}

// Release returns a unit of capacity and wakes one waiter.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of un-acquired Resource")
	}
	r.inUse--
	r.queue.FireOne()
}

// InUse returns the number of claimed units.
func (r *Resource) InUse() int { return r.inUse }

// Capacity returns the total capacity.
func (r *Resource) Capacity() int { return r.capacity }

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
