package sim

import (
	"fmt"
	"math"
	"sort"
)

// event is a scheduled wake-up for a parked process (or a start for a
// freshly spawned one).
type event struct {
	at   Time
	seq  uint64 // FIFO tie-break for simultaneous events
	proc *Proc
	// cancelled events stay queued but are skipped when they surface; this
	// is how racing wake-ups (timeout vs signal) resolve without queue
	// surgery.
	cancelled bool
	// kind distinguishes why the process wakes, so racing wake-ups can
	// report which one won.
	kind wakeKind
}

type wakeKind uint8

const (
	wakeTimer wakeKind = iota
	wakeSignal
	wakeStart
)

// Env is a simulation environment: a virtual clock plus the event queue and
// process bookkeeping that drive it. The zero value is not usable; create
// environments with NewEnv.
//
// Env is not safe for concurrent use from multiple goroutines the caller
// owns; the engine's determinism comes precisely from running exactly one
// process at a time.
//
// # Scheduling core
//
// Pending events live in one min-heap ordered by (time, seq), where seq is
// the global schedule counter. Control transfer uses a baton scheme: the
// scheduler loop runs on whichever goroutine is yielding. When a process
// parks, it pops the next event itself — if that event is its own wake-up
// it simply continues (no handoff at all); if it belongs to another process
// it resumes that process directly (one channel operation instead of the
// classic resume/park round-trip through a central scheduler goroutine).
// The driver goroutine that called Run only regains control when the run
// segment ends. Step and Close fall back to the central-handoff path, which
// delivers exactly one wake-up per exchange.
type Env struct {
	now Time
	seq uint64

	// queue holds every pending event, cancelled ones included, as a
	// min-heap ordered by evLess.
	queue eventHeap

	horizon Time // current run's clock bound (+Inf outside RunUntil)
	// direct enables the baton fast path; Step and Close clear it so every
	// wake-up is delivered from the driver goroutine.
	direct bool
	park   chan struct{} // a yielding process hands the run back to the driver
	nprocs int           // live (started, not finished) processes
	closed bool

	// parked tracks every process currently blocked on a Signal (not a
	// timer), so deadlocks can be reported and Close can unwind goroutines.
	parked map[*Proc]struct{}

	// free recycles consumed events, and slab batch-allocates fresh ones in
	// 64-event chunks. The hot loop of every simulation is
	// schedule→pop→deliver; without reuse each cycle would allocate one
	// event, which dominated the engine's allocation profile
	// (BenchmarkSimEngineEvents). An event is recycled only once it has
	// left both its queue and its process's waits list.
	free []*event
	slab []event
}

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

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	e := &Env{park: make(chan struct{}), parked: make(map[*Proc]struct{})}
	e.horizon = Time(math.Inf(1))
	return e
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// newEvent returns a zeroed event from the freelist or the slab.
func (e *Env) newEvent() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	if len(e.slab) == 0 {
		e.slab = make([]event, 64)
	}
	ev := &e.slab[0]
	e.slab = e.slab[1:]
	return ev
}

// schedule enqueues a wake-up event for p and registers it with the
// process, so that delivering any one of a process's outstanding
// wake-ups cancels the others.
func (e *Env) schedule(at Time, p *Proc, kind wakeKind) *event {
	if at < e.now {
		at = e.now
	}
	e.seq++
	ev := e.newEvent()
	ev.at, ev.seq, ev.proc, ev.kind = at, e.seq, p, kind
	ev.cancelled = false
	e.queue.push(ev)
	p.waits = append(p.waits, ev)
	return ev
}

// recycle returns a consumed event to the freelist. The caller must hold
// the only remaining reference: the event is off its queue and no process
// waits list contains it.
func (e *Env) recycle(ev *event) {
	ev.proc = nil
	e.free = append(e.free, ev)
}

// next pops the earliest live event at or before the horizon, dropping
// cancelled events as they surface. It returns nil when the run segment is
// over: either the queue is empty, or the earliest live event lies beyond
// the horizon (in which case the clock advances to the horizon, matching
// the contract of RunUntil).
func (e *Env) next() *event {
	for len(e.queue) > 0 {
		ev := e.queue[0]
		if ev.cancelled {
			e.queue.pop()
			e.recycle(ev)
			continue
		}
		if ev.at > e.horizon {
			if e.now < e.horizon {
				e.now = e.horizon
			}
			return nil
		}
		return e.queue.pop()
	}
	return nil
}

// wake consumes ev: it cancels the process's rival wake-ups, clears its
// parked registration, advances the clock, and records the wake kind. The
// caller transfers control to the returned process (or is it).
func (e *Env) wake(ev *event) *Proc {
	p := ev.proc
	for _, o := range p.waits {
		if o != ev {
			o.cancelled = true
		}
	}
	p.waits = p.waits[:0]
	if p.sigParked {
		delete(e.parked, p)
		p.sigParked = false
	}
	e.now = ev.at
	p.wake = ev.kind
	e.recycle(ev)
	return p
}

// dispatch advances the simulation from a yielding process's goroutine: it
// pops the next event and either continues inline (the event is self's own
// wake-up — the zero-handoff fast path), resumes the winning process
// directly, or hands the baton back to the driver when the segment is over.
// It reports whether self was woken inline; otherwise self must block on
// its resume channel.
func (e *Env) dispatch(self *Proc) bool {
	ev := e.next()
	if ev == nil {
		e.park <- struct{}{}
		return false
	}
	q := e.wake(ev)
	if q == self {
		return true
	}
	q.resume <- struct{}{}
	return false
}

// Spawn creates a process running fn and schedules it to start at the
// current virtual time. fn receives the process handle, through which all
// blocking primitives are reached. Spawn may be called before Run or from
// inside a running process; a process that needs to spawn reaches the
// environment through Proc.Env.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(0, name, fn)
}

// SpawnAt is Spawn with a start delay.
func (e *Env) SpawnAt(delay Duration, name string, fn func(p *Proc)) *Proc {
	if e.closed {
		panic("sim: Spawn on closed Env")
	}
	if delay < 0 {
		panic("sim: negative spawn delay")
	}
	p := &Proc{env: e, name: name, resume: make(chan struct{})}
	p.waits = p.waitsBuf[:0]
	e.nprocs++
	go func() {
		defer func() {
			r := recover()
			if r != nil && r != errAborted {
				// Re-panicking application errors on the scheduler's stack
				// would be nicer, but surfacing them here keeps the trace.
				panic(r)
			}
			p.finished = true
			e.nprocs--
			if !e.direct {
				e.park <- struct{}{}
				return
			}
			// Baton mode: the dying goroutine keeps the scheduler loop
			// going. A finished process has no pending wake-ups, so the
			// next event always belongs to someone else (or ends the run).
			ev := e.next()
			if ev == nil {
				e.park <- struct{}{}
				return
			}
			e.wake(ev).resume <- struct{}{}
		}()
		<-p.resume
		if p.aborted {
			return
		}
		fn(p)
	}()
	e.schedule(e.now.Add(delay), p, wakeStart)
	return p
}

// Run drives the simulation until no runnable events remain, then returns
// the final virtual time. Processes still blocked on Signals at that point
// constitute a deadlock; query them with Blocked.
func (e *Env) Run() Time {
	return e.RunUntil(Time(math.Inf(1)))
}

// RunUntil drives the simulation until the event queue is exhausted or
// the next event lies beyond horizon. The clock never advances past
// horizon. Within the run, wake-ups are delivered via the baton fast path:
// control flows process-to-process without bouncing through this
// goroutine, which only resumes when the segment ends.
func (e *Env) RunUntil(horizon Time) Time {
	if e.closed {
		panic("sim: RunUntil on closed Env")
	}
	e.horizon = horizon
	e.direct = true
	ev := e.next()
	if ev == nil {
		e.direct = false
		return e.now
	}
	e.wake(ev).resume <- struct{}{}
	<-e.park
	e.direct = false
	return e.now
}

// Step runs a single event and reports whether one was available. Unlike
// RunUntil, the woken process hands control straight back after one
// wake-up, so Step always pays the full driver round-trip.
func (e *Env) Step() bool {
	e.horizon = Time(math.Inf(1))
	e.direct = false
	ev := e.next()
	if ev == nil {
		return false
	}
	e.wake(ev).resume <- struct{}{}
	<-e.park
	return true
}

// Blocked returns the names of processes parked on Signals with no pending
// wake-up — the processes that would deadlock if Run returned now. The
// result is sorted for stable test output.
func (e *Env) Blocked() []string {
	names := make([]string, 0, len(e.parked))
	//cdivet:allow maporder keys are collected unordered and sorted on the next line
	for p := range e.parked {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return names
}

// Live returns the number of processes that have started but not finished.
func (e *Env) Live() int { return e.nprocs }

// Close unwinds every parked process goroutine and marks the environment
// unusable. It must not be called from inside a process. Close is safe to
// call after Run; environments that ran to completion with no blocked
// processes have nothing to unwind.
func (e *Env) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.direct = false
	e.horizon = Time(math.Inf(1))
	// Unwind processes parked on signals.
	//cdivet:allow maporder teardown after results are final: aborted processes run no model code, so unwind order is unobservable
	for p := range e.parked {
		for _, o := range p.waits {
			o.cancelled = true
		}
		p.waits = nil
		p.aborted = true
		p.resume <- struct{}{}
		<-e.park
	}
	e.parked = map[*Proc]struct{}{}
	// Unwind processes parked on timers (or not yet started).
	for {
		ev := e.next()
		if ev == nil {
			return
		}
		p := e.wake(ev)
		p.aborted = true
		p.resume <- struct{}{}
		<-e.park
	}
}

// String summarizes the environment state for debugging.
func (e *Env) String() string {
	return fmt.Sprintf("sim.Env{now: %v, queued: %d, live: %d, blocked: %d}",
		e.now, len(e.queue), e.nprocs, len(e.parked))
}
