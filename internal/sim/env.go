package sim

import (
	"fmt"
	"math"
	"sort"
)

// event is a scheduled wake-up for a parked process (or a start for a
// freshly spawned one), or a callback: an event with no process whose fn
// runs inline on whichever goroutine pops it.
type event struct {
	at   Time
	seq  uint64 // FIFO tie-break for simultaneous events
	proc *Proc
	fn   func() // the callback; nil for process wake-ups
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
//
// A goroutine whose process finishes inside a run segment is not thrown
// away: it passes the baton on and waits on the idle list, and the next
// SpawnAt runs its process there, on a stack that has already grown.
// RunUntil releases the idle goroutines when the segment ends.
//
// Callback events (After) need no goroutine at all: whoever holds the
// baton runs the callback inline when it surfaces and keeps popping.
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

	// idle lists, through Proc.nextIdle, the processes that finished in
	// the current run segment and left their goroutine waiting on its
	// resume channel; SpawnAt takes the head's goroutine. It is nil
	// whenever direct is false.
	idle *Proc

	// parked lists every process currently blocked on a Signal (not a
	// timer), so deadlocks can be reported and Close can unwind goroutines.
	// It is intrusive: each parked process stores its own index (parkIdx),
	// so parking appends and unparking swap-removes, with no hashing.
	parked []*Proc

	stats Stats

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
	e := &Env{park: make(chan struct{})}
	e.horizon = Time(math.Inf(1))
	return e
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Stats counts what the engine has done since NewEnv.
type Stats struct {
	// Scheduled counts events pushed onto the queue: process starts,
	// wake-ups and callbacks. Delivered counts those consumed: a process
	// woke (Close's unwinding of sleeping and unstarted processes
	// included) or a callback ran. Cancelled counts those discarded:
	// losers of a timer-versus-signal race as they surface, and callbacks
	// Close drops. Scheduled minus both is the queue length.
	Scheduled, Delivered, Cancelled uint64
	// Callbacks counts delivered callback events (After).
	Callbacks uint64
	// Spawns counts processes created. Goroutines counts the goroutines
	// started to run them; Spawns minus Goroutines processes ran on a
	// goroutine that a process finished earlier in the same run segment
	// left idle.
	Spawns, Goroutines uint64
	// SelfWakes counts wake-ups a yielding process popped for itself and
	// continued inline; Switches counts wake-ups handed to a process on
	// another goroutine, one channel send each. Every delivered event is
	// exactly one of a callback, a self-wake or a switch.
	SelfWakes, Switches uint64
	// PeakPending is the largest queue length seen, cancelled events
	// still queued included.
	PeakPending uint64
}

// Stats returns the engine's counters.
func (e *Env) Stats() Stats {
	// Scheduled, Delivered and SelfWakes are derived, so the self-wake
	// fast path does no bookkeeping: every scheduled event took one seq
	// and is now queued, cancelled or delivered, and a delivered one is a
	// callback, a switch, or else a self-wake.
	st := e.stats
	st.Scheduled = e.seq
	st.Delivered = st.Scheduled - st.Cancelled - uint64(len(e.queue))
	st.SelfWakes = st.Delivered - st.Callbacks - st.Switches
	return st
}

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
	ev := e.push(at)
	ev.proc, ev.kind = p, kind
	p.waits = append(p.waits, ev)
	return ev
}

// push enqueues a fresh event at at, taking the next schedule sequence.
// The caller fills in the process or the callback.
func (e *Env) push(at Time) *event {
	e.seq++
	ev := e.newEvent()
	ev.at, ev.seq = at, e.seq
	ev.cancelled = false
	e.queue.push(ev)
	if n := uint64(len(e.queue)); n > e.stats.PeakPending {
		e.stats.PeakPending = n
	}
	return ev
}

// After schedules fn to run once d from now. The callback takes its
// (time, seq) slot when After is called, exactly as a SpawnAt start
// event would, but it has no process: the goroutine that pops it runs fn
// inline and carries on, so fn must not block. fn may schedule events,
// fire signals and spawn processes. Close drops pending callbacks without
// running them. A negative or NaN delay panics.
func (e *Env) After(d Duration, fn func()) {
	e.checkDelay("After", d)
	e.push(e.now.Add(d)).fn = fn
}

// checkDelay panics if the environment is closed or delay is negative or
// NaN; op names the caller in the message.
func (e *Env) checkDelay(op string, delay Duration) {
	if e.closed {
		panic("sim: " + op + " on closed Env")
	}
	if delay < 0 {
		panic("sim: negative " + op + " delay")
	}
	if math.IsNaN(float64(delay)) {
		panic("sim: NaN " + op + " delay")
	}
}

// recycle returns a consumed event to the freelist. The caller must hold
// the only remaining reference: the event is off its queue and no process
// waits list contains it.
func (e *Env) recycle(ev *event) {
	ev.proc = nil
	ev.fn = nil
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
			e.stats.Cancelled++
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

// nextProc is next for the goroutine holding the baton: callback events
// run inline as they surface, and the first process wake-up (or nil, at
// the end of the segment) is returned.
func (e *Env) nextProc() *event {
	for {
		ev := e.next()
		if ev == nil || ev.fn == nil {
			return ev
		}
		e.runCallback(ev)
	}
}

// runCallback consumes a callback event: it advances the clock and runs
// fn on the calling goroutine.
func (e *Env) runCallback(ev *event) {
	fn := ev.fn
	e.now = ev.at
	e.recycle(ev)
	e.stats.Callbacks++
	fn()
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
	if p.parkIdx >= 0 {
		e.unpark(p)
	}
	e.now = ev.at
	p.wake = ev.kind
	e.recycle(ev)
	return p
}

// parkOn registers p as blocked on a Signal.
func (e *Env) parkOn(p *Proc) {
	p.parkIdx = int32(len(e.parked))
	e.parked = append(e.parked, p)
}

// unpark removes p from the parked list by moving the last entry into its
// slot.
func (e *Env) unpark(p *Proc) {
	i, last := p.parkIdx, int32(len(e.parked)-1)
	q := e.parked[last]
	e.parked[i] = q
	q.parkIdx = i
	e.parked[last] = nil
	e.parked = e.parked[:last]
	p.parkIdx = -1
}

// dispatch advances the simulation from a yielding process's goroutine: it
// pops the next process wake-up, running any callbacks that surface first,
// and either continues inline (the event is self's own wake-up — the
// zero-handoff fast path), resumes the winning process directly, or hands
// the baton back to the driver when the segment is over. It reports
// whether self was woken inline; otherwise self must block on its resume
// channel.
func (e *Env) dispatch(self *Proc) bool {
	ev := e.nextProc()
	if ev == nil {
		e.park <- struct{}{}
		return false
	}
	q := e.wake(ev)
	if q == self {
		return true
	}
	e.handoff(q)
	return false
}

// handoff resumes q, a process on another goroutine, and counts the switch.
func (e *Env) handoff(q *Proc) {
	e.stats.Switches++
	q.resume <- q
}

// Spawn creates a process running fn and schedules it to start at the
// current virtual time. fn receives the process handle, through which all
// blocking primitives are reached. Spawn may be called before Run or from
// inside a running process; a process that needs to spawn reaches the
// environment through Proc.Env.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(0, name, fn)
}

// SpawnAt is Spawn with a start delay. A negative or NaN delay panics.
func (e *Env) SpawnAt(delay Duration, name string, fn func(p *Proc)) *Proc {
	e.checkDelay("Spawn", delay)
	p := &Proc{env: e, name: name, fn: fn, parkIdx: -1}
	p.waits = p.waitsBuf[:0]
	if q := e.idle; q != nil {
		e.idle, q.nextIdle = q.nextIdle, nil
		p.resume = q.resume
	} else {
		p.resume = make(chan *Proc)
		e.stats.Goroutines++
		go e.procLoop(p.resume)
	}
	e.nprocs++
	e.stats.Spawns++
	e.schedule(e.now.Add(delay), p, wakeStart)
	return p
}

// procLoop is the body of every process goroutine: it runs each process
// handed to it on ch, the first at its start event and later ones spawned
// onto it while it sat idle. It returns when a process finishes outside
// the baton path, or when RunUntil closes ch at the end of a segment.
func (e *Env) procLoop(ch chan *Proc) {
	for p := <-ch; p != nil; p = <-ch {
		if !e.runProc(p) {
			return
		}
	}
}

// runProc runs p to completion (or to Close's abort) and passes control
// on. In baton mode the dying goroutine keeps the scheduler loop going:
// it pops the next process wake-up, joins the idle list and hands the
// baton over, and runProc reports true. Otherwise the run goes back to the
// driver and the goroutine exits.
func (e *Env) runProc(p *Proc) bool {
	if !p.aborted {
		runBody(p)
	}
	p.fn = nil
	e.nprocs--
	if e.direct {
		// A finished process has no pending wake-ups, so the next event
		// always belongs to someone else (or ends the run). The goroutine
		// goes idle only after nextProc: a callback run there may spawn at
		// delay 0, and a spawn that took this goroutine would be handed
		// its start by the goroutine itself.
		if ev := e.nextProc(); ev != nil {
			q := e.wake(ev)
			p.nextIdle, e.idle = e.idle, p
			e.handoff(q)
			return true
		}
	}
	e.park <- struct{}{}
	return false
}

// runBody calls p's body, absorbing the panic Close unwinds it with.
func runBody(p *Proc) {
	defer func() {
		if r := recover(); r != nil && r != errAborted {
			// Re-panicking application errors on the scheduler's stack
			// would be nicer, but surfacing them here keeps the trace.
			panic(r)
		}
	}()
	p.fn(p)
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
	ev := e.nextProc()
	if ev == nil {
		e.direct = false
		return e.now
	}
	e.handoff(e.wake(ev))
	<-e.park
	e.direct = false
	// Release the goroutines left idle: a closed channel hands them nil.
	for q := e.idle; q != nil; q = e.idle {
		e.idle, q.nextIdle = q.nextIdle, nil
		close(q.resume)
	}
	return e.now
}

// Step runs a single event and reports whether one was available. A
// callback runs on the calling goroutine. Unlike RunUntil, a woken
// process hands control straight back after one wake-up, so Step always
// pays the full driver round-trip.
func (e *Env) Step() bool {
	e.horizon = Time(math.Inf(1))
	e.direct = false
	ev := e.next()
	if ev == nil {
		return false
	}
	if ev.fn != nil {
		e.runCallback(ev)
		return true
	}
	e.handoff(e.wake(ev))
	<-e.park
	return true
}

// Blocked returns the names of processes parked on Signals with no pending
// wake-up — the processes that would deadlock if Run returned now. The
// result is sorted for stable test output.
func (e *Env) Blocked() []string {
	names := make([]string, 0, len(e.parked))
	for _, p := range e.parked {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return names
}

// Live returns the number of processes that have started but not finished.
func (e *Env) Live() int { return e.nprocs }

// Close unwinds every parked process goroutine, drops pending callbacks
// without running them, and marks the environment unusable. It must not
// be called from inside a process. Close is safe to call after Run;
// environments that ran to completion with no blocked processes have
// nothing to unwind.
func (e *Env) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.direct = false
	e.horizon = Time(math.Inf(1))
	// Unwind processes parked on signals, last parked first.
	for len(e.parked) > 0 {
		p := e.parked[len(e.parked)-1]
		e.unpark(p)
		for _, o := range p.waits {
			o.cancelled = true
		}
		p.waits = nil
		p.aborted = true
		p.resume <- p
		<-e.park
	}
	// Drop pending callbacks and unwind processes parked on timers (or
	// not yet started).
	for {
		ev := e.next()
		if ev == nil {
			return
		}
		if ev.fn != nil {
			e.recycle(ev)
			e.stats.Cancelled++
			continue
		}
		p := e.wake(ev)
		p.aborted = true
		e.handoff(p)
		<-e.park
	}
}

// String summarizes the environment state for debugging.
func (e *Env) String() string {
	return fmt.Sprintf("sim.Env{now: %v, queued: %d, live: %d, blocked: %d}",
		e.now, len(e.queue), e.nprocs, len(e.parked))
}
