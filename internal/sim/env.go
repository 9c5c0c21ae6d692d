//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"math"
	"runtime"
	"sort"
)

// event is a scheduled wake-up for a parked process (or a start for a
// freshly spawned one), or a callback: an event with no process whose fn
// runs inline in whichever process or loop pops it.
type event struct {
	at Time
	// seq is the FIFO tie-break for simultaneous events. While the event
	// is on its Env's free list, seq holds the id of the next free event.
	seq  uint64
	proc *Proc
	fn   func() // the callback; nil for process wake-ups
	// cancelled events stay queued but are skipped when they surface; this
	// is how racing wake-ups (timeout vs signal) resolve without queue
	// surgery.
	cancelled bool
	// kind distinguishes why the process wakes, so racing wake-ups can
	// report which one won.
	kind wakeKind
	// id names the event within its Env (see Env.eventByID). It fills the
	// padding after kind, so an event stays 40 bytes.
	id uint32
}

// eventChunk is how many events Env.newEvent allocates at once.
const eventChunk = 64

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
// the global schedule counter. Each process runs as a coroutine (iter.Pull)
// under one scheduling loop in RunUntil, on the goroutine that called it.
// When a process parks, it pops the next event itself: if that event is its
// own wake-up it simply continues (no switch at all); otherwise it leaves
// the woken process for the loop and suspends, and the loop resumes that
// process. A switch is two coroutine switches (process to loop to process)
// and never passes through the Go scheduler. Step and Close deliver exactly
// one wake-up per resume: a process they resume pops nothing.
//
// A coroutine whose process finishes inside a run segment is not thrown
// away: it pops the next wake-up for the loop and waits on the idle list,
// and the next SpawnAt runs its process there, on a stack that has already
// grown. RunUntil stops the idle coroutines when the segment ends, also
// when a process panic ends it; the panic reaches RunUntil's caller. The
// Proc of a process that returned is reused by a later SpawnAt, in any
// segment, and consumed events are reused by later schedules, so a warm
// Env spawns, schedules and delivers without allocating.
//
// Callback events (After) need no coroutine at all: whoever pops one, a
// parking process or the loop, runs the callback inline and keeps popping.
type Env struct {
	now Time
	seq uint64

	// queue holds every pending event, cancelled ones included, as a
	// min-heap ordered by evLess.
	queue eventHeap

	horizon Time // current run's clock bound (+Inf outside RunUntil)
	// direct is set inside RunUntil: a parking or finishing process pops
	// the next event itself. Step and Close leave it clear.
	direct bool
	// handed is the process a coroutine suspending inside RunUntil popped
	// and woke for the loop to resume next; every such suspend sets it, and
	// nil ends the run segment.
	handed *Proc
	nprocs int // live (started, not finished) processes
	closed bool

	// idle lists, through coro.nextIdle, the coroutines whose process
	// finished in the current run segment; SpawnAt takes the head. It is
	// nil whenever direct is false.
	idle *coro

	// parked lists every process currently blocked on a Signal (not a
	// timer), so deadlocks can be reported and Close can unwind them.
	// It is intrusive: each parked process stores its own index (parkIdx),
	// so parking appends and unparking swap-removes, with no hashing.
	parked []*Proc

	stats Stats

	// free heads the list of consumed events by id (0 when empty); each
	// free event's seq holds the next id. chunks holds every event the Env
	// has made, eventChunk at a time, so an id finds its event. The hot
	// loop of every simulation is schedule→pop→deliver; without reuse each
	// cycle would allocate one event, which dominated the engine's
	// allocation profile (BenchmarkSimEngineEvents), and a list linked
	// through the events themselves never grows. An event is recycled only
	// once it has left both its queue and its process's waits list.
	free   uint32
	made   uint32 // events made so far; the newest has id made
	chunks []*[eventChunk]event

	// procs lists, through Proc.nextFree, the Procs of processes that
	// returned; SpawnAt reuses them before allocating.
	procs *Proc

	sinceYield int // nextWake calls since the last yield (see yieldEvery)
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
	e := &Env{}
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
	// Spawns counts processes created. Goroutines counts the coroutines
	// (each on a goroutine of its own) created to run them; Spawns minus
	// Goroutines processes ran on a coroutine that a process finished
	// earlier in the same run segment left idle.
	Spawns, Goroutines uint64
	// SelfWakes counts wake-ups a yielding process popped for itself and
	// continued inline; Switches counts wake-ups delivered by resuming a
	// suspended process's coroutine from the scheduling loop, Step or
	// Close. Every delivered event is exactly one of a callback, a
	// self-wake or a switch.
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

// newEvent returns an event with no process or callback: the head of the
// free list, or else a fresh one, numbered and taken from the last chunk.
// A fresh event's seq is zero, which leaves the free list empty. The
// function stays small enough to inline into push.
func (e *Env) newEvent() *event {
	id := e.free
	if id == 0 {
		if e.made%eventChunk == 0 {
			e.chunks = append(e.chunks, new([eventChunk]event))
		}
		e.made++
		id = e.made
	}
	ev := e.eventByID(id)
	ev.id = id
	e.free = uint32(ev.seq)
	return ev
}

// eventByID returns the event newEvent numbered id (counting from 1).
func (e *Env) eventByID(id uint32) *event {
	return &e.chunks[(id-1)/eventChunk][(id-1)%eventChunk]
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
// event would, but it has no process: the process or loop that pops it
// runs fn inline and carries on, so fn must not block. fn may schedule
// events, fire signals and spawn processes. Close drops pending callbacks
// without running them. A negative or NaN delay panics.
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

// recycle returns a consumed event to the free list. The caller must hold
// the only remaining reference: the event is off its queue and no process
// waits list contains it.
func (e *Env) recycle(ev *event) {
	ev.proc = nil
	ev.fn = nil
	ev.seq = uint64(e.free)
	e.free = ev.id
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

// yieldEvery is how many nextWake calls pass between yields to the Go
// scheduler. Coroutine switches bypass the scheduler, so an engine that
// neither allocates nor blocks holds its P until the runtime preempts it
// (about 10 ms). Under GOMAXPROCS=1 a GC cycle that starts meanwhile
// keeps its write barriers on, taxing every pointer the event heap
// moves, until its mark worker gets the P; a yield lets it finish.
const yieldEvery = 1024

// nextWake is next for a scheduling loop: callback events run inline as
// they surface, and the first process wake-up is consumed and its process
// returned (nil at the end of the segment).
func (e *Env) nextWake() *Proc {
	e.sinceYield++
	if e.sinceYield == yieldEvery {
		e.sinceYield = 0
		runtime.Gosched()
	}
	for {
		ev := e.next()
		if ev == nil {
			return nil
		}
		if ev.fn == nil {
			return e.wake(ev)
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

// resume delivers p's wake-up by running its coroutine until the process
// parks, finishes or panics, and counts the switch. It returns the process
// the coroutine popped for the loop to run next, which only RunUntil's
// loop reads.
func (e *Env) resume(p *Proc) *Proc {
	e.stats.Switches++
	p.co.resume()
	return e.handed
}

// Spawn creates a process running fn and schedules it to start at the
// current virtual time. fn receives the process handle, through which all
// blocking primitives are reached. Spawn may be called before Run or from
// inside a running process; a process that needs to spawn reaches the
// environment through Proc.Env. The returned *Proc is valid only until fn
// returns: a later Spawn on the same Env may reuse it.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(0, name, fn)
}

// SpawnAt is Spawn with a start delay. A negative or NaN delay panics.
func (e *Env) SpawnAt(delay Duration, name string, fn func(p *Proc)) *Proc {
	e.checkDelay("Spawn", delay)
	p := e.procs
	if p != nil {
		e.procs = p.nextFree
	} else {
		p = new(Proc)
	}
	*p = Proc{env: e, name: name, fn: fn, parkIdx: -1}
	p.waits = p.waitsBuf[:0]
	if c := e.idle; c != nil {
		e.idle, c.nextIdle = c.nextIdle, nil
		p.co = c
	} else {
		p.co = e.newCoro()
		e.stats.Goroutines++
	}
	p.co.proc = p
	e.nprocs++
	e.stats.Spawns++
	e.schedule(e.now.Add(delay), p, wakeStart)
	return p
}

// coro is a process coroutine. It runs the process SpawnAt assigned to it
// and, while its process finishes inside a run segment, the next one
// spawned onto it from the idle list.
type coro struct {
	resume   func() (struct{}, bool) // run until the process suspends
	stop     func()                  // end an idle coroutine
	suspend  func(struct{}) bool     // hand control back to the resumer
	proc     *Proc                   // the process to run, set by SpawnAt
	nextIdle *coro                   // the next coroutine on Env.idle
}

// newCoro creates an unstarted process coroutine. Its body runs each
// assigned process to completion (or to Close's abort). A process that
// returned is in no waiter list or parked list and has no live event
// (cancelled ones that still name it are dropped unread), so its Proc
// goes on the free list at once. In RunUntil a finished process's
// coroutine then pops the next wake-up for the loop and only then goes
// idle: a callback run by the pop may spawn, and that spawn must not take
// the coroutine still running it. Outside RunUntil, or when stopped while
// idle, the coroutine ends.
func (e *Env) newCoro() *coro {
	c := &coro{}
	c.resume, c.stop = iter.Pull(func(suspend func(struct{}) bool) {
		c.suspend = suspend
		for {
			p := c.proc
			if !p.aborted {
				runBody(p)
			}
			p.fn = nil
			e.nprocs--
			if !p.aborted {
				p.nextFree, e.procs = e.procs, p
			}
			if !e.direct {
				return
			}
			e.handed = e.nextWake()
			c.nextIdle, e.idle = e.idle, c
			if !suspend(struct{}{}) {
				return
			}
		}
	})
	return c
}

// runBody calls p's body, absorbing the panic Close unwinds it with. Any
// other panic ends the coroutine and resurfaces in the caller of RunUntil,
// Step or Close.
func runBody(p *Proc) {
	defer func() {
		if r := recover(); r != nil && r != errAborted {
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
// horizon. A process that panics ends the segment, and RunUntil re-panics
// with the same value.
func (e *Env) RunUntil(horizon Time) Time {
	if e.closed {
		panic("sim: RunUntil on closed Env")
	}
	e.horizon = horizon
	e.direct = true
	defer e.endSegment()
	for p := e.nextWake(); p != nil; p = e.resume(p) {
	}
	return e.now
}

// endSegment leaves RunUntil's direct mode and stops the idle coroutines.
func (e *Env) endSegment() {
	e.direct = false
	for c := e.idle; c != nil; c = e.idle {
		e.idle, c.nextIdle = c.nextIdle, nil
		c.stop()
	}
}

// Step runs a single event and reports whether one was available. A
// callback runs on the calling goroutine. Unlike RunUntil, a woken
// process suspends straight back to Step after one wake-up, so every
// wake-up Step delivers is a switch.
func (e *Env) Step() bool {
	e.horizon = Time(math.Inf(1))
	ev := e.next()
	if ev == nil {
		return false
	}
	if ev.fn != nil {
		e.runCallback(ev)
		return true
	}
	e.resume(e.wake(ev))
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

// Close unwinds every parked process, drops pending callbacks without
// running them, and marks the environment unusable. It must not be called
// from inside a process. Close is safe to call after Run; environments
// that ran to completion with no blocked processes have nothing to unwind.
func (e *Env) Close() {
	if e.closed {
		return
	}
	e.closed = true
	e.horizon = Time(math.Inf(1))
	// Unwind processes parked on signals, last parked first. No event is
	// delivered, so the resume is not a switch.
	for len(e.parked) > 0 {
		p := e.parked[len(e.parked)-1]
		e.unpark(p)
		for _, o := range p.waits {
			o.cancelled = true
		}
		p.waits = nil
		p.aborted = true
		p.co.resume()
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
		e.resume(p)
	}
}

// String summarizes the environment state for debugging.
func (e *Env) String() string {
	return fmt.Sprintf("sim.Env{now: %v, queued: %d, live: %d, blocked: %d}",
		e.now, len(e.queue), e.nprocs, len(e.parked))
}
