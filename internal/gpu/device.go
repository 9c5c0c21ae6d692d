package gpu

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Direction labels a memory transfer's endpoints.
type Direction int

const (
	// H2D is host-to-device.
	H2D Direction = iota
	// D2H is device-to-host.
	D2H
	// D2D is device-to-device (within one GPU's memory).
	D2D
)

// String names the direction as CUDA does.
func (d Direction) String() string {
	switch d {
	case H2D:
		return "HtoD"
	case D2H:
		return "DtoH"
	case D2D:
		return "DtoD"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// KernelEvent describes one completed kernel execution.
type KernelEvent struct {
	Stream int
	Name   string
	Start  sim.Time
	End    sim.Time
	// Warmup is the extra execution time charged by the starvation model
	// because the compute engine was idle when this kernel started.
	Warmup sim.Duration
	// IdleGap is the compute-engine idle time that preceded this kernel
	// (zero when the device was already busy).
	IdleGap sim.Duration
}

// Duration returns the kernel's execution time.
func (e KernelEvent) Duration() sim.Duration { return e.End.Sub(e.Start) }

// CopyEvent describes one completed memory transfer.
type CopyEvent struct {
	Stream int
	Dir    Direction
	Bytes  int64
	Start  sim.Time
	End    sim.Time
}

// Duration returns the transfer's execution time.
func (e CopyEvent) Duration() sim.Duration { return e.End.Sub(e.Start) }

// Listener receives completion events; the trace package implements it.
type Listener interface {
	OnKernel(ev KernelEvent)
	OnCopy(ev CopyEvent)
}

// Device is one simulated GPU.
type Device struct {
	env  *sim.Env
	spec Spec
	mem  *allocator

	// compute serializes kernel execution; dma holds the copy engines.
	compute engine
	dma     engine

	// Execution-history state, written only by the streams' kernel
	// callbacks.
	lastComputeEnd sim.Time
	lastStream     int
	everComputed   bool

	listeners []Listener

	streams      []*Stream
	nextStreamID int
	allIdle      *sim.WaitGroup // counts outstanding ops device-wide

	// freeOps lists the Ops the next enqueues hand out, linked through
	// Op.next: ops that Release gave back, then the rest of the latest
	// chunk. A caller may keep an op pointer for arbitrarily long (events,
	// deferred waits), so an op returns here only through Release. Ops
	// nobody releases come in chunks that double from opChunkMin to
	// opChunkMax ops, so a device that recycles its ops allocates a few
	// small chunks, and one that does not still pays one allocation per
	// opChunkMax ops.
	freeOps *Op
	opChunk int // size of the next chunk

	lost bool // the physical device disappeared (server crash, failover)
}

// engine is a set of identical device units (the compute engine, the DMA
// engines) granted to streams first come, first served. A release does
// not hand the unit over: it gives the longest waiter a retry callback at
// the current instant. A stream that asks before the retry runs takes
// the unit, and the waiter rejoins the tail.
type engine struct {
	free    int
	waiters []*Stream
}

// acquire claims a unit for s, or queues s and reports false when none is
// free; s then runs its begin callback again after a release.
func (e *engine) acquire(s *Stream) bool {
	if e.free == 0 {
		e.waiters = append(e.waiters, s)
		return false
	}
	e.free--
	return true
}

// release returns a unit and schedules the longest waiter's retry.
func (e *engine) release(env *sim.Env) {
	e.free++
	if len(e.waiters) == 0 {
		return
	}
	s := e.waiters[0]
	copy(e.waiters, e.waiters[1:])
	e.waiters[len(e.waiters)-1] = nil
	e.waiters = e.waiters[:len(e.waiters)-1]
	env.After(0, s.cb.begin)
}

// The first and the largest op chunk.
const (
	opChunkMin = 4
	opChunkMax = 64
)

// newOp returns a zeroed Op from the free list, refilling the list with a
// fresh chunk when it is empty.
func (d *Device) newOp() *Op {
	if d.freeOps == nil {
		n := max(d.opChunk, opChunkMin)
		d.opChunk = min(2*n, opChunkMax)
		chunk := make([]Op, n)
		for i := range chunk[:n-1] {
			chunk[i].next = &chunk[i+1]
		}
		d.freeOps = &chunk[0]
	}
	o := d.freeOps
	d.freeOps = o.next
	*o = Op{}
	return o
}

// Release hands o back to the device for reuse by a later enqueue. The
// caller gives up its reference: it must not wait on, read or release o
// again. A done op is reused at once; a queued one once it completes. An
// op a process waits on, or one already released, panics. Ops that are
// never released stay valid for as long as anyone holds them.
func (d *Device) Release(o *Op) {
	switch {
	case o.released:
		panic("gpu: op released twice")
	case o.doneSig.Waiters() > 0:
		panic("gpu: release of an op a process waits on")
	case o.done:
		d.recycle(o)
	default:
		o.released = true
	}
}

// recycle puts a done, released op on the free list. It stays marked
// released there, so a second Release panics until newOp hands it out.
func (d *Device) recycle(o *Op) {
	o.released = true
	o.next = d.freeOps
	d.freeOps = o
}

// NewDevice creates a device with the given spec on env.
func NewDevice(env *sim.Env, spec Spec) (*Device, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Device{
		env:     env,
		spec:    spec,
		mem:     newAllocator(spec.MemoryBytes),
		compute: engine{free: 1},
		dma:     engine{free: spec.DMAEngines},
		allIdle: sim.NewWaitGroup(env),
	}, nil
}

// Spec returns the device specification.
func (d *Device) Spec() Spec { return d.spec }

// Listen registers a completion-event listener.
func (d *Device) Listen(l Listener) { d.listeners = append(d.listeners, l) }

// MarkLost records that the physical device is gone — the GPU server
// crashed or a failover abandoned it. The device keeps its simulated
// state (the allocator bookkeeping survives for inspection), but API
// layers refuse new work against it; see cuda.ErrDeviceLost.
func (d *Device) MarkLost() { d.lost = true }

// Lost reports whether the device has been marked lost.
func (d *Device) Lost() bool { return d.lost }

// Malloc reserves n bytes of device memory.
func (d *Device) Malloc(n int64) (Ptr, error) { return d.mem.malloc(n) }

// Free releases a device allocation.
func (d *Device) Free(p Ptr) error { return d.mem.free(p) }

// AllocSize returns the size of an allocation.
func (d *Device) AllocSize(p Ptr) (int64, error) { return d.mem.size(p) }

// opKind discriminates stream operations.
type opKind uint8

const (
	opKernel opKind = iota
	opCopy
	opMark
)

// Op is one enqueued stream operation; callers wait on it for fine-grained
// synchronization (cudaEventSynchronize-style). A caller that no longer
// needs an op hands it back with Device.Release.
type Op struct {
	name string // kernel name
	// dur is a kernel's base duration before warm-up, or a copy's
	// duration. Both are fixed at enqueue, so a bad one panics on the
	// caller's stack instead of inside the engine.
	dur   sim.Duration
	dir   Direction
	bytes int64
	// next links the op into the device's free list.
	next *Op
	kind opKind
	// done flips exactly once, in the stream's completion callback, just
	// before doneSig fires — host-side Op.Wait re-checks it in the guard
	// loop.
	done bool
	// released is set by Device.Release; the stream recycles a released op
	// when it completes.
	released bool
	// doneSig is this op's private completion signal, embedded so the chunk
	// allocation covers it. A per-op signal (rather than one broadcast
	// signal shared by every op on the stream) means completing an op wakes
	// only the processes synchronizing on *that* op: with a shared signal,
	// k host threads blocked on distinct ops all woke on every completion
	// and re-parked, turning one completion into k events — the superlinear
	// term the threads ablation measured.
	doneSig sim.Signal
}

// Done reports whether the operation has completed.
func (o *Op) Done() bool { return o.done }

// Wait parks the calling process until the operation completes.
func (o *Op) Wait(p *sim.Proc) {
	for !o.done {
		o.doneSig.Wait(p)
	}
}

// Stream is an in-order execution queue on a device, the unit of
// concurrency a host thread submits work through.
//
// A stream has no process of its own: it waits only for work, for an
// engine and for time, never for the host, so it executes as a chain of
// callback events (sim.Env.After). Each callback takes the (time, seq)
// slot that a process per stream, parked on the same three waits, would
// be woken in, so events are delivered in that process's order. Only the
// host side (Op.Wait, Sync) parks processes.
type Stream struct {
	id  int
	dev *Device
	// The host-side enqueue path appends to the queue; run consumes it.
	queue []*Op
	// head: queue[:head] is consumed; the array is reused once drained.
	head int
	// pending counts queued + executing ops.
	pending int
	drained *sim.Signal
	closed  bool
	// idle is set while the queue is empty and no callback is pending:
	// the next enqueue, or Destroy, schedules run. It is clear from
	// NewStream until the start callback runs, so work enqueued before
	// then schedules nothing.
	idle bool

	// cur is the executing op, or the one waiting for an engine.
	cur *Op
	// When cur started, and for a kernel its idle gap and warm-up, kept
	// between its callbacks.
	start       sim.Time
	gap, warmup sim.Duration

	// cb holds the stream's callbacks, bound once so that scheduling one
	// allocates nothing.
	cb struct{ run, begin, startKernel, kernelDone, copyDone func() }
}

// NewStream creates a stream and schedules its start at the current
// instant.
func (d *Device) NewStream() *Stream {
	s := &Stream{
		id:      d.nextStreamID,
		dev:     d,
		drained: sim.NewSignal(d.env),
	}
	s.cb.run, s.cb.begin, s.cb.startKernel = s.run, s.begin, s.startKernel
	s.cb.kernelDone, s.cb.copyDone = s.kernelDone, s.copyDone
	d.nextStreamID++
	d.streams = append(d.streams, s)
	d.env.After(0, s.cb.run)
	return s
}

// Destroy stops the stream once its queue drains; further enqueues panic.
func (s *Stream) Destroy() {
	s.closed = true
	s.wake()
}

// wake schedules run on an idle stream.
func (s *Stream) wake() {
	if s.idle {
		s.idle = false
		s.dev.env.After(0, s.cb.run)
	}
}

// enqueue adds an op and wakes the stream.
func (s *Stream) enqueue(o *Op) *Op {
	if s.closed {
		panic("gpu: enqueue on destroyed stream")
	}
	o.doneSig.Bind(s.dev.env)
	s.queue = append(s.queue, o)
	s.pending++
	s.dev.allIdle.Add(1)
	s.wake()
	return o
}

// EnqueueKernel submits a kernel launch and returns immediately (the
// asynchronous CUDA semantics; the cuda layer adds host-side launch cost).
// A kernel whose duration on the device is not finite panics.
func (s *Stream) EnqueueKernel(k Kernel) *Op {
	base := k.baseDuration(s.dev.spec)
	if math.IsNaN(float64(base)) || math.IsInf(float64(base), 0) {
		panic(fmt.Sprintf("gpu: kernel %q has non-finite duration %v", k.Name, base))
	}
	o := s.dev.newOp()
	o.kind, o.name, o.dur = opKernel, k.Name, base
	return s.enqueue(o)
}

// EnqueueCopy submits a memory transfer of n bytes.
func (s *Stream) EnqueueCopy(dir Direction, n int64) *Op {
	if n < 0 {
		panic("gpu: negative copy size")
	}
	spec := &s.dev.spec
	var bw float64
	switch dir {
	case H2D:
		bw = spec.H2DBandwidth
	case D2H:
		bw = spec.D2HBandwidth
	case D2D:
		// On-package copy: both a read and a write against HBM.
		bw = spec.MemoryBandwidth / 2
	default:
		panic(fmt.Sprintf("gpu: unknown copy direction %v", dir))
	}
	o := s.dev.newOp()
	o.kind, o.dir, o.bytes = opCopy, dir, n
	o.dur = spec.CopyLatency + sim.Duration(float64(n)/bw)
	return s.enqueue(o)
}

// EnqueueMarker submits a zero-cost ordering marker; the returned Op
// completes when all previously enqueued work on the stream has completed.
// It is the device half of cudaEventRecord.
func (s *Stream) EnqueueMarker() *Op {
	o := s.dev.newOp()
	o.kind = opMark
	return s.enqueue(o)
}

// Sync parks the calling process until every operation enqueued so far has
// completed.
func (s *Stream) Sync(p *sim.Proc) {
	for s.pending > 0 {
		s.drained.Wait(p)
	}
}

// Sync parks the calling process until every stream on the device drains —
// cudaDeviceSynchronize.
func (d *Device) Sync(p *sim.Proc) {
	d.allIdle.Wait(p)
}

// run takes ops off the queue in order until one has to wait for an
// engine or for time; that op's callbacks call run again when it is done.
// Markers complete inline.
func (s *Stream) run() {
	for {
		if s.head == len(s.queue) {
			// Drained: rewind onto the same backing array so steady-state
			// enqueue traffic stops growing it.
			s.queue = s.queue[:0]
			s.head = 0
			s.idle = !s.closed
			return
		}
		o := s.queue[s.head]
		s.queue[s.head] = nil
		s.head++
		if o.kind == opMark {
			// Zero-cost ordering marker (CUDA event record).
			s.finish(o)
			continue
		}
		s.cur = o
		s.begin()
		return
	}
}

// begin starts the current op on its engine, or leaves the stream queued
// for the engine, which calls begin again after a release.
func (s *Stream) begin() {
	d := s.dev
	if s.cur.kind == opCopy {
		if d.dma.acquire(s) {
			s.start = d.env.Now()
			d.env.After(s.cur.dur, s.cb.copyDone)
		}
		return
	}
	if !d.compute.acquire(s) {
		return
	}
	if d.everComputed && d.lastStream != s.id && d.spec.ContextSwitch > 0 {
		// The context switch precedes the kernel's Start; it is not part
		// of its duration, as NSys reports pure kernel execution time.
		d.env.After(d.spec.ContextSwitch, s.cb.startKernel)
		return
	}
	s.startKernel()
}

// startKernel runs the current kernel on the held compute engine,
// charging the starvation warm-up when the engine had gone idle.
func (s *Stream) startKernel() {
	d := s.dev
	s.start = d.env.Now()
	s.gap = 0
	if d.everComputed {
		s.gap = s.start.Sub(d.lastComputeEnd)
		if s.gap < 0 {
			s.gap = 0
		}
	}
	s.warmup = 0
	if s.gap > 0 {
		g := s.gap
		if g > d.spec.WarmupSaturation {
			g = d.spec.WarmupSaturation
		}
		s.warmup = sim.Duration(d.spec.WarmupRate) * g
	}
	d.env.After(s.cur.dur+s.warmup, s.cb.kernelDone)
}

// kernelDone retires the current kernel and moves on to the next op.
func (s *Stream) kernelDone() {
	d := s.dev
	o := s.cur
	end := d.env.Now()
	d.lastComputeEnd = end
	d.lastStream = s.id
	d.everComputed = true
	d.compute.release(d.env)

	ev := KernelEvent{
		Stream:  s.id,
		Name:    o.name,
		Start:   s.start,
		End:     end,
		Warmup:  s.warmup,
		IdleGap: s.gap,
	}
	for _, l := range d.listeners {
		l.OnKernel(ev)
	}
	s.finish(o)
	s.run()
}

// copyDone retires the current transfer and moves on to the next op.
func (s *Stream) copyDone() {
	d := s.dev
	o := s.cur
	d.dma.release(d.env)

	ev := CopyEvent{
		Stream: s.id,
		Dir:    o.dir,
		Bytes:  o.bytes,
		Start:  s.start,
		End:    d.env.Now(),
	}
	for _, l := range d.listeners {
		l.OnCopy(ev)
	}
	s.finish(o)
	s.run()
}

// finish marks o done and releases whoever waits on it, the stream or
// the device. An op its caller released goes back to the device.
func (s *Stream) finish(o *Op) {
	s.cur = nil
	o.done = true
	s.pending--
	s.dev.allIdle.Done()
	o.doneSig.Fire()
	if o.released {
		s.dev.recycle(o)
	}
	if s.pending == 0 {
		s.drained.Fire()
	}
}
