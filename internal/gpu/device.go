package gpu

import (
	"fmt"
	"strconv"

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
	Device  string
	Stream  int
	Name    string
	Enqueue sim.Time
	Start   sim.Time
	End     sim.Time
	// Warmup is the extra execution time charged by the starvation model
	// because the compute engine was idle when this kernel started.
	Warmup sim.Duration
	// IdleGap is the compute-engine idle time that preceded this kernel
	// (zero when the device was already busy).
	IdleGap sim.Duration
	// CtxSwitch is the context-switch delay paid before Start because the
	// previous kernel came from a different stream. It is not part of
	// Duration: traces report pure kernel execution time, as NSys does.
	CtxSwitch sim.Duration
}

// Duration returns the kernel's execution time.
func (e KernelEvent) Duration() sim.Duration { return e.End.Sub(e.Start) }

// CopyEvent describes one completed memory transfer.
type CopyEvent struct {
	Device  string
	Stream  int
	Dir     Direction
	Bytes   int64
	Enqueue sim.Time
	Start   sim.Time
	End     sim.Time
}

// Duration returns the transfer's execution time.
func (e CopyEvent) Duration() sim.Duration { return e.End.Sub(e.Start) }

// Listener receives completion events; the trace package implements it.
type Listener interface {
	OnKernel(ev KernelEvent)
	OnCopy(ev CopyEvent)
}

// Counters aggregates device activity.
type Counters struct {
	Kernels     int64
	CopiesH2D   int64
	CopiesD2H   int64
	CopiesD2D   int64
	BytesH2D    int64
	BytesD2H    int64
	BytesD2D    int64
	ComputeBusy sim.Duration // total kernel execution time, warm-up included
	CopyBusy    sim.Duration // total DMA engine occupancy
	WarmupTotal sim.Duration // total starvation penalty charged
	IdleEvents  int64        // kernels that started on an idle compute engine
	CtxSwitches int64        // stream-to-stream kernel transitions charged
	CtxTotal    sim.Duration // total context-switch time charged
}

// Device is one simulated GPU.
type Device struct {
	env  *sim.Env
	spec Spec
	mem  *allocator

	compute *sim.Resource // kernel execution serializes on the device
	dma     *sim.Resource

	// Execution-history state, written only by the device's own stream
	// runners (execKernel/execCopy).
	lastComputeEnd sim.Time
	lastStream     int
	everComputed   bool

	counters  Counters
	listeners []Listener

	streams      []*Stream
	nextStreamID int
	allIdle      *sim.WaitGroup // counts outstanding ops device-wide

	// opSlab hands out Ops in 64-op chunks: enqueue paths are the hottest
	// allocation sites in the serving and proxy benchmarks, and callers
	// keep op pointers for arbitrarily long (events, deferred waits), so
	// ops are never recycled — just batch-allocated.
	opSlab []Op

	lost bool // the physical device disappeared (server crash, failover)
}

// newOp returns a zeroed Op from the device's slab.
func (d *Device) newOp() *Op {
	if len(d.opSlab) == 0 {
		d.opSlab = make([]Op, 64)
	}
	o := &d.opSlab[0]
	d.opSlab = d.opSlab[1:]
	return o
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
		compute: sim.NewResource(env, 1),
		dma:     sim.NewResource(env, spec.DMAEngines),
		allIdle: sim.NewWaitGroup(env),
	}, nil
}

// Env returns the simulation environment the device lives on.
func (d *Device) Env() *sim.Env { return d.env }

// Spec returns the device specification.
func (d *Device) Spec() Spec { return d.spec }

// Counters returns a snapshot of activity counters.
func (d *Device) Counters() Counters { return d.counters }

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

// MemUsed returns the bytes currently allocated.
func (d *Device) MemUsed() int64 { return d.mem.used }

// MemCapacity returns the device memory capacity.
func (d *Device) MemCapacity() int64 { return d.spec.MemoryBytes }

// Utilization returns the fraction of [0, now] the compute engine was busy.
func (d *Device) Utilization() float64 {
	now := d.env.Now()
	if now == 0 {
		return 0
	}
	return float64(d.counters.ComputeBusy) / float64(now)
}

// opKind discriminates stream operations.
type opKind int

const (
	opKernel opKind = iota
	opCopy
	opMark
)

// Op is one enqueued stream operation; callers wait on it for fine-grained
// synchronization (cudaEventSynchronize-style).
type Op struct {
	kind    opKind
	kernel  Kernel
	dir     Direction
	bytes   int64
	enqueue sim.Time
	// done flips exactly once, in the stream runner, just before doneSig
	// fires — host-side Op.Wait re-checks it in the guard loop.
	done bool
	// doneSig is this op's private completion signal, embedded so the slab
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
type Stream struct {
	id  int
	dev *Device
	// The host-side enqueue path appends to the queue and fires arrive;
	// the stream runner consumes it.
	queue []*Op
	// head: queue[:head] is consumed; the array is reused once drained.
	head int
	// pending counts queued + executing ops.
	pending int
	arrive  *sim.Signal
	drained *sim.Signal
	closed  bool
}

// NewStream creates a stream and starts its runner process.
func (d *Device) NewStream() *Stream {
	s := &Stream{
		id:      d.nextStreamID,
		dev:     d,
		arrive:  sim.NewSignal(d.env),
		drained: sim.NewSignal(d.env),
	}
	d.nextStreamID++
	d.streams = append(d.streams, s)
	d.env.Spawn(d.spec.Name+"/stream"+strconv.Itoa(s.id), s.run)
	return s
}

// ID returns the stream's identifier on its device.
func (s *Stream) ID() int { return s.id }

// Destroy stops the stream's runner once its queue drains; further
// enqueues panic.
func (s *Stream) Destroy() {
	s.closed = true
	s.arrive.Fire()
}

// enqueue adds an op and wakes the runner.
func (s *Stream) enqueue(o *Op) *Op {
	if s.closed {
		panic("gpu: enqueue on destroyed stream")
	}
	o.enqueue = s.dev.env.Now()
	o.doneSig.Bind(s.dev.env)
	s.queue = append(s.queue, o)
	s.pending++
	s.dev.allIdle.Add(1)
	s.arrive.Fire()
	return o
}

// EnqueueKernel submits a kernel launch and returns immediately (the
// asynchronous CUDA semantics; the cuda layer adds host-side launch cost).
func (s *Stream) EnqueueKernel(k Kernel) *Op {
	o := s.dev.newOp()
	o.kind, o.kernel = opKernel, k
	return s.enqueue(o)
}

// EnqueueCopy submits a memory transfer of n bytes.
func (s *Stream) EnqueueCopy(dir Direction, n int64) *Op {
	if n < 0 {
		panic("gpu: negative copy size")
	}
	o := s.dev.newOp()
	o.kind, o.dir, o.bytes = opCopy, dir, n
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

// run is the stream's device-side execution loop.
func (s *Stream) run(p *sim.Proc) {
	d := s.dev
	for {
		for s.head == len(s.queue) {
			// Drained: rewind onto the same backing array so steady-state
			// enqueue traffic stops growing it.
			s.queue = s.queue[:0]
			s.head = 0
			if s.closed {
				return
			}
			s.arrive.Wait(p)
		}
		o := s.queue[s.head]
		s.queue[s.head] = nil
		s.head++
		switch o.kind {
		case opKernel:
			s.execKernel(p, o)
		case opCopy:
			s.execCopy(p, o)
		case opMark:
			// Zero-cost ordering marker (CUDA event record).
		}
		o.done = true
		s.pending--
		d.allIdle.Done()
		o.doneSig.Fire()
		if s.pending == 0 {
			s.drained.Fire()
		}
	}
}

// execKernel runs a kernel on the (exclusive) compute engine, charging the
// starvation warm-up when the engine had gone idle.
func (s *Stream) execKernel(p *sim.Proc, o *Op) {
	d := s.dev
	d.compute.Acquire(p)
	var ctxSwitch sim.Duration
	if d.everComputed && d.lastStream != s.id && d.spec.ContextSwitch > 0 {
		ctxSwitch = d.spec.ContextSwitch
		p.Sleep(ctxSwitch)
		d.counters.CtxSwitches++
		d.counters.CtxTotal += ctxSwitch
	}
	start := p.Now()
	var gap sim.Duration
	if d.everComputed {
		gap = start.Sub(d.lastComputeEnd)
		if gap < 0 {
			gap = 0
		}
	}
	base := o.kernel.baseDuration(d.spec)
	var warmup sim.Duration
	if gap > 0 {
		g := gap
		if g > d.spec.WarmupSaturation {
			g = d.spec.WarmupSaturation
		}
		warmup = sim.Duration(d.spec.WarmupRate) * g
		d.counters.IdleEvents++
	}
	dur := base + warmup
	p.Sleep(dur)
	end := p.Now()
	d.lastComputeEnd = end
	d.lastStream = s.id
	d.everComputed = true
	d.counters.Kernels++
	d.counters.ComputeBusy += dur
	d.counters.WarmupTotal += warmup
	d.compute.Release()

	ev := KernelEvent{
		Device:    d.spec.Name,
		Stream:    s.id,
		Name:      o.kernel.Name,
		Enqueue:   o.enqueue,
		Start:     start,
		End:       end,
		Warmup:    warmup,
		IdleGap:   gap,
		CtxSwitch: ctxSwitch,
	}
	for _, l := range d.listeners {
		l.OnKernel(ev)
	}
}

// execCopy runs a transfer on a DMA engine.
func (s *Stream) execCopy(p *sim.Proc, o *Op) {
	d := s.dev
	d.dma.Acquire(p)
	start := p.Now()
	var bw float64
	switch o.dir {
	case H2D:
		bw = d.spec.H2DBandwidth
	case D2H:
		bw = d.spec.D2HBandwidth
	case D2D:
		// On-package copy: both a read and a write against HBM.
		bw = d.spec.MemoryBandwidth / 2
	default:
		panic(fmt.Sprintf("gpu: unknown copy direction %v", o.dir))
	}
	dur := d.spec.CopyLatency + sim.Duration(float64(o.bytes)/bw)
	p.Sleep(dur)
	end := p.Now()
	switch o.dir {
	case H2D:
		d.counters.CopiesH2D++
		d.counters.BytesH2D += o.bytes
	case D2H:
		d.counters.CopiesD2H++
		d.counters.BytesD2H += o.bytes
	case D2D:
		d.counters.CopiesD2D++
		d.counters.BytesD2D += o.bytes
	}
	d.counters.CopyBusy += dur
	d.dma.Release()

	ev := CopyEvent{
		Device:  d.spec.Name,
		Stream:  s.id,
		Dir:     o.dir,
		Bytes:   o.bytes,
		Enqueue: o.enqueue,
		Start:   start,
		End:     end,
	}
	for _, l := range d.listeners {
		l.OnCopy(ev)
	}
}
