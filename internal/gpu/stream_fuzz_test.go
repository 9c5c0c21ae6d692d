package gpu

import (
	"fmt"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/sim"
)

// The reference stream implementation for FuzzStreamOps: the
// process-based runner the callback chain in device.go replaced. Each
// stream is a process that parks on an arrival signal when its queue is
// empty, and the device's engines are refResources, a copy of the
// counting semaphore sim once exported. The methods below are the replaced
// code with only the type names changed, so the fuzzer checks the callback
// chain against the runner itself, not against a restatement of it.

// refResource is a counting semaphore in virtual time with FIFO granting.
type refResource struct {
	env      *sim.Env
	capacity int
	inUse    int
	queue    *sim.Signal
}

// newRefResource returns a refResource with the given capacity (> 0).
func newRefResource(env *sim.Env, capacity int) *refResource {
	if capacity <= 0 {
		panic("sim: Resource capacity must be positive")
	}
	return &refResource{env: env, capacity: capacity, queue: sim.NewSignal(env)}
}

// Acquire blocks the process until a unit of capacity is available, then
// claims it.
func (r *refResource) Acquire(p *sim.Proc) {
	for r.inUse >= r.capacity {
		r.queue.Wait(p)
	}
	r.inUse++
}

// Release returns a unit of capacity and wakes one waiter.
func (r *refResource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of un-acquired Resource")
	}
	r.inUse--
	r.queue.FireOne()
}

// refOp is an Op of the reference runner.
type refOp struct {
	kind    opKind
	kernel  Kernel
	dir     Direction
	bytes   int64
	done    bool
	doneSig sim.Signal
}

// refDevice is a Device of the reference runner.
type refDevice struct {
	env  *sim.Env
	spec Spec

	compute *refResource // kernel execution serializes on the device
	dma     *refResource

	lastComputeEnd sim.Time
	lastStream     int
	everComputed   bool

	listeners []Listener

	streams      []*refStream
	nextStreamID int
	allIdle      *sim.WaitGroup

	opSlab []refOp
}

func newRefDevice(env *sim.Env, spec Spec) *refDevice {
	return &refDevice{
		env:     env,
		spec:    spec,
		compute: newRefResource(env, 1),
		dma:     newRefResource(env, spec.DMAEngines),
		allIdle: sim.NewWaitGroup(env),
	}
}

func (d *refDevice) Listen(l Listener) { d.listeners = append(d.listeners, l) }

// newOp returns a zeroed Op from the device's slab.
func (d *refDevice) newOp() *refOp {
	if len(d.opSlab) == 0 {
		d.opSlab = make([]refOp, 64)
	}
	o := &d.opSlab[0]
	d.opSlab = d.opSlab[1:]
	return o
}

// Wait parks the calling process until the operation completes.
func (o *refOp) Wait(p *sim.Proc) {
	for !o.done {
		o.doneSig.Wait(p)
	}
}

// refStream is an in-order execution queue on a device, the unit of
// concurrency a host thread submits work through.
type refStream struct {
	id  int
	dev *refDevice
	// The host-side enqueue path appends to the queue and fires arrive;
	// the stream runner consumes it.
	queue []*refOp
	// head: queue[:head] is consumed; the array is reused once drained.
	head int
	// pending counts queued + executing ops.
	pending int
	arrive  *sim.Signal
	drained *sim.Signal
	closed  bool
}

// NewStream creates a stream and starts its runner process.
func (d *refDevice) NewStream() *refStream {
	s := &refStream{
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

// Destroy stops the stream's runner once its queue drains; further
// enqueues panic.
func (s *refStream) Destroy() {
	s.closed = true
	s.arrive.Fire()
}

// enqueue adds an op and wakes the runner.
func (s *refStream) enqueue(o *refOp) *refOp {
	if s.closed {
		panic("gpu: enqueue on destroyed stream")
	}
	o.doneSig.Bind(s.dev.env)
	s.queue = append(s.queue, o)
	s.pending++
	s.dev.allIdle.Add(1)
	s.arrive.Fire()
	return o
}

// EnqueueKernel submits a kernel launch and returns immediately (the
// asynchronous CUDA semantics; the cuda layer adds host-side launch cost).
func (s *refStream) EnqueueKernel(k Kernel) *refOp {
	o := s.dev.newOp()
	o.kind, o.kernel = opKernel, k
	return s.enqueue(o)
}

// EnqueueCopy submits a memory transfer of n bytes.
func (s *refStream) EnqueueCopy(dir Direction, n int64) *refOp {
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
func (s *refStream) EnqueueMarker() *refOp {
	o := s.dev.newOp()
	o.kind = opMark
	return s.enqueue(o)
}

// Sync parks the calling process until every operation enqueued so far has
// completed.
func (s *refStream) Sync(p *sim.Proc) {
	for s.pending > 0 {
		s.drained.Wait(p)
	}
}

// Sync parks the calling process until every stream on the device drains —
// cudaDeviceSynchronize.
func (d *refDevice) Sync(p *sim.Proc) {
	d.allIdle.Wait(p)
}

// run is the stream's device-side execution loop.
func (s *refStream) run(p *sim.Proc) {
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
func (s *refStream) execKernel(p *sim.Proc, o *refOp) {
	d := s.dev
	d.compute.Acquire(p)
	if d.everComputed && d.lastStream != s.id && d.spec.ContextSwitch > 0 {
		p.Sleep(d.spec.ContextSwitch)
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
	}
	dur := base + warmup
	p.Sleep(dur)
	end := p.Now()
	d.lastComputeEnd = end
	d.lastStream = s.id
	d.everComputed = true
	d.compute.Release()

	ev := KernelEvent{
		Stream:  s.id,
		Name:    o.kernel.Name,
		Start:   start,
		End:     end,
		Warmup:  warmup,
		IdleGap: gap,
	}
	for _, l := range d.listeners {
		l.OnKernel(ev)
	}
}

// execCopy runs a transfer on a DMA engine.
func (s *refStream) execCopy(p *sim.Proc, o *refOp) {
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
	d.dma.Release()

	ev := CopyEvent{
		Stream: s.id,
		Dir:    o.dir,
		Bytes:  o.bytes,
		Start:  start,
		End:    end,
	}
	for _, l := range d.listeners {
		l.OnCopy(ev)
	}
}

// waiter is an enqueued op of either implementation.
type waiter interface{ Wait(p *sim.Proc) }

// fuzzStream and fuzzDevice put the callback chain and the reference
// runner behind one interface.
type fuzzStream interface {
	kernel(k Kernel) waiter
	copy(dir Direction, n int64) waiter
	marker() waiter
	Sync(p *sim.Proc)
	Destroy()
}

type fuzzDevice interface {
	stream() fuzzStream
	release(w waiter)
	Sync(p *sim.Proc)
	Listen(l Listener)
}

type liveDevice struct{ *Device }

func (d liveDevice) stream() fuzzStream { return liveStream{d.NewStream()} }
func (d liveDevice) release(w waiter)   { d.Release(w.(*Op)) }

type liveStream struct{ *Stream }

func (s liveStream) kernel(k Kernel) waiter             { return s.EnqueueKernel(k) }
func (s liveStream) copy(dir Direction, n int64) waiter { return s.EnqueueCopy(dir, n) }
func (s liveStream) marker() waiter                     { return s.EnqueueMarker() }

func (d *refDevice) stream() fuzzStream { return d.NewStream() }

// release is a no-op: the runner never reuses an op.
func (d *refDevice) release(waiter) {}

func (s *refStream) kernel(k Kernel) waiter             { return s.EnqueueKernel(k) }
func (s *refStream) copy(dir Direction, n int64) waiter { return s.EnqueueCopy(dir, n) }
func (s *refStream) marker() waiter                     { return s.EnqueueMarker() }

// fuzzSpec switches every branch of the device on: context switches,
// warm-up after idle gaps, a copy latency and two DMA engines.
func fuzzSpec() Spec {
	s := fastSpec()
	s.ContextSwitch = 20 * sim.Microsecond
	s.CopyLatency = 2 * sim.Microsecond
	s.WarmupRate = 0.5
	s.WarmupSaturation = 50 * sim.Microsecond
	return s
}

// streamRun is what FuzzStreamOps compares between the implementations.
type streamRun struct {
	events []any        // KernelEvents and CopyEvents in completion order
	wakes  [][]sim.Time // each host's time after every blocking call
	// The engine's Scheduled, Delivered, Cancelled and PeakPending counts,
	// read after Run and before Close.
	stats [4]uint64
}

// Stream program bytes. The first byte sets 1-3 hosts (b%3+1) and 1-4
// streams created before the run (b/3%4+1). Each later byte is one
// operation of host i%hosts, in order: bits 0-2 are the opcode, bits 3-4
// the stream (modulo the streams created so far) and bits 5-7 an
// argument a.
const (
	opcKernel  = iota // enqueue a kernel of (a+1)·5 µs
	opcCopy           // enqueue a copy of (a+1)·4 KiB in direction a%3
	opcMarker         // enqueue a marker
	opcSleep          // sleep a µs
	opcWait           // Op.Wait on the host's last op; odd a: then Release it; a 2 or 6: Release it without waiting
	opcSync           // Stream.Sync
	opcDevSync        // Device.Sync
	opcLife           // even a: Destroy the stream; odd a: create a stream (at most 4)
)

func progHeader(hosts, streams int) byte { return byte(hosts - 1 + 3*(streams-1)) }

func progOp(opc, stream, arg int) byte { return byte(opc | stream<<3 | arg<<5) }

// runStreamProg runs a stream program on the callback chain, or on the
// reference runner when ref is set.
func runStreamProg(data []byte, ref bool) streamRun {
	env := sim.NewEnv()
	defer env.Close()
	var dev fuzzDevice
	if ref {
		dev = newRefDevice(env, fuzzSpec())
	} else {
		d, err := NewDevice(env, fuzzSpec())
		if err != nil {
			panic(err)
		}
		dev = liveDevice{d}
	}
	var r streamRun
	dev.Listen(listenerFunc{
		onKernel: func(ev KernelEvent) { r.events = append(r.events, ev) },
		onCopy:   func(ev CopyEvent) { r.events = append(r.events, ev) },
	})
	var (
		streams   []fuzzStream
		destroyed []bool
	)
	for range int(data[0]/3%4) + 1 {
		streams = append(streams, dev.stream())
		destroyed = append(destroyed, false)
	}
	hosts := int(data[0]%3) + 1
	r.wakes = make([][]sim.Time, hosts)
	for h := range hosts {
		env.Spawn("host"+strconv.Itoa(h), func(p *sim.Proc) {
			var last waiter
			for i := 1 + h; i < len(data); i += hosts {
				b := data[i]
				si, a := int(b>>3&3)%len(streams), int(b>>5)
				s, live := streams[si], !destroyed[si]
				switch b & 7 {
				case opcKernel:
					if live {
						last = s.kernel(Kernel{Name: "k" + strconv.Itoa(a), FixedTime: sim.Duration(a+1) * 5 * sim.Microsecond})
					}
					continue
				case opcCopy:
					if live {
						last = s.copy(Direction(a%3), int64(a+1)*4096)
					}
					continue
				case opcMarker:
					if live {
						last = s.marker()
					}
					continue
				case opcSleep:
					p.Sleep(sim.Duration(a) * sim.Microsecond)
				case opcWait:
					if last == nil {
						continue
					}
					if a == 2 || a == 6 {
						// The stream recycles the op when it completes.
						dev.release(last)
						last = nil
						continue
					}
					last.Wait(p)
					if a%2 == 1 {
						dev.release(last)
						last = nil
					}
				case opcSync:
					s.Sync(p)
				case opcDevSync:
					dev.Sync(p)
				case opcLife:
					if a%2 == 0 && live {
						s.Destroy()
						destroyed[si] = true
					} else if a%2 == 1 && len(streams) < 4 {
						streams = append(streams, dev.stream())
						destroyed = append(destroyed, false)
					}
					continue
				}
				r.wakes[h] = append(r.wakes[h], p.Now())
			}
		})
	}
	env.Run()
	st := env.Stats()
	r.stats = [4]uint64{st.Scheduled, st.Delivered, st.Cancelled, st.PeakPending}
	return r
}

// FuzzStreamOps runs random host programs against the device's callback
// streams and against the process-based runner they replaced, and
// requires the same kernel and copy completions in the same order, the
// same host wake times and the same engine event counts: a callback
// takes exactly the (time, seq) slot of the runner wake-up it stands for.
func FuzzStreamOps(f *testing.F) {
	k := func(s, a int) byte { return progOp(opcKernel, s, a) }
	cp := func(s, a int) byte { return progOp(opcCopy, s, a) }
	sync := func(s int) byte { return progOp(opcSync, s, 0) }
	devSync := progOp(opcDevSync, 0, 0)
	// Seeds: stream 0's second kernel barges in ahead of stream 1's
	// released waiter; work enqueued on a stream created mid-run, before
	// its first step; Destroy on an idle stream and on a busy one; three
	// streams sharing two DMA engines; a mixed program of three hosts; and
	// ops released while queued and after a wait, then reused.
	f.Add([]byte{progHeader(1, 2), k(0, 3), k(0, 1), k(1, 2), devSync})
	f.Add([]byte{progHeader(1, 1), progOp(opcLife, 0, 1), k(1, 2), cp(1, 0),
		progOp(opcWait, 0, 0), sync(1)})
	f.Add([]byte{progHeader(1, 2), k(0, 1), sync(0), progOp(opcLife, 0, 0),
		k(1, 4), progOp(opcLife, 1, 0), k(1, 1), devSync})
	f.Add([]byte{progHeader(1, 3), cp(0, 0), cp(1, 1), cp(2, 2), cp(0, 7), k(1, 0), devSync})
	f.Add([]byte{progHeader(3, 2), k(0, 2), cp(1, 1), progOp(opcSleep, 0, 3),
		progOp(opcMarker, 1, 0), progOp(opcWait, 0, 0), k(1, 5), sync(0), devSync,
		progOp(opcLife, 1, 3), k(2, 0), cp(2, 4), progOp(opcWait, 0, 0)})
	f.Add([]byte{progHeader(1, 2), k(0, 3), progOp(opcWait, 0, 2), k(1, 1),
		progOp(opcWait, 0, 1), cp(0, 2), k(0, 0), progOp(opcWait, 0, 6),
		progOp(opcMarker, 1, 0), progOp(opcWait, 0, 3), k(1, 4), devSync})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 256 {
			data = data[:256]
		}
		got, want := runStreamProg(data, false), runStreamProg(data, true)
		for i := range min(len(got.events), len(want.events)) {
			if !reflect.DeepEqual(got.events[i], want.events[i]) {
				t.Fatalf("completion %d: %+v, runner %+v", i, got.events[i], want.events[i])
			}
		}
		if len(got.events) != len(want.events) {
			t.Fatalf("%d completions, runner %d", len(got.events), len(want.events))
		}
		if !reflect.DeepEqual(got.wakes, want.wakes) {
			t.Fatalf("host wake times %v, runner %v", got.wakes, want.wakes)
		}
		if got.stats != want.stats {
			t.Fatalf("scheduled, delivered, cancelled, peak pending = %v, runner %v", got.stats, want.stats)
		}
	})
}
