// Package cuda provides a CUDA-runtime-like host API over the simulated
// GPU device: contexts, memory management, synchronous and asynchronous
// memcpy, kernel launch, streams, events, and device synchronization.
//
// Every public call is routed through an interposition point so that the
// slack injector (package slack) and the tracer (package trace) can observe
// it — the same seam the paper exploits with its sleep-after-every-call
// method, without requiring LD_PRELOAD or source edits.
package cuda

import (
	"errors"
	"fmt"

	"repro/internal/gpu"
	"repro/internal/sim"
)

// CallClass categorizes API calls for interposers. The paper delays calls
// that cross the host↔device link: transfers, launches, synchronizations.
type CallClass int

const (
	// ClassMemcpyH2D is a host-to-device transfer call.
	ClassMemcpyH2D CallClass = iota
	// ClassMemcpyD2H is a device-to-host transfer call.
	ClassMemcpyD2H
	// ClassMemcpyD2D is a device-to-device transfer call.
	ClassMemcpyD2D
	// ClassLaunch is a kernel launch.
	ClassLaunch
	// ClassSync is a stream/device/event synchronization.
	ClassSync
	// ClassMemory is memory management (malloc/free).
	ClassMemory
	// ClassMisc is everything else (stream/event create and destroy).
	ClassMisc
)

// String names the class.
func (c CallClass) String() string {
	switch c {
	case ClassMemcpyH2D:
		return "memcpy-h2d"
	case ClassMemcpyD2H:
		return "memcpy-d2h"
	case ClassMemcpyD2D:
		return "memcpy-d2d"
	case ClassLaunch:
		return "launch"
	case ClassSync:
		return "sync"
	case ClassMemory:
		return "memory"
	case ClassMisc:
		return "misc"
	default:
		return fmt.Sprintf("CallClass(%d)", int(c))
	}
}

// CrossesLink reports whether a call of this class requires host↔device
// communication — the calls the paper's method injects slack on.
func (c CallClass) CrossesLink() bool {
	switch c {
	case ClassMemcpyH2D, ClassMemcpyD2H, ClassLaunch, ClassSync:
		return true
	default:
		return false
	}
}

// CallInfo describes one API invocation to interposers.
type CallInfo struct {
	Name  string
	Class CallClass
	Bytes int64 // payload size for transfers, 0 otherwise
}

// Interposer observes API calls. Before runs before the call body, After
// immediately after it returns; both run on the calling host process and
// may sleep (this is how slack is injected).
type Interposer interface {
	Before(p *sim.Proc, info CallInfo)
	After(p *sim.Proc, info CallInfo)
}

// Config tunes host-side API behaviour.
type Config struct {
	// CallOverhead is the driver/runtime cost charged on the host for
	// every API call. Zero selects the default (1.5 µs, a typical
	// cudart dispatch cost); negative disables the charge.
	CallOverhead sim.Duration
}

// DefaultCallOverhead is the per-call driver cost used when Config leaves
// CallOverhead zero.
const DefaultCallOverhead = 1500 * sim.Nanosecond

// Context binds host processes to one device, exposing the runtime API.
// A Context may be shared by many host processes (OpenMP threads), each
// typically owning its own Stream.
type Context struct {
	dev          *gpu.Device
	callOverhead sim.Duration
	interposers  []Interposer
	defaultStrm  *gpu.Stream

	// launchNames caches the "cudaLaunchKernel:<name>" /
	// "cudaLaunchKernelSync:<name>" CallInfo strings: kernel names come
	// from a small fixed set per workload, and rebuilding the
	// concatenation on every launch is a per-iteration allocation on the
	// hottest path in the module. Interposers (slack.WithSymbols) key on
	// these exact strings, so the cached values must match what the
	// concatenation produced.
	launchNames     map[string]string
	launchSyncNames map[string]string

	// eventSlab batch-allocates Events: the proxy records one per timed
	// iteration, and callers keep the pointers, so events are handed out
	// in chunks and never recycled.
	eventSlab []Event
}

// newEvent hands out an Event from the context's slab.
func (c *Context) newEvent(op *gpu.Op) *Event {
	if len(c.eventSlab) == 0 {
		c.eventSlab = make([]Event, 64)
	}
	e := &c.eventSlab[0]
	c.eventSlab = c.eventSlab[1:]
	e.op, e.at = op, 0
	return e
}

// launchName returns prefix+kernel, cached in m.
func launchName(m map[string]string, prefix, kernel string) string {
	if s, ok := m[kernel]; ok {
		return s
	}
	s := prefix + kernel
	m[kernel] = s
	return s
}

// ErrInvalidValue mirrors cudaErrorInvalidValue for size/pointer misuse.
var ErrInvalidValue = errors.New("cuda: invalid value")

// ErrDeviceLost mirrors cudaErrorDeviceLost: the physical device behind
// the context disappeared (GPU-server crash, failover abandoning the old
// chassis). Every error-returning call on a lost context reports it.
var ErrDeviceLost = errors.New("cuda: device lost")

// NewContext creates a context on dev with the given config.
func NewContext(dev *gpu.Device, cfg Config) *Context {
	ov := cfg.CallOverhead
	if ov == 0 {
		ov = DefaultCallOverhead
	}
	if ov < 0 {
		ov = 0
	}
	return &Context{
		dev:             dev,
		callOverhead:    ov,
		launchNames:     map[string]string{},
		launchSyncNames: map[string]string{},
	}
}

// Interpose registers an interposer; registration order is Before order
// (After runs in reverse, like deferred unwinding).
func (c *Context) Interpose(i Interposer) { c.interposers = append(c.interposers, i) }

// call wraps an API body with overhead accounting and interposition.
func (c *Context) call(p *sim.Proc, info CallInfo, body func()) {
	for _, i := range c.interposers {
		i.Before(p, info)
	}
	if c.callOverhead > 0 {
		p.Sleep(c.callOverhead)
	}
	body()
	for i := len(c.interposers) - 1; i >= 0; i-- {
		c.interposers[i].After(p, info)
	}
}

// defaultStream lazily creates the context's default stream (stream 0).
func (c *Context) defaultStream() *gpu.Stream {
	if c.defaultStrm == nil {
		c.defaultStrm = c.dev.NewStream()
	}
	return c.defaultStrm
}

// checkLost fails calls against a device that has been marked lost.
func (c *Context) checkLost() error {
	if c.dev.Lost() {
		return fmt.Errorf("%w: device %s", ErrDeviceLost, c.dev.Spec().Name)
	}
	return nil
}

// Malloc reserves n bytes of device memory.
func (c *Context) Malloc(p *sim.Proc, n int64) (gpu.Ptr, error) {
	if err := c.checkLost(); err != nil {
		return 0, err
	}
	var ptr gpu.Ptr
	var err error
	c.call(p, CallInfo{Name: "cudaMalloc", Class: ClassMemory, Bytes: n}, func() {
		ptr, err = c.dev.Malloc(n)
	})
	return ptr, err
}

// Free releases device memory.
func (c *Context) Free(p *sim.Proc, ptr gpu.Ptr) error {
	if err := c.checkLost(); err != nil {
		return err
	}
	var err error
	c.call(p, CallInfo{Name: "cudaFree", Class: ClassMemory}, func() {
		err = c.dev.Free(ptr)
	})
	return err
}

// MustFree releases device memory and panics on failure. It is the
// teardown form of Free for workload models: a free that fails mid-model
// means the model double-freed or fabricated a pointer, which is a bug in
// the simulation itself, not a runtime condition to recover from.
func (c *Context) MustFree(p *sim.Proc, ptr gpu.Ptr) {
	if err := c.Free(p, ptr); err != nil {
		panic(fmt.Sprintf("cuda: MustFree: %v", err))
	}
}

// checkCopy validates a transfer against the allocation it targets.
func (c *Context) checkCopy(ptr gpu.Ptr, n int64) error {
	if err := c.checkLost(); err != nil {
		return err
	}
	if n < 0 {
		return fmt.Errorf("%w: negative copy size %d", ErrInvalidValue, n)
	}
	size, err := c.dev.AllocSize(ptr)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidValue, err)
	}
	if n > size {
		return fmt.Errorf("%w: copy of %d bytes into %d-byte allocation", ErrInvalidValue, n, size)
	}
	return nil
}

// MemcpyH2D synchronously copies n bytes from the host into dst.
func (c *Context) MemcpyH2D(p *sim.Proc, dst gpu.Ptr, n int64) error {
	return c.memcpy(p, "cudaMemcpy(HtoD)", ClassMemcpyH2D, gpu.H2D, dst, n)
}

// MemcpyD2H synchronously copies n bytes from src to the host.
func (c *Context) MemcpyD2H(p *sim.Proc, src gpu.Ptr, n int64) error {
	return c.memcpy(p, "cudaMemcpy(DtoH)", ClassMemcpyD2H, gpu.D2H, src, n)
}

// memcpy implements the synchronous path: validate, enqueue on the default
// stream, wait for the operation (which, in stream order, also waits for
// all previously enqueued default-stream work — the legacy-stream
// serialization real CUDA exhibits).
func (c *Context) memcpy(p *sim.Proc, name string, class CallClass, dir gpu.Direction, ptr gpu.Ptr, n int64) error {
	if err := c.checkCopy(ptr, n); err != nil {
		return err
	}
	c.call(p, CallInfo{Name: name, Class: class, Bytes: n}, func() {
		op := c.defaultStream().EnqueueCopy(dir, n)
		op.Wait(p)
		c.dev.Release(op)
	})
	return nil
}

// Launch asynchronously submits kernel k on stream s (nil selects the
// default stream). The host returns after the driver dispatch cost; the
// kernel executes in stream order. Like cudaLaunchKernel it returns no
// handle: the op goes back to the device when the kernel completes, and
// a caller waits for it with StreamSynchronize, DeviceSynchronize or an
// event recorded after it.
func (c *Context) Launch(p *sim.Proc, k gpu.Kernel, s *gpu.Stream) {
	c.call(p, CallInfo{Name: launchName(c.launchNames, "cudaLaunchKernel:", k.Name), Class: ClassLaunch}, func() {
		if s == nil {
			s = c.defaultStream()
		}
		// The driver's launch cost is charged on the host in addition to
		// CallOverhead; when the device is busy it stays hidden from the
		// device timeline because the stream queue already holds work.
		if lo := c.dev.Spec().LaunchOverhead; lo > 0 {
			p.Sleep(lo)
		}
		c.dev.Release(s.EnqueueKernel(k))
	})
}

// LaunchSync submits kernel k on stream s (nil selects the default stream)
// and blocks until it completes — the fully synchronous dispatch the
// paper's proxy uses "to capture the pessimistic case": no host/device
// overlap hides injected slack.
func (c *Context) LaunchSync(p *sim.Proc, k gpu.Kernel, s *gpu.Stream) {
	c.call(p, CallInfo{Name: launchName(c.launchSyncNames, "cudaLaunchKernelSync:", k.Name), Class: ClassLaunch}, func() {
		if s == nil {
			s = c.defaultStream()
		}
		if lo := c.dev.Spec().LaunchOverhead; lo > 0 {
			p.Sleep(lo)
		}
		op := s.EnqueueKernel(k)
		op.Wait(p)
		c.dev.Release(op)
	})
}

// StreamCreate returns a new stream.
func (c *Context) StreamCreate(p *sim.Proc) *gpu.Stream {
	var s *gpu.Stream
	c.call(p, CallInfo{Name: "cudaStreamCreate", Class: ClassMisc}, func() {
		s = c.dev.NewStream()
	})
	return s
}

// StreamDestroy destroys a stream created with StreamCreate.
func (c *Context) StreamDestroy(p *sim.Proc, s *gpu.Stream) {
	c.call(p, CallInfo{Name: "cudaStreamDestroy", Class: ClassMisc}, func() {
		s.Destroy()
	})
}

// StreamSynchronize blocks until every operation enqueued on s completes.
func (c *Context) StreamSynchronize(p *sim.Proc, s *gpu.Stream) {
	c.call(p, CallInfo{Name: "cudaStreamSynchronize", Class: ClassSync}, func() {
		if s == nil {
			s = c.defaultStream()
		}
		s.Sync(p)
	})
}

// DeviceSynchronize blocks until every stream on the device drains.
func (c *Context) DeviceSynchronize(p *sim.Proc) {
	c.call(p, CallInfo{Name: "cudaDeviceSynchronize", Class: ClassSync}, func() {
		c.dev.Sync(p)
	})
}

// Event is a recorded position in a stream, as cudaEvent_t. It holds its
// marker op for good, so the op is never released.
type Event struct {
	op *gpu.Op
	at sim.Time // completion time, valid once Done
}

// EventRecord records an event at the current tail of stream s.
func (c *Context) EventRecord(p *sim.Proc, s *gpu.Stream) *Event {
	var e *Event
	c.call(p, CallInfo{Name: "cudaEventRecord", Class: ClassMisc}, func() {
		if s == nil {
			s = c.defaultStream()
		}
		e = c.newEvent(s.EnqueueMarker())
	})
	return e
}

// EventSynchronize blocks until the event's position in its stream has
// been reached, and returns the virtual time at which that happened.
func (c *Context) EventSynchronize(p *sim.Proc, e *Event) sim.Time {
	c.call(p, CallInfo{Name: "cudaEventSynchronize", Class: ClassSync}, func() {
		e.op.Wait(p)
		if e.at == 0 {
			e.at = p.Now()
		}
	})
	return e.at
}

// ElapsedTime returns the virtual time between two synchronized events,
// the GPU-side timing mechanism the proxy uses.
func ElapsedTime(start, end *Event) (sim.Duration, error) {
	if start == nil || end == nil || !start.op.Done() || !end.op.Done() {
		return 0, fmt.Errorf("%w: ElapsedTime on unsynchronized events", ErrInvalidValue)
	}
	return end.at.Sub(start.at), nil
}
