package serve

import (
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/remoting"
	"repro/internal/sim"
)

// Transport is the engine's seam onto a GPU: either a cuda.Context whose
// calls a slack.Injector delays (the paper's controlled-injection method),
// or the fault-tolerant remoting transport, under which every submission
// round-trips the fabric and the fault schedule applies.
type Transport interface {
	Malloc(p *sim.Proc, n int64) (gpu.Ptr, error)
	Free(p *sim.Proc, h gpu.Ptr) error
	MemcpyH2D(p *sim.Proc, h gpu.Ptr, n int64) error
	MemcpyD2H(p *sim.Proc, h gpu.Ptr, n int64) error
	// RunKernels submits ks in order and returns when all have completed.
	RunKernels(p *sim.Proc, ks []gpu.Kernel) error
}

// Local drives a node-attached (or slack-injected) GPU through a
// cuda.Context, submitting kernel sequences asynchronously on a dedicated
// stream and synchronizing once per sequence — the batcher's submission
// pattern on a healthy pool.
type Local struct {
	ctx    *cuda.Context
	stream *gpu.Stream
}

// NewLocal wraps ctx in a Transport. The dedicated stream is created
// lazily on first kernel submission (stream creation is itself an API
// call that needs a sim proc).
func NewLocal(ctx *cuda.Context) *Local { return &Local{ctx: ctx} }

func (l *Local) Malloc(p *sim.Proc, n int64) (gpu.Ptr, error) { return l.ctx.Malloc(p, n) }
func (l *Local) Free(p *sim.Proc, h gpu.Ptr) error            { return l.ctx.Free(p, h) }
func (l *Local) MemcpyH2D(p *sim.Proc, h gpu.Ptr, n int64) error {
	return l.ctx.MemcpyH2D(p, h, n)
}
func (l *Local) MemcpyD2H(p *sim.Proc, h gpu.Ptr, n int64) error {
	return l.ctx.MemcpyD2H(p, h, n)
}

func (l *Local) RunKernels(p *sim.Proc, ks []gpu.Kernel) error {
	if l.stream == nil {
		l.stream = l.ctx.StreamCreate(p)
	}
	for _, k := range ks {
		l.ctx.Launch(p, k, l.stream)
	}
	l.ctx.StreamSynchronize(p, l.stream)
	return nil
}

// Remote drives a GPU through the fault-tolerant remoting transport.
// Every kernel submission is a synchronous round trip (the rCUDA model),
// so the path's latency — and any faults on it — sit on the batcher's
// critical path.
type Remote struct {
	r *remoting.Resilient
}

// NewRemote wraps a resilient transport.
func NewRemote(r *remoting.Resilient) *Remote { return &Remote{r: r} }

func (r *Remote) Malloc(p *sim.Proc, n int64) (gpu.Ptr, error) { return r.r.Malloc(p, n) }
func (r *Remote) Free(p *sim.Proc, h gpu.Ptr) error            { return r.r.Free(p, h) }
func (r *Remote) MemcpyH2D(p *sim.Proc, h gpu.Ptr, n int64) error {
	return r.r.MemcpyH2D(p, h, n)
}
func (r *Remote) MemcpyD2H(p *sim.Proc, h gpu.Ptr, n int64) error {
	return r.r.MemcpyD2H(p, h, n)
}

func (r *Remote) RunKernels(p *sim.Proc, ks []gpu.Kernel) error {
	for _, k := range ks {
		if err := r.r.LaunchSync(p, k); err != nil {
			return err
		}
	}
	return r.r.DeviceSynchronize(p)
}

var (
	_ Transport = (*Local)(nil)
	_ Transport = (*Remote)(nil)
)
