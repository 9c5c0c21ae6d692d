package serve

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Policy selects how the admission queue is drained onto the GPU.
type Policy int

const (
	// NoBatch serves requests FCFS one at a time: prefill, then every
	// decode step at batch width one.
	NoBatch Policy = iota
	// FixedBatch takes up to MaxBatch queued requests and runs the whole
	// batch to completion: every member decodes for as many steps as the
	// longest output in the batch, and all complete together — classic
	// static batching with its head-of-line penalty.
	FixedBatch
	// Continuous re-admits from the queue between decode iterations:
	// finished sequences leave the batch immediately and new requests
	// join it without waiting for the batch to drain (iteration-level
	// scheduling, the vLLM/Orca discipline).
	Continuous
)

// String names the policy for reports.
func (p Policy) String() string {
	switch p {
	case NoBatch:
		return "nobatch"
	case FixedBatch:
		return "fixed"
	case Continuous:
		return "continuous"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Model describes the served model: parameter count drives the prefill and
// decode kernel costs, BytesPerToken the host↔device traffic per token
// (token ids in, sampled ids out — serving transfers are tiny, which is
// exactly why per-call latency, not bandwidth, dominates its slack
// sensitivity).
type Model struct {
	Name          string
	Params        float64
	BytesPerToken int64
}

// DefaultModel is a 100M-parameter transformer: decode steps land in the
// hundreds of microseconds on the A100 model, the regime where row-scale
// slack is a material fraction of every iteration.
func DefaultModel() Model {
	return Model{Name: "transformer-100m", Params: 1e8, BytesPerToken: 4}
}

// Config shapes one serving engine (one GPU replica).
type Config struct {
	// Policy is the batching discipline; MaxBatch caps the decode batch
	// width for FixedBatch and Continuous (default 8).
	Policy   Policy
	MaxBatch int
	// Model is the served model; a zero Model takes DefaultModel.
	Model Model
	// Tenants is the tenant table requests index into (for SLO lookup).
	Tenants []Tenant
	// Admission tunes deadline-aware load shedding under degraded
	// capacity; the zero value disables it.
	Admission Admission
	// RecordSpans collects request and batch spans for Chrome-trace
	// export (off by default: spans allocate).
	RecordSpans bool
}

func (c *Config) withDefaults() error {
	switch c.Policy {
	case NoBatch, FixedBatch, Continuous:
	default:
		return fmt.Errorf("serve: unknown policy %v", c.Policy)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.Model.Params <= 0 {
		c.Model = DefaultModel()
	}
	if c.Model.BytesPerToken <= 0 {
		return fmt.Errorf("serve: model %q has no BytesPerToken", c.Model.Name)
	}
	if len(c.Tenants) == 0 {
		return fmt.Errorf("serve: config has no tenants")
	}
	return nil
}

// workspaceBytes is the device allocation a replica holds for activations
// and KV state; transfers stage through it.
const workspaceBytes = 64 << 20

// pending is one request waiting in, or admitted from, the queue.
type pending struct {
	req       Request
	remaining int  // decode steps left
	shed      bool // shed by backpressure while queued; pop discards it
}

// Engine serves one replica's request stream: a chain of arrival
// callbacks feeds the admission queue on the sim clock and a batcher
// process drains it through the Transport according to the configured
// policy. Results are valid after env.Run() returns.
type Engine struct {
	env   *sim.Env
	tr    Transport
	cfg   Config
	total int

	// reqs is the arrival schedule; reqs[:next] have arrived. arriveFn
	// is the bound arrive callback, so a wait allocates no closure.
	reqs     []Request
	next     int
	arriveFn func()

	// The admission queue and completion count: only the arrival
	// callbacks and the batcher touch them.
	queue []*pending
	// qhead: queue[:qhead] is served; the array is reused once drained.
	qhead int
	// depth counts live (unserved, unshed) queued requests; backpressure
	// marks victims shed in place and pop discards them lazily.
	depth     int
	more      *sim.Signal
	completed int

	// ks and batchBuf are per-step scratch reused across iterations, and
	// pendSlab batch-allocates pending records (never recycled — the
	// queue and active batch hold pointers into it). Together they keep
	// the steady-state batching loop allocation-free.
	ks       []gpu.Kernel
	batchBuf []*pending
	pendSlab []pending

	m     *Metrics
	spans []trace.AppSpan
	err   error

	// workspace is the replica's device allocation; transfers stage
	// through it.
	workspace gpu.Ptr
}

// Start validates the configuration and the requests, schedules the
// engine's first arrival callback and spawns its batcher process on env.
// The caller runs the simulation (env.Run) and then reads Err, Metrics
// and Spans.
func Start(env *sim.Env, tr Transport, cfg Config, reqs []Request) (*Engine, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	for _, r := range reqs {
		if r.Tenant < 0 || r.Tenant >= len(cfg.Tenants) {
			return nil, fmt.Errorf("serve: request %d names tenant %d of %d", r.ID, r.Tenant, len(cfg.Tenants))
		}
		if r.PromptTokens < 1 || r.OutputTokens < 1 {
			return nil, fmt.Errorf("serve: request %d has empty prompt or output", r.ID)
		}
		if !(r.Arrival >= 0) || math.IsInf(float64(r.Arrival), 1) {
			return nil, fmt.Errorf("serve: request %d arrival %v is not finite and non-negative", r.ID, r.Arrival)
		}
	}
	e := &Engine{
		env:   env,
		tr:    tr,
		cfg:   cfg,
		total: len(reqs),
		reqs:  reqs,
		more:  sim.NewSignal(env),
		m:     &Metrics{},
	}
	e.m.Requests = len(reqs)
	if cfg.Admission.enabled() {
		e.m.ShedByTenant = make([]int, len(cfg.Tenants))
	}
	// The first arrival step is an event, not run inline here, so the
	// batcher's start keeps its place after it.
	e.arriveFn = e.arrive
	env.After(0, e.arrivals)
	env.Spawn("serve-batcher", e.batcher)
	return e, nil
}

// Err returns the first transport error the engine hit (nil on success).
func (e *Engine) Err() error { return e.err }

// Metrics returns the engine's measurement record.
func (e *Engine) Metrics() *Metrics { return e.m }

// Spans returns the recorded serving spans (empty unless RecordSpans).
func (e *Engine) Spans() []trace.AppSpan { return e.spans }

// Completed returns how many requests have finished.
func (e *Engine) Completed() int { return e.completed }

// arrivals delivers the pre-generated schedule into the admission queue:
// every request whose arrival time has come is enqueued inline, and the
// chain waits for the next one with an After delay. Every arrival fires
// the signal — even one shed at the door — so the batcher re-checks its
// completion condition.
func (e *Engine) arrivals() {
	for ; e.next < len(e.reqs); e.next++ {
		if d := e.reqs[e.next].Arrival.Sub(e.env.Now()); d > 0 {
			e.env.After(d, e.arriveFn)
			return
		}
		e.enqueueNext()
	}
}

// arrive ends the wait for reqs[next]: that request is due now, without
// re-reading the clock (now+(arrival−now) need not round back to the
// arrival time), and the chain carries on.
func (e *Engine) arrive() {
	e.enqueueNext()
	e.next++
	e.arrivals()
}

// enqueueNext enqueues reqs[next] and wakes the batcher.
func (e *Engine) enqueueNext() {
	e.enqueue(e.newPending(e.reqs[e.next]))
	e.more.Fire()
}

// enqueue admits one request, applying queue-cap backpressure while the
// admission gate is armed: a full queue sheds its lowest-priority member
// (ties: latest arrival), or the incoming request itself when nothing
// queued ranks below it.
func (e *Engine) enqueue(pd *pending) {
	a := e.cfg.Admission
	if a.MaxQueue > 0 && e.depth >= a.MaxQueue && a.armed() {
		vi, vp := -1, 0
		for i := len(e.queue) - 1; i >= e.qhead; i-- {
			q := e.queue[i]
			if q.shed {
				continue
			}
			if p := e.cfg.Tenants[q.req.Tenant].Priority; vi == -1 || p > vp {
				vi, vp = i, p
			}
		}
		if vi == -1 || e.cfg.Tenants[pd.req.Tenant].Priority >= vp {
			e.m.shed(pd.req.Tenant)
			return
		}
		e.queue[vi].shed = true
		e.depth--
		e.m.shed(e.queue[vi].req.Tenant)
	}
	e.queue = append(e.queue, pd)
	e.depth++
}

// newPending hands out a pending record from the engine's slab.
func (e *Engine) newPending(r Request) *pending {
	if len(e.pendSlab) == 0 {
		e.pendSlab = make([]pending, 64)
	}
	pd := &e.pendSlab[0]
	e.pendSlab = e.pendSlab[1:]
	pd.req, pd.remaining = r, r.OutputTokens
	return pd
}

// qlen returns the number of live (unserved, unshed) queued requests.
func (e *Engine) qlen() int { return e.depth }

// batcher drains the queue until every request has completed or been
// shed.
func (e *Engine) batcher(p *sim.Proc) {
	in, err := e.tr.Malloc(p, workspaceBytes)
	if err != nil {
		e.err = err
		return
	}
	e.workspace = in
	for e.completed+e.m.Shed < e.total {
		if e.qlen() == 0 {
			e.more.Wait(p)
			continue
		}
		switch e.cfg.Policy {
		case NoBatch:
			err = e.stepNoBatch(p)
		case FixedBatch:
			err = e.stepFixed(p)
		default: // Continuous; withDefaults rejected anything else
			err = e.stepContinuous(p)
		}
		if err != nil {
			e.err = err
			return
		}
	}
	if err := e.tr.Free(p, in); err != nil {
		e.err = err
	}
}

// pop removes and returns the live queue head, discarding entries shed
// by backpressure and rewinding onto the same backing array once the
// queue drains. The caller guarantees qlen() > 0.
func (e *Engine) pop() *pending {
	for {
		r := e.queue[e.qhead]
		e.queue[e.qhead] = nil
		e.qhead++
		if e.qhead == len(e.queue) {
			e.queue = e.queue[:0]
			e.qhead = 0
		}
		if r.shed {
			continue
		}
		e.depth--
		return r
	}
}

// take pops live requests, shedding any whose queue wait alone already
// blew the tenant's SLO while the admission gate is armed. It returns
// nil once the queue is empty (everything left was shed or expired).
func (e *Engine) take(p *sim.Proc) *pending {
	a := e.cfg.Admission
	for e.qlen() > 0 {
		r := e.pop()
		if a.ShedExpired && p.Now().Sub(r.req.Arrival) > e.cfg.Tenants[r.req.Tenant].SLO && a.armed() {
			e.m.shed(r.req.Tenant)
			continue
		}
		return r
	}
	return nil
}

// finish moves the request's output back to the host and records its
// latency against the owning tenant's SLO.
func (e *Engine) finish(p *sim.Proc, r *pending) error {
	if err := e.tr.MemcpyD2H(p, e.workspace, int64(r.req.OutputTokens)*e.cfg.Model.BytesPerToken); err != nil {
		return err
	}
	done := p.Now()
	e.m.record(done.Sub(r.req.Arrival), e.cfg.Tenants[r.req.Tenant].SLO)
	e.completed++
	if e.cfg.RecordSpans {
		e.spans = append(e.spans, trace.AppSpan{
			Name:  "req " + strconv.Itoa(r.req.ID) + " (" + e.cfg.Tenants[r.req.Tenant].Name + ")",
			Cat:   "request",
			Track: r.req.Tenant,
			Start: r.req.Arrival,
			End:   done,
		})
	}
	return nil
}

// admit stages the request's prompt onto the device and returns its
// prefill kernel.
func (e *Engine) admit(p *sim.Proc, r *pending) (gpu.Kernel, error) {
	n := int64(r.req.PromptTokens) * e.cfg.Model.BytesPerToken
	if err := e.tr.MemcpyH2D(p, e.workspace, n); err != nil {
		return gpu.Kernel{}, err
	}
	return gpu.Prefill(r.req.PromptTokens, e.cfg.Model.Params), nil
}

// batchSpan records one batch execution span.
func (e *Engine) batchSpan(kind string, n int, start, end sim.Time) {
	if e.cfg.RecordSpans {
		e.spans = append(e.spans, trace.AppSpan{
			Name:  kind + " n=" + strconv.Itoa(n),
			Cat:   "batch",
			Track: batchTrack,
			Start: start,
			End:   end,
		})
	}
}

// batchTrack is the span track batches render on (above the per-tenant
// request tracks).
const batchTrack = -1

// stepNoBatch serves exactly one request FCFS.
func (e *Engine) stepNoBatch(p *sim.Proc) error {
	e.m.QueueDepths = append(e.m.QueueDepths, float64(e.qlen()))
	r := e.take(p)
	if r == nil {
		return nil
	}
	start := p.Now()
	prefill, err := e.admit(p, r)
	if err != nil {
		return err
	}
	ks := append(e.ks[:0], prefill)
	for i := 0; i < r.remaining; i++ {
		ks = append(ks, gpu.DecodeStep(1, e.cfg.Model.Params))
	}
	e.ks = ks[:0]
	if err := e.tr.RunKernels(p, ks); err != nil {
		return err
	}
	for i := 0; i < r.remaining; i++ {
		e.m.BatchSizes = append(e.m.BatchSizes, 1)
	}
	r.remaining = 0
	if err := e.finish(p, r); err != nil {
		return err
	}
	e.batchSpan("nobatch", 1, start, p.Now())
	return nil
}

// stepFixed serves one static batch to completion.
func (e *Engine) stepFixed(p *sim.Proc) error {
	e.m.QueueDepths = append(e.m.QueueDepths, float64(e.qlen()))
	batch := e.batchBuf[:0]
	for len(batch) < e.cfg.MaxBatch && e.qlen() > 0 {
		r := e.take(p)
		if r == nil {
			break
		}
		batch = append(batch, r)
	}
	e.batchBuf = batch
	if len(batch) == 0 {
		return nil
	}
	start := p.Now()
	ks := e.ks[:0]
	steps := 0
	for _, r := range batch {
		prefill, err := e.admit(p, r)
		if err != nil {
			return err
		}
		ks = append(ks, prefill)
		if r.remaining > steps {
			steps = r.remaining
		}
	}
	// Static batching pads every sequence to the longest: the batch holds
	// the device for steps iterations at full width.
	for i := 0; i < steps; i++ {
		ks = append(ks, gpu.DecodeStep(len(batch), e.cfg.Model.Params))
	}
	e.ks = ks[:0]
	if err := e.tr.RunKernels(p, ks); err != nil {
		return err
	}
	for i := 0; i < steps; i++ {
		e.m.BatchSizes = append(e.m.BatchSizes, float64(len(batch)))
	}
	for _, r := range batch {
		r.remaining = 0
		if err := e.finish(p, r); err != nil {
			return err
		}
	}
	e.batchSpan("fixed", len(batch), start, p.Now())
	return nil
}

// stepContinuous runs iteration-level scheduling until the active batch
// and the queue are both empty, admitting new requests between decode
// iterations.
func (e *Engine) stepContinuous(p *sim.Proc) error {
	active := e.batchBuf[:0]
	for {
		e.m.QueueDepths = append(e.m.QueueDepths, float64(e.qlen()))
		start := p.Now()
		ks := e.ks[:0]
		for len(active) < e.cfg.MaxBatch && e.qlen() > 0 {
			r := e.take(p)
			if r == nil {
				break
			}
			prefill, err := e.admit(p, r)
			if err != nil {
				return err
			}
			ks = append(ks, prefill)
			active = append(active, r)
		}
		if len(active) == 0 {
			e.batchBuf = active
			return nil
		}
		width := len(active)
		ks = append(ks, gpu.DecodeStep(width, e.cfg.Model.Params))
		e.ks = ks[:0]
		if err := e.tr.RunKernels(p, ks); err != nil {
			return err
		}
		e.m.BatchSizes = append(e.m.BatchSizes, float64(width))
		keep := active[:0]
		for _, r := range active {
			r.remaining--
			if r.remaining <= 0 {
				if err := e.finish(p, r); err != nil {
					return err
				}
				continue
			}
			keep = append(keep, r)
		}
		e.batchSpan("iter", width, start, p.Now())
		active = keep
	}
}
