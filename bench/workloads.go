package main

// The four workloads. One iteration builds its simulations through the
// packages' public constructors, runs them to completion, renders every
// result they produced and checks that the counts add up. Host time spent
// in the constructors before env.Run is the iteration's set-up time.

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cuda"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/health"
	"repro/internal/pool"
	"repro/internal/remoting"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/slack"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// iters is the measured iteration count per round of the suite run,
	// sized so every workload measures for roughly the same host time.
	iters int
	// inputs is how many input sets a seed expands to; the measured loop
	// cycles through them. It is sized to the workload's sensitivity to
	// its inputs: the paper sections have none.
	inputs int
	run    func(seed int64, hk *hooks) (iteration, error)
}

var workloads = []workload{
	{"paper", 20, 1, runPaper},
	{"pool-8k", 32, 32, runPool},
	{"serve-local", 256, 64, runServeLocal},
	{"serve-churn", 128, 128, runServeChurn},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Seed salts: input seed s (see inputSeed) draws the pool jobs from
// poolSeedBase+s, the serving requests from requestSeedBase+s, and the
// churn faults and heartbeats from faultSeedBase+s. At s=1 the pool and
// request seeds are the ones the pool and serving experiments use at
// intensity 1 and load 1.
const (
	poolSeedBase    = 9002
	requestSeedBase = 41
	faultSeedBase   = 7000
)

// iteration is what one run of a workload produced.
type iteration struct {
	// out is the rendered result, compared byte for byte with the golden
	// and with the same input's first result.
	out   string
	setup time.Duration
	// poolStart is the host time of each pool.Start call.
	poolStart []time.Duration
	c         counts
}

// counts are an iteration's modeled counts, summed over its cells (peak
// and p99 take the maximum). They come from the public Stats and Report
// methods and repeat exactly for a given seed.
type counts struct {
	// simS is the simulated time the iteration's cells covered.
	simS float64
	// apiCalls counts CUDA API calls: those the paper's profiling runs
	// recorded, or those the counting interposer saw.
	apiCalls int64
	// transportCalls and transportWait are the counting transport's.
	transportCalls int64
	transportWait  sim.Duration

	remCalls, retries, timeouts, migrations, readmissions int64

	completed, shed, exhausted int
	p99                        sim.Duration

	beats, droppedBeats, suspicions, falseSuspicions int64

	placed, peakConcurrent int
	poolMigrations         int64
}

func (c *counts) addReport(r serve.Report) {
	c.completed += r.Completed
	c.shed += r.Shed
	c.p99 = max(c.p99, r.P99)
}

// hooks are the traced run's counting seams: a cuda.Interposer that counts
// API calls, and a serve.Transport wrapper that counts transport calls and
// sums the sim time each one blocks the batcher. They only observe, and
// the golden check shows they leave every result unchanged.
type hooks struct {
	apiCalls       int64
	transportCalls int64
	transportWait  sim.Duration
}

func (h *hooks) Before(*sim.Proc, cuda.CallInfo) {}
func (h *hooks) After(*sim.Proc, cuda.CallInfo)  { h.apiCalls++ }

// transport wraps tr in the counting seam when hooks are attached.
func (h *hooks) transport(tr serve.Transport) serve.Transport {
	if h == nil {
		return tr
	}
	return &countingTransport{tr: tr, h: h}
}

// interpose attaches the counting interposer to ctx when hooks are
// attached.
func (h *hooks) interpose(ctx *cuda.Context) {
	if h != nil {
		ctx.Interpose(h)
	}
}

type countingTransport struct {
	tr serve.Transport
	h  *hooks
}

// done books one transport call that began at start.
func (c *countingTransport) done(p *sim.Proc, start sim.Time) {
	c.h.transportCalls++
	c.h.transportWait += p.Now().Sub(start)
}

func (c *countingTransport) Malloc(p *sim.Proc, n int64) (gpu.Ptr, error) {
	defer c.done(p, p.Now())
	return c.tr.Malloc(p, n)
}

func (c *countingTransport) Free(p *sim.Proc, h gpu.Ptr) error {
	defer c.done(p, p.Now())
	return c.tr.Free(p, h)
}

func (c *countingTransport) MemcpyH2D(p *sim.Proc, h gpu.Ptr, n int64) error {
	defer c.done(p, p.Now())
	return c.tr.MemcpyH2D(p, h, n)
}

func (c *countingTransport) MemcpyD2H(p *sim.Proc, h gpu.Ptr, n int64) error {
	defer c.done(p, p.Now())
	return c.tr.MemcpyD2H(p, h, n)
}

func (c *countingTransport) RunKernels(p *sim.Proc, ks []gpu.Kernel) error {
	defer c.done(p, p.Now())
	return c.tr.RunKernels(p, ks)
}

// servingTenants is the serving experiment's tenant mix at load 1: an
// interactive chat tenant with a tight SLO and a batch-API tenant with a
// loose one.
func servingTenants() []serve.Tenant {
	return []serve.Tenant{
		{Name: "chat", Rate: 100, MeanPromptTokens: 32, MeanOutputTokens: 8, SLO: 25 * sim.Millisecond},
		{Name: "batchapi", Rate: 60, MeanPromptTokens: 64, MeanOutputTokens: 12, SLO: 200 * sim.Millisecond},
	}
}

// --- paper ---

// paperSetupNodes is how many simulated nodes (engine, A100 device, CUDA
// context) a paper iteration builds to time set-up. The sections build
// their models inside experiments, out of reach; these are the
// constructors every one of their measurement points calls.
const paperSetupNodes = 16

// rendered adapts a renderer to an experiment's (result, error) return.
func rendered[T any](render func(T) string) func(T, error) (string, error) {
	return func(v T, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return render(v), nil
	}
}

// runPaper renders the paper's twelve sections in cmd/reproduce order,
// byte for byte as `reproduce -exp table1,...,compose -j 1` prints them.
func runPaper(_ int64, _ *hooks) (iteration, error) {
	var it iteration
	for i := 0; i < paperSetupNodes; i++ {
		t0 := time.Now()
		env := sim.NewEnv()
		dev, err := gpu.NewDevice(env, gpu.A100())
		if err != nil {
			env.Close()
			return it, err
		}
		cuda.NewContext(dev, cuda.Config{})
		it.setup += time.Since(t0)
		env.Close()
	}

	o := experiments.Quick()
	o.Jobs = 1
	var (
		traces experiments.Traces
		blocks []experiments.Table4Block
	)
	sections := []struct {
		id     string
		render func() (string, error)
	}{
		{"table1", func() (string, error) { return rendered(experiments.RenderTable1)(experiments.Table1(o)) }},
		{"figure2", func() (string, error) { return rendered(experiments.RenderFigure2)(experiments.Figure2(o)) }},
		{"threads", func() (string, error) { return rendered(experiments.RenderThreadScaling)(experiments.ThreadScaling(o)) }},
		{"cfcpu", func() (string, error) { return rendered(experiments.RenderCosmoFlowCPU)(experiments.CosmoFlowCPU(o)) }},
		{"table2", func() (string, error) { return rendered(experiments.RenderTable2)(experiments.Table2(o)) }},
		{"figure3", func() (string, error) { return rendered(experiments.RenderFigure3)(experiments.Figure3(o, nil)) }},
		{"figure4", func() (string, error) {
			var err error
			if traces, err = experiments.CollectTraces(o); err != nil {
				return "", err
			}
			it.c.apiCalls = int64(len(traces.LAMMPS.Calls) + len(traces.CosmoFlow.Calls))
			return experiments.RenderFigure4(traces), nil
		}},
		{"figure5", func() (string, error) { return experiments.RenderFigure5(traces), nil }},
		{"table3", func() (string, error) {
			b, s, err := experiments.Table4(o, traces)
			if err != nil {
				return "", err
			}
			blocks = b
			return experiments.RenderTable3(experiments.Table3(traces, s), s), nil
		}},
		{"table4", func() (string, error) { return experiments.RenderTable4(blocks), nil }},
		{"validate", func() (string, error) { return rendered(experiments.RenderValidation)(experiments.Validate(o)) }},
		{"compose", func() (string, error) { return rendered(experiments.RenderCompose)(experiments.Compose()) }},
	}
	var b strings.Builder
	for _, s := range sections {
		body, err := s.render()
		if err != nil {
			return it, fmt.Errorf("%s: %w", s.id, err)
		}
		fmt.Fprintf(&b, "\n======== %s ========\n", s.id)
		b.WriteString(body)
	}
	it.out = b.String()
	return it, nil
}

// --- pool-8k ---

// runPool runs the 8,192-GPU pool at load 0.95 and churn intensity 1 under
// every placement policy, with the defragmenter off and on.
func runPool(seed int64, _ *hooks) (iteration, error) {
	var it iteration
	var b strings.Builder
	for _, pol := range []pool.Policy{pool.FirstFit, pool.BestFit, pool.TierAware} {
		for _, defrag := range []bool{false, true} {
			st, err := poolCell(&it, pol, defrag, seed)
			if err != nil {
				return it, fmt.Errorf("%v defrag=%v: %w", pol, defrag, err)
			}
			fmt.Fprintf(&b, "%v defrag=%v %#v\n", pol, defrag, st)
		}
	}
	it.out = b.String()
	return it, nil
}

func poolCell(it *iteration, pol pool.Policy, defrag bool, seed int64) (pool.Stats, error) {
	t0 := time.Now()
	env := sim.NewEnv()
	defer env.Close()
	t1 := time.Now()
	sched, err := pool.Start(env, pool.Config{
		Topo:   pool.DefaultTopology(),
		Policy: pol,
		Workload: pool.Workload{
			Seed:      poolSeedBase + seed,
			Window:    500 * sim.Millisecond,
			Load:      0.95,
			Intensity: 1,
		},
		Defrag:      defrag,
		Serving:     servingTenants(),
		ServingGPUs: 16,
	})
	it.poolStart = append(it.poolStart, time.Since(t1))
	it.setup += time.Since(t0)
	if err != nil {
		return pool.Stats{}, err
	}
	it.c.simS += float64(env.Run())
	st := sched.Stats()
	if st.Placed != st.Jobs || st.Killed != 0 {
		return st, fmt.Errorf("placed %d of %d jobs, killed %d", st.Placed, st.Jobs, st.Killed)
	}
	it.c.placed += st.Placed
	it.c.poolMigrations += st.Migrations + st.DrainMigrations
	it.c.peakConcurrent = max(it.c.peakConcurrent, st.PeakConcurrent)
	return st, nil
}

// --- serve-local ---

// serveLocalWindow is the serving window (paper convention).
const serveLocalWindow = 5 * sim.Second

// runServeLocal serves one window on a node-local A100 with 100 µs of
// injected slack per call, under each batching policy.
func runServeLocal(seed int64, hk *hooks) (iteration, error) {
	var it iteration
	var b strings.Builder
	for _, pol := range []serve.Policy{serve.NoBatch, serve.FixedBatch, serve.Continuous} {
		rep, err := serveLocalCell(&it, pol, seed, hk)
		if err != nil {
			return it, fmt.Errorf("%v: %w", pol, err)
		}
		fmt.Fprintf(&b, "%v %#v\n", pol, rep)
	}
	it.out = b.String()
	return it, nil
}

func serveLocalCell(it *iteration, pol serve.Policy, seed int64, hk *hooks) (serve.Report, error) {
	t0 := time.Now()
	tenants := servingTenants()
	reqs, err := serve.Generate(tenants, serveLocalWindow, requestSeedBase+seed)
	if err != nil {
		return serve.Report{}, err
	}
	env := sim.NewEnv()
	defer env.Close()
	dev, err := gpu.NewDevice(env, gpu.A100())
	if err != nil {
		return serve.Report{}, err
	}
	ctx := cuda.NewContext(dev, cuda.Config{})
	ctx.Interpose(slack.New(100 * sim.Microsecond))
	hk.interpose(ctx)
	eng, err := serve.Start(env, hk.transport(serve.NewLocal(ctx)), serve.Config{Policy: pol, Tenants: tenants}, reqs)
	it.setup += time.Since(t0)
	if err != nil {
		return serve.Report{}, err
	}
	it.c.simS += float64(env.Run())
	if err := eng.Err(); err != nil {
		return serve.Report{}, err
	}
	rep := eng.Metrics().Report(serveLocalWindow)
	if rep.Completed != rep.Requests || rep.Requests != len(reqs) {
		return rep, fmt.Errorf("completed %d of %d requests (%d generated)", rep.Completed, rep.Requests, len(reqs))
	}
	it.c.addReport(rep)
	return rep, nil
}

// --- serve-churn ---

// churnWindow is the managed churn cell's serving window (the quick
// experiments' window).
const churnWindow = 500 * sim.Millisecond

// runServeChurn runs the churn experiment's managed cell, over a primary
// and three standbys, at two crash rates and two fabric slacks.
func runServeChurn(seed int64, hk *hooks) (iteration, error) {
	var it iteration
	var b strings.Builder
	for _, sl := range []sim.Duration{0, 100 * sim.Microsecond} {
		for _, gap := range []sim.Duration{120 * sim.Millisecond, 60 * sim.Millisecond} {
			out, err := serveChurnCell(&it, sl, gap, seed, hk)
			if err != nil {
				return it, fmt.Errorf("slack %v, gap %v: %w", sl, gap, err)
			}
			b.WriteString(out)
		}
	}
	it.out = b.String()
	return it, nil
}

func serveChurnCell(it *iteration, sl, gap sim.Duration, seed int64, hk *hooks) (string, error) {
	t0 := time.Now()
	tenants := servingTenants()
	tenants[1].Priority = 1 // the batch-API tenant sheds first
	reqs, err := serve.Generate(tenants, churnWindow, requestSeedBase+seed)
	if err != nil {
		return "", err
	}
	path, err := fabric.PathForSlack(sl)
	if err != nil {
		return "", err
	}
	env := sim.NewEnv()
	defer env.Close()
	fseed := faultSeedBase + seed
	rp, err := remoting.NewResilient(env, gpu.A100(), remoting.ResilientConfig{
		Config: remoting.Config{Path: path, Seed: fseed},
		Faults: faults.Config{Seed: fseed, CrashAfter: gap, CrashFor: 40 * sim.Millisecond},
		Policy: faults.Policy{
			CallTimeout:      100 * sim.Millisecond,
			MaxRetries:       2,
			BreakerThreshold: 2,
			BreakerCooldown:  5 * sim.Millisecond,
		},
		Standbys:             3,
		DisableLocalFallback: true,
	})
	if err != nil {
		return "", err
	}
	ctl, err := health.Start(env, rp, rp.Injector(), health.Config{Seed: fseed, Horizon: 2 * churnWindow, Path: path})
	if err != nil {
		return "", err
	}
	eng, err := serve.Start(env, hk.transport(serve.NewRemote(rp)), serve.Config{
		Policy:    serve.Continuous,
		Tenants:   tenants,
		Admission: serve.Admission{ShedExpired: true, MaxQueue: 64, Capacity: ctl},
	}, reqs)
	it.setup += time.Since(t0)
	if err != nil {
		return "", err
	}
	it.c.simS += float64(env.Run())
	rep := eng.Metrics().Report(churnWindow)
	// A cell whose every server is down at once exhausts the pool: the
	// engine stops mid-window. That is a measurement, not a failure.
	exhausted := eng.Err() != nil
	if rep.Requests != len(reqs) || !exhausted && rep.Completed+rep.Shed != rep.Requests {
		return "", fmt.Errorf("completed %d + shed %d of %d requests (%d generated)", rep.Completed, rep.Shed, rep.Requests, len(reqs))
	}
	rs, hs := rp.Stats(), ctl.Stats()
	c := &it.c
	c.addReport(rep)
	if exhausted {
		c.exhausted++
	}
	c.remCalls += rs.Calls
	c.retries += rs.Retries
	c.timeouts += rs.Timeouts
	c.migrations += rs.Migrations
	c.readmissions += rs.Readmissions
	c.beats += hs.Beats
	c.droppedBeats += hs.DroppedBeats
	c.suspicions += hs.Suspicions
	c.falseSuspicions += hs.FalseSuspicions
	return fmt.Sprintf("slack=%v gap=%v exhausted=%v\n  %#v\n  %#v\n  %#v\n", sl, gap, exhausted, rep, rs, hs), nil
}
