package cdi

// Benchmarks regenerating every table and figure in the paper's evaluation
// section (quick parameters preserving all reported shapes), plus ablation
// benchmarks for the design choices DESIGN.md calls out and microbenchmarks
// of the substrates. Run with:
//
//	go test -bench=. -benchmem
import (
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cosmoflow"
	"repro/internal/cuda"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/health"
	"repro/internal/lammps"
	"repro/internal/mpi"
	"repro/internal/pool"
	"repro/internal/proxy"
	"repro/internal/remoting"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/slack"
)

// --- One benchmark per paper table/figure ---

func BenchmarkTable1LAMMPSBaselines(b *testing.B) {
	opts := experiments.Quick()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkFigure2LAMMPSStrongScaling(b *testing.B) {
	opts := experiments.Quick()
	opts.LAMMPSSteps = 20
	for i := 0; i < b.N; i++ {
		series, err := experiments.Figure2(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 5 {
			b.Fatalf("series = %d", len(series))
		}
	}
}

func BenchmarkLAMMPSThreadScaling(b *testing.B) {
	opts := experiments.Quick()
	opts.LAMMPSSteps = 20
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ThreadScaling(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCosmoFlowCPUScaling(b *testing.B) {
	opts := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CosmoFlowCPU(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2ProxyBaselines(b *testing.B) {
	opts := experiments.Quick()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkFigure3SlackSweep(b *testing.B) {
	opts := experiments.Quick()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure3(opts, []int{1, 8})
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) == 0 {
			b.Fatal("no sweep points")
		}
	}
}

// traceOnce caches the profiling traces: Figures 4-5 and Tables III-IV
// analyze the same recordings, as the paper does.
var cachedTraces *experiments.Traces

func getTraces(b *testing.B) experiments.Traces {
	b.Helper()
	if cachedTraces == nil {
		tr, err := experiments.CollectTraces(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		cachedTraces = &tr
	}
	return *cachedTraces
}

func BenchmarkFigure4KernelDurations(b *testing.B) {
	tr := getTraces(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if experiments.RenderFigure4(tr) == "" {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure5MemcpySizes(b *testing.B) {
	tr := getTraces(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if experiments.RenderFigure5(tr) == "" {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkTable3TransferBinning(b *testing.B) {
	tr := getTraces(b)
	blocks, surface, err := experiments.Table4(experiments.Quick(), tr)
	if err != nil {
		b.Fatal(err)
	}
	_ = blocks
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3(tr, surface)
		if len(rows) != 2 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkTable4SlackPenalty(b *testing.B) {
	tr := getTraces(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blocks, _, err := experiments.Table4(experiments.Quick(), tr)
		if err != nil {
			b.Fatal(err)
		}
		if len(blocks) != 2 {
			b.Fatalf("blocks = %d", len(blocks))
		}
	}
}

func BenchmarkModelSelfValidation(b *testing.B) {
	opts := experiments.Quick()
	for i := 0; i < b.N; i++ {
		v, err := experiments.Validate(opts)
		if err != nil {
			b.Fatal(err)
		}
		if v.Upper < v.Lower {
			b.Fatal("bounds inverted")
		}
	}
}

func BenchmarkComposeScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := experiments.Compose()
		if err != nil {
			b.Fatal(err)
		}
		if len(c.CDI) != 2 {
			b.Fatal("scenario incomplete")
		}
	}
}

// --- Ablations: the design choices behind the reproduction ---

// BenchmarkAblationWarmupModel isolates the GPU starvation model: with
// WarmupRate zeroed, slack produces no residual penalty after Equation 1 —
// demonstrating that the warm-up mechanism is what carries the paper's
// Figure 3 effect.
func BenchmarkAblationWarmupModel(b *testing.B) {
	run := func(b *testing.B, spec gpu.Spec) float64 {
		base, err := proxy.Run(proxy.Config{MatrixSize: 1 << 11, Iters: 20, Spec: spec})
		if err != nil {
			b.Fatal(err)
		}
		r, err := proxy.Run(proxy.Config{MatrixSize: 1 << 11, Iters: 20, Spec: spec, Slack: 10 * sim.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
		return proxy.Penalty(base, r)
	}
	b.Run("warmup=on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if p := run(b, gpu.A100()); p <= 0.01 {
				b.Fatalf("no penalty with warm-up on: %v", p)
			}
		}
	})
	b.Run("warmup=off", func(b *testing.B) {
		spec := gpu.A100()
		spec.WarmupRate = 0
		for i := 0; i < b.N; i++ {
			if p := run(b, spec); p > 0.01 {
				b.Fatalf("penalty without warm-up: %v", p)
			}
		}
	})
}

// BenchmarkAblationContextSwitch isolates the multi-process context-switch
// cost: without it, small-box LAMMPS stops degrading under many ranks.
func BenchmarkAblationContextSwitch(b *testing.B) {
	run := func(b *testing.B, ctxSwitch sim.Duration) float64 {
		spec := gpu.A100()
		spec.ContextSwitch = ctxSwitch
		base, err := lammps.RunPerf(lammps.PerfConfig{BoxSize: 20, Procs: 1, Steps: 20, Spec: spec})
		if err != nil {
			b.Fatal(err)
		}
		r, err := lammps.RunPerf(lammps.PerfConfig{BoxSize: 20, Procs: 24, Steps: 20, Spec: spec})
		if err != nil {
			b.Fatal(err)
		}
		return float64(r.StepTime) / float64(base.StepTime)
	}
	b.Run("ctxswitch=on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if norm := run(b, lammps.CtxSwitch); norm < 5 {
				b.Fatalf("box 20 did not degrade with switching on: %v", norm)
			}
		}
	})
	b.Run("ctxswitch=off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if norm := run(b, 0); norm > 5 {
				b.Fatalf("box 20 degraded %vx without switch cost", norm)
			}
		}
	})
}

// BenchmarkAblationThreads shows the latency-hiding effect directly: the
// same slack, radically different penalty depending on submitter count.
func BenchmarkAblationThreads(b *testing.B) {
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(benchName("threads", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				base, err := proxy.Run(proxy.Config{MatrixSize: 1 << 9, Threads: threads, Iters: 30})
				if err != nil {
					b.Fatal(err)
				}
				r, err := proxy.Run(proxy.Config{MatrixSize: 1 << 9, Threads: threads, Iters: 30, Slack: 200 * sim.Microsecond})
				if err != nil {
					b.Fatal(err)
				}
				_ = proxy.Penalty(base, r)
			}
		})
	}
}

// --- Substrate microbenchmarks ---

// BenchmarkSimEngineEvents measures the engine's per-event dispatch cost on
// the path every experiment actually runs: one RunUntil spanning b.N timer
// events. A ticker that re-sleeps inside the run exercises the full
// schedule→queue→pop→deliver cycle per event, including the scheduling
// loop's self-wake fast path (a Step loop would resume the ticker once per
// event, measuring the switch instead of dispatch).
func BenchmarkSimEngineEvents(b *testing.B) {
	env := sim.NewEnv()
	defer env.Close()
	env.Spawn("ticker", func(p *sim.Proc) {
		for {
			p.Sleep(1 * sim.Microsecond)
		}
	})
	b.ResetTimer()
	env.RunUntil(sim.Time(0).Add(sim.Duration(b.N) * sim.Microsecond))
}

func BenchmarkProxyIteration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := proxy.Run(proxy.Config{MatrixSize: 1 << 9, Iters: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLAMMPSPerfStep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := lammps.RunPerf(lammps.PerfConfig{BoxSize: 60, Procs: 8, Steps: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMPIAllreduce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		w := mpi.NewWorld(env, 8, mpi.IntraNode())
		w.SpawnAll(func(r *mpi.Rank) {
			r.AllreduceBytes(8 << 10)
		})
		env.Run()
		env.Close()
	}
}

func benchName(prefix string, n int) string {
	const digits = "0123456789"
	if n < 10 {
		return prefix + "=" + digits[n:n+1]
	}
	return prefix + "=" + digits[n/10:n/10+1] + digits[n%10:n%10+1]
}

// --- Extension benchmarks ---

func BenchmarkExtensionAppValidation(b *testing.B) {
	opts := experiments.Quick()
	opts.LAMMPSSteps = 15
	pts, err := experiments.Figure3(opts, []int{1, 4, 8})
	if err != nil {
		b.Fatal(err)
	}
	study, err := experiments.Calibrate(pts)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := experiments.CollectTraces(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AppSlackValidation(opts, study, tr, []sim.Duration{100 * sim.Microsecond})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 2 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

func BenchmarkExtensionCongestion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Congestion(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 6 {
			b.Fatal("incomplete sweep")
		}
	}
}

func BenchmarkExtensionRemoting(b *testing.B) {
	opts := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RemotingComparison(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Throughput(experiments.Quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionCoupling(b *testing.B) {
	opts := experiments.Quick()
	opts.CosmoSamples = 16
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ChassisCoupling(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionPreload(b *testing.B) {
	opts := experiments.Quick()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PreloadComparison(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCdivetModule measures one full pass of the six-analyzer suite —
// per-file rules plus the module-wide taint layer (call graph and summary
// fixpoint) — over the already-loaded module, and requires it to report
// zero findings. Parsing and type-checking run once outside the timed loop;
// -benchmem makes allocation regressions in the dataflow engine visible.
func BenchmarkCdivetModule(b *testing.B) {
	m, err := analysis.LoadModule(".")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if findings := analysis.RunModule(m, analysis.Config{}); len(findings) != 0 {
			b.Fatalf("module not clean: %v", findings)
		}
	}
}

func BenchmarkCosmoFlowPerfStep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := cosmoflow.RunPerf(cosmoflow.PerfConfig{
			Epochs: 1, TrainSamples: 16, ValSamples: 8, InputSide: 32,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemotingFaultPath exercises the resilient transport's recovery
// hot path: a lossy fabric forces timeouts, deterministic backoff retries,
// and at least one crash-driven failover with state re-upload per run.
func BenchmarkRemotingFaultPath(b *testing.B) {
	path, err := fabric.PathForSlack(20 * sim.Microsecond)
	if err != nil {
		b.Fatal(err)
	}
	cfg := remoting.ResilientConfig{
		Config:   remoting.Config{Path: path, Seed: 11},
		Faults:   faults.Config{Seed: 11, DropProbability: 0.3, CrashAfter: 20 * sim.Millisecond},
		Standbys: 1,
	}
	matBytes := gpu.MatrixBytes(64)
	kernel := gpu.MatMul(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		r, err := remoting.NewResilient(env, gpu.A100(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		var runErr error
		env.Spawn("host", func(p *sim.Proc) {
			m, err := proxy.Alloc(p, r, matBytes)
			if err != nil {
				runErr = err
				return
			}
			for j := 0; j < 20 && runErr == nil; j++ {
				runErr = m.Iterate(p, r, kernel)
			}
		})
		env.Run()
		env.Close()
		if runErr != nil {
			b.Fatal(runErr)
		}
		if r.Stats().Retries == 0 {
			b.Fatal("fault path not exercised: no retries")
		}
	}
}

// BenchmarkServeSteadyState runs one steady-state multi-tenant serving
// window end to end — open-loop Poisson arrivals, the continuous batcher
// at iteration-level admission, and the paper's 100 µs row-scale slack on
// every link-crossing call — the serving subsystem's hot path.
func BenchmarkServeSteadyState(b *testing.B) {
	tenants := []serve.Tenant{
		{Name: "chat", Rate: 100, MeanPromptTokens: 32, MeanOutputTokens: 8,
			SLO: 25 * sim.Millisecond},
		{Name: "batchapi", Rate: 60, MeanPromptTokens: 64, MeanOutputTokens: 12,
			SLO: 200 * sim.Millisecond},
	}
	const window = 200 * sim.Millisecond
	reqs, err := serve.Generate(tenants, window, 41)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		dev, err := gpu.NewDevice(env, gpu.A100())
		if err != nil {
			b.Fatal(err)
		}
		ctx := cuda.NewContext(dev, cuda.Config{})
		ctx.Interpose(slack.New(100 * sim.Microsecond))
		eng, err := serve.Start(env, serve.NewLocal(ctx),
			serve.Config{Policy: serve.Continuous, Tenants: tenants}, reqs)
		if err != nil {
			b.Fatal(err)
		}
		env.Run()
		env.Close()
		if err := eng.Err(); err != nil {
			b.Fatal(err)
		}
		if eng.Metrics().Completed != len(reqs) {
			b.Fatalf("completed %d of %d requests", eng.Metrics().Completed, len(reqs))
		}
	}
}

// BenchmarkHealthDetector measures the phi-accrual detector's per-sample
// cost — one heartbeat Observe plus one Phi evaluation per op, the inner
// loop of the pool control plane. Both must stay alloc-free: every
// server in the pool pays this once per heartbeat interval.
func BenchmarkHealthDetector(b *testing.B) {
	det := health.NewDetector(16, 250*sim.Microsecond)
	now := sim.Time(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now = now.Add(250 * sim.Microsecond)
		det.Observe(now)
		if det.Phi(now.Add(100*sim.Microsecond)) < 0 {
			b.Fatal("negative phi")
		}
	}
}

// BenchmarkChurnSteadyState runs one managed churn cell end to end: the
// continuous batcher over a resilient three-server pool under recurring
// crash outages, with the health control plane draining and readmitting
// servers and the admission gate shedding while degraded. This is the
// control plane's full-system hot path.
func BenchmarkChurnSteadyState(b *testing.B) {
	tenants := []serve.Tenant{
		{Name: "chat", Rate: 100, MeanPromptTokens: 32, MeanOutputTokens: 8,
			SLO: 25 * sim.Millisecond},
		{Name: "batchapi", Rate: 60, MeanPromptTokens: 64, MeanOutputTokens: 12,
			SLO: 200 * sim.Millisecond, Priority: 1},
	}
	const window = 200 * sim.Millisecond
	reqs, err := serve.Generate(tenants, window, 41)
	if err != nil {
		b.Fatal(err)
	}
	path, err := fabric.PathForSlack(100 * sim.Microsecond)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		pool, err := remoting.NewResilient(env, gpu.A100(), remoting.ResilientConfig{
			Config: remoting.Config{Path: path, Seed: 7003},
			Faults: faults.Config{Seed: 7003,
				CrashAfter: 60 * sim.Millisecond, CrashFor: 40 * sim.Millisecond},
			Policy: faults.Policy{CallTimeout: 100 * sim.Millisecond, MaxRetries: 2,
				BreakerThreshold: 2, BreakerCooldown: 5 * sim.Millisecond},
			Standbys:             2,
			DisableLocalFallback: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		ctl, err := health.Start(env, pool, pool.Injector(),
			health.Config{Seed: 7003, Horizon: 2 * window, Path: path})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := serve.Start(env, serve.NewRemote(pool), serve.Config{
			Policy:  serve.Continuous,
			Tenants: tenants,
			Admission: serve.Admission{
				ShedExpired: true, MaxQueue: 64, Capacity: ctl,
			},
		}, reqs)
		if err != nil {
			b.Fatal(err)
		}
		env.Run()
		env.Close()
		if err := eng.Err(); err != nil {
			b.Fatal(err)
		}
		if ctl.Stats().Suspicions == 0 {
			b.Fatal("churn path not exercised: no suspicions")
		}
	}
}

// BenchmarkSimEngineFanout is the pool-scale stress: 10k processes spread
// over 16 shared Signals, with a driver that fires every signal once per
// simulated microsecond. One benchmark op is one fan-out round — 10k signal
// wake-ups scheduled at the same instant, delivered in (time, seq) order,
// plus 10k re-waits.
//
// The benchmark tears its environment down eagerly: Close unwinds the 10k
// parked workers off the timed path and the forced GC releases their
// stacks before the next benchmark starts. Without that, later wake-heavy
// benchmarks in the same process paid a measured 2× ns/op inflation
// (BenchmarkMPIAllreduce 42µs → 83µs) from GC cycles scanning the pooled
// dead goroutines this benchmark left behind.
func BenchmarkSimEngineFanout(b *testing.B) {
	const (
		nprocs = 10000
		nsigs  = 16
	)
	env := sim.NewEnv()
	defer env.Close()
	sigs := make([]*sim.Signal, nsigs)
	for i := range sigs {
		sigs[i] = sim.NewSignal(env)
	}
	for i := 0; i < nprocs; i++ {
		sig := sigs[i%nsigs]
		env.Spawn("worker", func(p *sim.Proc) {
			for {
				sig.Wait(p)
			}
		})
	}
	env.Spawn("driver", func(p *sim.Proc) {
		for {
			p.Sleep(1 * sim.Microsecond)
			for _, sig := range sigs {
				sig.Fire()
			}
		}
	})
	b.ResetTimer()
	env.RunUntil(sim.Time(0).Add(sim.Duration(b.N) * sim.Microsecond))
	b.StopTimer()
	env.Close()
	runtime.GC()
}

// benchPoolConfig is the pool benchmarks' shared cell: the failure-cell
// topology (512 GPUs on 64 servers) at full churn, high load, one 100 ms
// window — thousands of gang placements and completions per run.
func benchPoolConfig(defrag bool) pool.Config {
	return pool.Config{
		Topo:   pool.Topology{Rows: 2, RacksPerRow: 4, ServersPerRack: 8, GPUsPerServer: 8},
		Policy: pool.TierAware,
		Workload: pool.Workload{
			Seed: 9001, Window: 100 * sim.Millisecond, Load: 0.95, Intensity: 1,
		},
		Defrag: defrag,
	}
}

// BenchmarkPoolPlacement drives the pool scheduler's placement path: a
// churning window of gang arrivals, completions, and queue scans with the
// defragmenter off.
func BenchmarkPoolPlacement(b *testing.B) {
	benchPoolPlacement(b, benchPoolConfig(false))
}

// BenchmarkPoolPlacement8K is the same window on the default 8,192-GPU
// pool (512 servers, eight bitset words), where a placement query that
// scanned every server would dominate.
func BenchmarkPoolPlacement8K(b *testing.B) {
	cfg := benchPoolConfig(false)
	cfg.Topo = pool.DefaultTopology()
	benchPoolPlacement(b, cfg)
}

func benchPoolPlacement(b *testing.B, cfg pool.Config) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		s, err := pool.Start(env, cfg)
		if err != nil {
			b.Fatal(err)
		}
		env.Run()
		env.Close()
		if st := s.Stats(); st.Placed == 0 {
			b.Fatal("placement path not exercised")
		}
	}
}

// BenchmarkPoolDefragSweep runs the same churning window with the
// defragmenter on, so sweep planning and migration copies ride the
// placement path.
func BenchmarkPoolDefragSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := sim.NewEnv()
		s, err := pool.Start(env, benchPoolConfig(true))
		if err != nil {
			b.Fatal(err)
		}
		env.Run()
		env.Close()
		if st := s.Stats(); st.Migrations == 0 {
			b.Fatal("defrag path not exercised: no migrations")
		}
	}
}
