package experiments

// Extensions beyond the paper's published evaluation: experiments the
// paper describes as future work or as assumptions, runnable here because
// the whole stack is simulated.
//
//   - AppSlackValidation injects slack directly into the production
//     workloads and compares the measured penalty against the model's
//     prediction — the validation the paper defers to "once CDI hardware
//     is available".
//   - Congestion stresses the "network channel congestion is a non-issue"
//     assumption with a shared chassis uplink.
//   - Remoting quantifies why rCUDA-style forwarding was rejected as the
//     measurement instrument.
//   - WeakScaling exercises the paper's claim that the single-GPU ratio
//     study "can inform weak scaling".
//   - Reach turns the penalty model into a distance budget per application.

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cosmoflow"
	"repro/internal/cuda"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/lammps"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/proxy"
	"repro/internal/remoting"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/slack"
)

// AppValidationRow compares measured vs predicted penalty for one app at
// one slack value.
type AppValidationRow struct {
	App      string
	Slack    sim.Duration
	Measured float64
	Lower    float64
	Upper    float64
}

// AppSlackValidation runs LAMMPS and CosmoFlow with slack injected on
// every rank's CUDA calls, applies Equation 1 to the measured runtime,
// and compares the residual against the calibrated study's prediction
// from the zero-slack trace. CosmoFlow's zero-slack trace and runtime are
// tr's profiling run, which has the same configuration.
func AppSlackValidation(o Options, study *core.Study, tr Traces, slacks []sim.Duration) ([]AppValidationRow, error) {
	cells, err := appValidationCells(o, study, tr, slacks)
	if err != nil {
		return nil, err
	}
	return sweep(o.Jobs, cells)
}

// appValidationCells runs LAMMPS's recorded zero-slack baseline, reads
// CosmoFlow's from tr, then returns one cell per (app, slack).
func appValidationCells(o Options, study *core.Study, tr Traces, slacks []sim.Duration) ([]cell[AppValidationRow], error) {
	o = o.withDefaults()
	if len(slacks) == 0 {
		slacks = []sim.Duration{100 * sim.Microsecond, 10 * sim.Millisecond}
	}
	lcfg := lammps.PerfConfig{BoxSize: 60, Procs: lammps.ProfileProcs, Steps: o.LAMMPSSteps}
	rec := lcfg
	rec.Record = true
	lbase, err := lammps.RunPerf(rec)
	if err != nil {
		return nil, fmt.Errorf("appvalidate/lammps/baseline: %w", err)
	}
	apps := []struct {
		name    string
		profile model.AppProfile
		base    sim.Duration
		run     appRun
	}{
		{"lammps", model.ProfileFromTrace(lbase.Trace, lcfg.Procs), lbase.Runtime, lammpsRun(lcfg)},
		{"cosmoflow", model.ProfileFromTrace(tr.CosmoFlow, cosmoflow.ProfileParallelism), tr.CosmoFlow.Runtime(), cosmoflowRun(cosmoflowConfig(o))},
	}
	var cells []cell[AppValidationRow]
	for _, a := range apps {
		for _, sl := range slacks {
			cells = append(cells, cell[AppValidationRow]{"appvalidate/" + a.name + "/" + sl.String(), func() (AppValidationRow, error) {
				measured, calls, err := a.run(sl, nil)
				if err != nil {
					return AppValidationRow{}, err
				}
				pred, err := study.Surface.Predict(a.profile, sl)
				return AppValidationRow{
					App: a.name, Slack: sl,
					Measured: slack.ClampPenalty(slack.Penalty(measured, a.base, calls, sl)),
					Lower:    pred.Lower, Upper: pred.Upper,
				}, err
			}})
		}
	}
	return cells, nil
}

// appRun runs one production application at a slack, under a fault
// injector when ci is non-nil, and returns its runtime and the delayed
// calls on one serial path, Equation 1's count.
type appRun func(sl sim.Duration, ci *faults.CallInjector) (sim.Duration, int64, error)

// lammpsRun runs cfg; each rank carries its share of the delayed calls
// on its own serial path.
func lammpsRun(cfg lammps.PerfConfig) appRun {
	return func(sl sim.Duration, ci *faults.CallInjector) (sim.Duration, int64, error) {
		c := cfg
		c.Slack, c.Faults = sl, ci
		r, err := lammps.RunPerf(c)
		return r.Runtime, r.DelayedCalls / int64(c.Procs), err
	}
}

// cosmoflowRun runs cfg; its single worker puts every delayed call on
// one serial path.
func cosmoflowRun(cfg cosmoflow.PerfConfig) appRun {
	return func(sl sim.Duration, ci *faults.CallInjector) (sim.Duration, int64, error) {
		c := cfg
		c.Slack, c.Faults = sl, ci
		r, err := cosmoflow.RunPerf(c)
		return r.Runtime, r.DelayedCalls, err
	}
}

// RenderAppValidation formats the in-situ validation.
func RenderAppValidation(rows []AppValidationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "In-situ slack validation (extension of §IV-D / future work):\n")
	fmt.Fprintf(&b, "slack injected directly into every rank's CUDA calls, Equation 1 applied\n")
	fmt.Fprintf(&b, "%-10s %-10s %-12s %-12s %-12s\n", "app", "slack", "measured", "pred lower", "pred upper")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-10v %-12.5f %-12.5f %-12.5f\n",
			r.App, r.Slack, r.Measured, r.Lower, r.Upper)
	}
	return b.String()
}

// Congestion sweeps host count on a shared chassis uplink.
func Congestion(o Options) ([]fabric.CongestionPoint, error) {
	return sweep(o.Jobs, congestionCells())
}

func congestionCells() []cell[fabric.CongestionPoint] {
	var cells []cell[fabric.CongestionPoint]
	for _, hosts := range []int{1, 2, 4, 8, 16, 32} {
		cells = append(cells, cell[fabric.CongestionPoint]{fmt.Sprintf("congestion/hosts%d", hosts), func() (fabric.CongestionPoint, error) {
			return fabric.MeasureCongestion(
				hosts,
				10<<20,            // 10 MiB position/force-sized transfers
				2*sim.Millisecond, // per-step think time
				1*sim.Microsecond,
				23e9,
				40,
			)
		}})
	}
	return cells
}

// RenderCongestion formats the sweep.
func RenderCongestion(pts []fabric.CongestionPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chassis-uplink congestion (tests the paper's \"congestion is a non-issue\" assumption):\n")
	fmt.Fprintf(&b, "%-8s %-14s %-16s %-16s\n", "hosts", "utilization", "mean queueing", "slack inflation")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-8d %-14.3f %-16v %-16.3f\n",
			p.Hosts, p.Utilization, p.MeanQueueing, p.SlackInflation)
	}
	return b.String()
}

// RemotingComparison contrasts controlled injection with rCUDA-style
// forwarding at row scale, with and without network noise.
func RemotingComparison(o Options) ([]remoting.CompareResult, error) {
	return sweep(o.Jobs, remotingCells(o))
}

func remotingCells(o Options) []cell[remoting.CompareResult] {
	iters := o.ProxyIters
	if iters <= 0 {
		iters = 50
	}
	var cells []cell[remoting.CompareResult]
	for _, noise := range []float64{0, 0.3} {
		cells = append(cells, cell[remoting.CompareResult]{fmt.Sprintf("remoting/noise%g", noise), func() (remoting.CompareResult, error) {
			return remoting.Compare(2048, iters, remoting.Config{
				Path:          fabric.Preset(fabric.RowScale, 0),
				NoiseFraction: noise,
				Seed:          42,
			})
		}})
	}
	return cells
}

// RenderRemoting formats the comparison.
func RenderRemoting(results []remoting.CompareResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "API remoting vs controlled injection (why §III-B rejects rCUDA-style tools):\n")
	fmt.Fprintf(&b, "%-8s %-14s %-16s %-16s %-16s %-16s %-16s\n",
		"noise", "nominal slack", "mean call delay", "remoted mean", "remoted stddev", "injected mean", "injected stddev")
	noise := []string{"off", "±30%"}
	for i, r := range results {
		fmt.Fprintf(&b, "%-8s %-14v %-16v %-16v %-16v %-16v %-16v\n",
			noise[i], r.NominalSlack, r.MeanCallDelay, r.RemotedMean, r.RemotedStddev,
			r.InjectedMean, r.InjectedStddev)
	}
	b.WriteString("the remoted per-call delay drifts with payload and noise; the injected arm stays controlled.\n")
	return b.String()
}

// WeakScalingRow is one weak-scaling measurement: atoms per rank held
// constant while ranks grow.
type WeakScalingRow struct {
	BoxSize      int
	Procs        int
	AtomsPerRank int
	StepTime     sim.Duration
	// Efficiency is stepTime(1 rank) / stepTime(P ranks): 1.0 = perfect.
	Efficiency float64
}

// WeakScaling grows the box with the rank count (box ∝ P^(1/3)) so each
// rank keeps ≈ 256k atoms — the weak-scaling reading the paper says its
// ratio study informs.
func WeakScaling(o Options) ([]WeakScalingRow, error) {
	rows, err := sweep(o.Jobs, weakCells(o))
	if err != nil {
		return nil, err
	}
	// The first cell is the single-rank reference, so efficiency is a
	// pure post-pass over the merged rows.
	base := rows[0].StepTime
	for i := range rows {
		rows[i].Efficiency = float64(base) / float64(rows[i].StepTime)
	}
	return rows, nil
}

func weakCells(o Options) []cell[WeakScalingRow] {
	o = o.withDefaults()
	var cells []cell[WeakScalingRow]
	for _, s := range []struct{ box, procs int }{{40, 1}, {80, 8}, {120, 27}} {
		cells = append(cells, cell[WeakScalingRow]{fmt.Sprintf("weak/box%d/p%d", s.box, s.procs), func() (WeakScalingRow, error) {
			r, err := lammps.RunPerf(lammps.PerfConfig{BoxSize: s.box, Procs: s.procs, Steps: o.LAMMPSSteps})
			return WeakScalingRow{
				BoxSize:      s.box,
				Procs:        s.procs,
				AtomsPerRank: r.Atoms / s.procs,
				StepTime:     r.StepTime,
			}, err
		}})
	}
	return cells
}

// RenderWeakScaling formats the weak-scaling table.
func RenderWeakScaling(rows []WeakScalingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "LAMMPS weak scaling (≈256k atoms per rank):\n")
	fmt.Fprintf(&b, "%-8s %-8s %-14s %-12s %-12s\n", "box", "procs", "atoms/rank", "step", "efficiency")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %-8d %-14d %-12v %-12.3f\n",
			r.BoxSize, r.Procs, r.AtomsPerRank, r.StepTime, r.Efficiency)
	}
	return b.String()
}

// ReachRow is one distance-budget evaluation.
type ReachRow struct {
	App     string
	Km      float64
	Slack   sim.Duration
	Upper   float64
	Within1 bool
}

// Reach evaluates both applications' pessimistic penalty as a function of
// fibre distance — the cluster-scale question the conclusions raise.
// The study is the calibrated one (Calibrate) that Table IV predicts from.
func Reach(o Options, study *core.Study, tr Traces) ([]ReachRow, error) {
	return sweep(o.Jobs, reachCells(study, tr))
}

// reachCells reads the study's surface over the (app, km) grid.
func reachCells(study *core.Study, tr Traces) []cell[ReachRow] {
	labels, apps := tr.profiles()
	var cells []cell[ReachRow]
	for a, app := range apps {
		for _, km := range []float64{0.05, 1, 5, 20, 100, 500, 2000} {
			cells = append(cells, cell[ReachRow]{fmt.Sprintf("reach/%s/%gkm", labels[a], km), func() (ReachRow, error) {
				slack := fabric.PropagationDelay(km)
				pred, err := study.Surface.Predict(app, slack)
				return ReachRow{
					App: labels[a], Km: km, Slack: slack,
					Upper: pred.Upper, Within1: pred.Upper < 0.01,
				}, err
			}})
		}
	}
	return cells
}

// RenderReach formats the distance budget.
func RenderReach(rows []ReachRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Distance budget (conclusions: 100µs ⇒ 20km before other effects):\n")
	fmt.Fprintf(&b, "%-12s %-10s %-10s %-12s %-8s\n", "app", "km", "slack", "upper", "<1%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-10g %-10v %-12.5f %-8v\n",
			r.App, r.Km, r.Slack, r.Upper, r.Within1)
	}
	return b.String()
}

// ThroughputRow aggregates one architecture's batch-scheduling outcome.
type ThroughputRow struct {
	Arch        string
	Makespan    sim.Duration
	MeanWait    sim.Duration
	GPUEnergyWh float64
}

// Throughput schedules the same mixed job stream (CPU-dominant,
// GPU-dominant, balanced — the paper's framing) on equal-hardware
// traditional and CDI machines and aggregates over several seeds — the
// introduction's job-throughput and energy claims, quantified.
func Throughput(o Options) ([]ThroughputRow, error) {
	cmps, err := sweep(o.Jobs, throughputCells())
	if err != nil {
		return nil, err
	}
	// Accumulate in seed order so the float sums are bit-identical to the
	// serial loop regardless of which worker finished first.
	var trad, cdi ThroughputRow
	trad.Arch, cdi.Arch = "traditional", "cdi"
	for _, cmp := range cmps {
		trad.Makespan += cmp.Traditional.Makespan / throughputSeeds
		cdi.Makespan += cmp.CDI.Makespan / throughputSeeds
		trad.MeanWait += cmp.Traditional.MeanWait / throughputSeeds
		cdi.MeanWait += cmp.CDI.MeanWait / throughputSeeds
		trad.GPUEnergyWh += cmp.Traditional.GPUEnergyWh / throughputSeeds
		cdi.GPUEnergyWh += cmp.CDI.GPUEnergyWh / throughputSeeds
	}
	return []ThroughputRow{trad, cdi}, nil
}

// throughputSeeds is how many workload seeds the throughput comparison
// averages over.
const throughputSeeds = 5

func throughputCells() []cell[sched.Comparison] {
	var cells []cell[sched.Comparison]
	for seed := int64(1); seed <= throughputSeeds; seed++ {
		cells = append(cells, cell[sched.Comparison]{fmt.Sprintf("throughput/seed%d", seed), func() (sched.Comparison, error) {
			jobs, err := sched.WorkloadMix(40, 24, seed)
			if err != nil {
				return sched.Comparison{}, err
			}
			return sched.Compare(jobs, 8, 24, 2, sched.Backfill)
		}})
	}
	return cells
}

// RenderThroughput formats the batch comparison.
func RenderThroughput(rows []ThroughputRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Batch throughput on a mixed queue (introduction's efficiency claims, 5-seed mean):\n")
	fmt.Fprintf(&b, "%-14s %-14s %-14s %-14s\n", "architecture", "makespan", "mean wait", "GPU energy")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-14v %-14v %-10.1f Wh\n", r.Arch, r.Makespan, r.MeanWait, r.GPUEnergyWh)
	}
	return b.String()
}

// CouplingRow is one interconnect choice's multi-GPU training outcome.
type CouplingRow struct {
	Interconnect string
	GPUs         int
	Runtime      sim.Duration
	StepTime     sim.Duration
}

// ChassisCoupling runs multi-GPU CosmoFlow with the gradient allreduce on
// three interconnects — NVLink-coupled chassis, intra-node shared memory,
// and inter-node network — quantifying the Discussion's claim that a CDI
// chassis "can greatly increase the performance of CPU asynchronous
// operations such as GPU-to-GPU collective operations".
func ChassisCoupling(o Options) ([]CouplingRow, error) { return sweep(o.Jobs, couplingCells(o)) }

func couplingCells(o Options) []cell[CouplingRow] {
	o = o.withDefaults()
	const gpus = 4
	cases := []struct {
		name string
		cost mpi.CostModel
	}{
		{"nvlink-chassis", mpi.NVLink()},
		{"intra-node", mpi.IntraNode()},
		{"inter-node", mpi.InterNode()},
	}
	var cells []cell[CouplingRow]
	for _, c := range cases {
		cells = append(cells, cell[CouplingRow]{"coupling/" + c.name, func() (CouplingRow, error) {
			r, err := cosmoflow.RunPerf(cosmoflow.PerfConfig{
				GPUs: gpus, Epochs: o.CosmoEpochs,
				TrainSamples: o.CosmoSamples * gpus, ValSamples: o.CosmoSamples,
				Interconnect: c.cost,
			})
			return CouplingRow{
				Interconnect: c.name, GPUs: gpus,
				Runtime: r.Runtime, StepTime: r.StepTime,
			}, err
		}})
	}
	return cells
}

// RenderChassisCoupling formats the comparison.
func RenderChassisCoupling(rows []CouplingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "GPU-to-GPU coupling (Discussion: chassis-coupled collectives are faster):\n")
	fmt.Fprintf(&b, "%-16s %-6s %-12s %-12s\n", "interconnect", "gpus", "runtime", "step")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-6d %-12v %-12v\n", r.Interconnect, r.GPUs, r.Runtime, r.StepTime)
	}
	return b.String()
}

// PreloadRow compares full injection against an LD_PRELOAD-style shim.
type PreloadRow struct {
	Coverage     string
	DelayedCalls int64
	Penalty      float64
}

// PreloadComparison reproduces §IV-D's aside: "preliminary tests were also
// done with the LD_PRELOAD method ... the results generally agreed", while
// §III-B warns that "complete confidence in coverage of API calls is
// difficult". A shim wrapping only the memcpy symbols misses launch and
// synchronize calls; the comparison quantifies both the agreement and the
// under-injection.
func PreloadComparison(o Options) ([]PreloadRow, error) {
	iters := o.ProxyIters
	if iters <= 0 {
		iters = 30
	}
	const (
		size = 1 << 11
		sl   = 1 * sim.Millisecond
	)
	runs, err := sweep(o.Jobs, []cell[proxy.Result]{
		{"preload/baseline", func() (proxy.Result, error) { return proxy.Run(proxy.Config{MatrixSize: size, Iters: iters}) }},
		{"preload/all-calls", func() (proxy.Result, error) {
			return proxy.Run(proxy.Config{MatrixSize: size, Iters: iters, Slack: sl})
		}},
		{"preload/memcpy-only", func() (proxy.Result, error) { return runPreloadProxy(size, iters, sl) }},
	})
	if err != nil {
		return nil, err
	}
	base, full, partial := runs[0], runs[1], runs[2]
	// Equation 1 with the shim's actual coverage (3 calls/iteration).
	shim := slack.ClampPenalty(slack.Penalty(partial.LoopTime, base.LoopTime, partial.DelayedCalls, sl))
	return []PreloadRow{
		{Coverage: "all-calls", DelayedCalls: full.DelayedCalls, Penalty: proxy.Penalty(base, full)},
		{Coverage: "memcpy-only", DelayedCalls: partial.DelayedCalls, Penalty: shim},
	}, nil
}

// runPreloadProxy reruns the proxy loop with an LD_PRELOAD-style injector
// that only wraps the synchronous memcpy symbols, and returns the loop time
// and the number of calls the shim delayed as a proxy.Result.
func runPreloadProxy(size, iters int, sl sim.Duration) (proxy.Result, error) {
	// proxy.Run's injector covers every call, so this run builds its own
	// node with a memcpy-only injector and drives the proxy's loop on it.
	env := sim.NewEnv()
	defer env.Close()
	dev, err := gpu.NewDevice(env, gpu.A100())
	if err != nil {
		return proxy.Result{}, err
	}
	ctx := cuda.NewContext(dev, cuda.Config{})
	inj := slack.New(sl, slack.WithSymbols("cudaMemcpy(HtoD)", "cudaMemcpy(DtoH)"))
	ctx.Interpose(inj)

	loop, err := timeProxyLoop(env, "omp0", proxy.Local{Context: ctx}, size, iters)
	if err != nil {
		return proxy.Result{}, err
	}
	return proxy.Result{LoopTime: loop, DelayedCalls: inj.DelayedCalls()}, nil
}

// RenderPreload formats the comparison.
func RenderPreload(rows []PreloadRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "LD_PRELOAD-style shim vs full injection (§III-B / §IV-D):\n")
	fmt.Fprintf(&b, "%-14s %-14s %-10s\n", "coverage", "delayed calls", "penalty")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-14d %-10.5f\n", r.Coverage, r.DelayedCalls, r.Penalty)
	}
	b.WriteString("the shim misses launch/sync symbols: fewer injections, same residual trend.\n")
	return b.String()
}

// ScaleRow is one deployment scale's end-to-end outcome.
type ScaleRow struct {
	Scale   fabric.Scale
	Slack   sim.Duration
	Runtime sim.Duration
	// Overhead is runtime/node-local − 1: everything the deployment adds,
	// direct network delay included (the paper's Equation 1 would remove
	// the direct part; here we show the raw, user-visible cost).
	Overhead float64
}

// DeploymentScales runs LAMMPS end to end under each composition scale's
// actual slack (node-local, rack, row, cluster at 20 km) — the whole study
// compressed to one table: what a user would experience moving the same
// job further from its GPU.
func DeploymentScales(o Options) ([]ScaleRow, error) {
	rows, err := sweep(o.Jobs, scalesCells(o))
	if err != nil {
		return nil, err
	}
	// The first cell is node-local, so the overhead column is a post-pass
	// against the merged first row.
	base := rows[0].Runtime
	for i := range rows {
		rows[i].Overhead = float64(rows[i].Runtime)/float64(base) - 1
	}
	return rows, nil
}

func scalesCells(o Options) []cell[ScaleRow] {
	o = o.withDefaults()
	cases := []struct {
		scale fabric.Scale
		km    float64
	}{
		{fabric.NodeLocal, 0},
		{fabric.RackScale, 0},
		{fabric.RowScale, 0},
		{fabric.ClusterScale, 20},
	}
	var cells []cell[ScaleRow]
	for _, c := range cases {
		cells = append(cells, cell[ScaleRow]{fmt.Sprintf("scales/%v", c.scale), func() (ScaleRow, error) {
			slackAmt := fabric.SlackForPath(fabric.Preset(c.scale, c.km))
			r, err := lammps.RunPerf(lammps.PerfConfig{
				BoxSize: 60, Procs: 8, Steps: o.LAMMPSSteps, Slack: slackAmt,
			})
			return ScaleRow{Scale: c.scale, Slack: slackAmt, Runtime: r.Runtime}, err
		}})
	}
	return cells
}

// RenderDeploymentScales formats the table.
func RenderDeploymentScales(rows []ScaleRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "LAMMPS under each deployment scale's slack (box 60, 8 ranks; raw user-visible cost):\n")
	fmt.Fprintf(&b, "%-16s %-12s %-12s %-10s\n", "scale", "slack", "runtime", "overhead")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16v %-12v %-12v %+.3f%%\n", r.Scale, r.Slack, r.Runtime, r.Overhead*100)
	}
	return b.String()
}
