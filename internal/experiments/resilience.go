package experiments

// The resilience experiment: the paper's slack study assumes a fabric
// that never fails. This sweep asks what its Table IV numbers look like
// on a fabric that drops packets, flaps links, and loses GPU servers —
// with the transport recovering via deterministic timeouts, retries and
// failover — and reports the availability-adjusted slack penalty next to
// the fault-free value for the proxy and both production applications.

import (
	"fmt"
	"strings"

	"repro/internal/cuda"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/lammps"
	"repro/internal/model"
	"repro/internal/proxy"
	"repro/internal/remoting"
	"repro/internal/sim"
)

// ResilienceRow is one (application, slack, fault intensity) measurement.
type ResilienceRow struct {
	App       string
	Slack     sim.Duration
	Intensity float64
	// Penalty is the availability-adjusted slack penalty: Equation 1
	// removes only the nominal per-call slack, so timeout waits, retries
	// and failover re-uploads remain inside it.
	Penalty float64
	// FaultFree is the same cell's penalty at zero fault intensity — the
	// fault-free Table IV-style number the adjusted value sits next to.
	FaultFree float64
	// Policy action counts for the run.
	Retries   int64
	Timeouts  int64
	Failovers int64
	// Degraded records that every remote died and the run finished on
	// node-local execution.
	Degraded bool
}

// resilienceSlacks and resilienceIntensities define the sweep grid:
// the paper's headline 100µs row-scale slack and the 10ms extreme,
// crossed with no faults, a moderate schedule and an aggressive one.
var (
	resilienceSlacks      = []sim.Duration{100 * sim.Microsecond, 10 * sim.Millisecond}
	resilienceIntensities = []float64{0, 1, 4}
)

// Resilience sweeps fault intensity × slack for the proxy (driven through
// the fault-tolerant remoting transport) and for LAMMPS and CosmoFlow
// (driven through the fault interposer on every rank's CUDA calls). Every
// fault is drawn from a seeded schedule, so the sweep is byte-identical
// across runs and worker counts.
func Resilience(o Options) ([]ResilienceRow, error) {
	cells, err := resilienceCells(o)
	if err != nil {
		return nil, err
	}
	rows, err := sweep(o.Jobs, cells)
	if err != nil {
		return nil, err
	}
	// FaultFree column: each (app, slack) group's intensity-0 penalty.
	zero := map[[2]string]float64{}
	for _, r := range rows {
		if r.Intensity == 0 {
			zero[[2]string{r.App, r.Slack.String()}] = r.Penalty
		}
	}
	for i := range rows {
		rows[i].FaultFree = zero[[2]string{rows[i].App, rows[i].Slack.String()}]
	}
	return rows, nil
}

// resilienceCells runs the fault-free zero-slack baseline of each
// application as a cell of its own (resilience/<app>/baseline), then
// returns one cell per (app, slack, intensity). The applications run
// under the fault interposer on every rank's CUDA calls with the same
// Equation-1 accounting as AppSlackValidation.
func resilienceCells(o Options) ([]cell[ResilienceRow], error) {
	o = o.withDefaults()
	iters := o.ProxyIters
	if iters <= 0 {
		iters = 30
	}
	apps := []struct {
		name string
		run  appRun
	}{
		{"lammps", lammpsRun(lammps.PerfConfig{BoxSize: 40, Procs: 4, Steps: o.LAMMPSSteps})},
		{"cosmoflow", cosmoflowRun(cosmoflowConfig(o))},
	}
	baseCells := []cell[sim.Duration]{{"resilience/proxy/baseline", func() (sim.Duration, error) { return localProxyLoop(iters) }}}
	for _, a := range apps {
		baseCells = append(baseCells, cell[sim.Duration]{"resilience/" + a.name + "/baseline", func() (sim.Duration, error) {
			runtime, _, err := a.run(0, nil)
			return runtime, err
		}})
	}
	bases, err := sweep(o.Jobs, baseCells)
	if err != nil {
		return nil, err
	}

	var cells []cell[ResilienceRow]
	add := func(app string, run func(sl sim.Duration, intensity float64, seed int64) (ResilienceRow, error)) {
		for _, sl := range resilienceSlacks {
			for _, intensity := range resilienceIntensities {
				// Every cell gets its own seed, 31 plus its place in the
				// grid, so schedules differ across the grid while staying
				// fixed across runs.
				seed := int64(31 + len(cells))
				cells = append(cells, cell[ResilienceRow]{fmt.Sprintf("resilience/%s/%v/i%g", app, sl, intensity),
					func() (ResilienceRow, error) { return run(sl, intensity, seed) }})
			}
		}
	}
	add("proxy", func(sl sim.Duration, intensity float64, seed int64) (ResilienceRow, error) {
		return resilientProxyCell(iters, sl, intensity, seed, bases[0])
	})
	for i, a := range apps {
		base := bases[i+1]
		add(a.name, func(sl sim.Duration, intensity float64, seed int64) (ResilienceRow, error) {
			ci, err := faults.NewCallInjector(faults.AtIntensity(intensity, seed), faults.Policy{}, 1)
			if err != nil {
				return ResilienceRow{}, err
			}
			runtime, calls, err := a.run(sl, ci)
			st := ci.Stats()
			return ResilienceRow{
				App: a.name, Slack: sl, Intensity: intensity,
				Penalty: model.AvailabilityAdjustedPenalty(runtime, calls, sl, base),
				Retries: st.Retries, Timeouts: st.Timeouts, Failovers: st.Failovers, Degraded: st.DegradedToLocal,
			}, err
		})
	}
	return cells, nil
}

// resilientProxyCell runs the proxy loop through the fault-tolerant
// remoting transport over a path whose one-way latency equals the slack.
func resilientProxyCell(iters int, sl sim.Duration, intensity float64, seed int64, baseline sim.Duration) (ResilienceRow, error) {
	path, err := fabric.PathForSlack(sl)
	if err != nil {
		return ResilienceRow{}, err
	}
	env := sim.NewEnv()
	defer env.Close()
	r, err := remoting.NewResilient(env, gpu.A100(), remoting.ResilientConfig{
		Config: remoting.Config{Path: path, Seed: seed},
		Faults: faults.AtIntensity(intensity, seed),
		// The call deadline must exceed the slowest call's service time or
		// healthy calls would be treated as lost. The binding term is the
		// starvation warm-up a long-idle GPU charges its next kernel
		// (WarmupRate × WarmupSaturation ≈ 81 ms on the A100 model), which
		// a 10 ms path provokes on every iteration.
		Policy:   faults.Policy{CallTimeout: 100 * sim.Millisecond},
		Standbys: 1,
	})
	if err != nil {
		return ResilienceRow{}, err
	}
	matBytes := gpu.MatrixBytes(proxyCellSize)
	kernel := gpu.MatMul(proxyCellSize)
	var loop sim.Duration
	var calls int64
	var runErr error
	env.Spawn("host", func(p *sim.Proc) {
		m, err := proxy.Alloc(p, r, matBytes)
		if err != nil {
			runErr = err
			return
		}
		before, start := r.Stats().Calls, p.Now()
		for i := 0; i < iters && runErr == nil; i++ {
			runErr = m.Iterate(p, r, kernel)
		}
		loop, calls = p.Now().Sub(start), r.Stats().Calls-before
	})
	env.Run()
	if runErr != nil {
		return ResilienceRow{}, runErr
	}
	// The nominal per-call slack a remoted call pays: request + response
	// crossing plus the server's dispatch overhead.
	perCall := path.RoundTrip() + remoting.DefaultServerOverhead
	st := r.Stats()
	return ResilienceRow{
		App: "proxy", Slack: sl, Intensity: intensity,
		Penalty:   model.AvailabilityAdjustedPenalty(loop, calls, perCall, baseline),
		Retries:   st.Retries,
		Timeouts:  st.Timeouts,
		Failovers: st.Failovers,
		Degraded:  st.Degraded,
	}, nil
}

// proxyCellSize is the matrix dimension of the resilience sweep's proxy
// runs and of their node-local baseline.
const proxyCellSize = 1 << 11

// localProxyLoop times iters fault-free node-local proxy iterations — the
// baseline the remoted penalties are expressed against.
func localProxyLoop(iters int) (sim.Duration, error) {
	env := sim.NewEnv()
	defer env.Close()
	dev, err := gpu.NewDevice(env, gpu.A100())
	if err != nil {
		return 0, err
	}
	return timeProxyLoop(env, "host", proxy.Local{Context: cuda.NewContext(dev, cuda.Config{})}, proxyCellSize, iters)
}

// timeProxyLoop spawns one host process, name, on env that allocates the
// proxy's size×size matrices on rt and times iters iterations of its loop.
func timeProxyLoop(env *sim.Env, name string, rt proxy.Runtime, size, iters int) (sim.Duration, error) {
	matBytes := gpu.MatrixBytes(size)
	kernel := gpu.MatMul(size)
	var loop sim.Duration
	var runErr error
	env.Spawn(name, func(p *sim.Proc) {
		m, err := proxy.Alloc(p, rt, matBytes)
		if err != nil {
			runErr = err
			return
		}
		start := p.Now()
		for i := 0; i < iters && runErr == nil; i++ {
			runErr = m.Iterate(p, rt, kernel)
		}
		loop = p.Now().Sub(start)
	})
	env.Run()
	return loop, runErr
}

// RenderResilience formats the sweep.
func RenderResilience(rows []ResilienceRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Availability-adjusted slack penalty under deterministic fault injection:\n")
	fmt.Fprintf(&b, "(Equation 1 removes nominal slack only; timeout/retry/failover waits stay in)\n")
	fmt.Fprintf(&b, "%-10s %-10s %-10s %-12s %-12s %-8s %-9s %-10s %-9s\n",
		"app", "slack", "intensity", "penalty", "fault-free", "retries", "timeouts", "failovers", "degraded")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-10v %-10g %-12.5f %-12.5f %-8d %-9d %-10d %-9v\n",
			r.App, r.Slack, r.Intensity, r.Penalty, r.FaultFree,
			r.Retries, r.Timeouts, r.Failovers, r.Degraded)
	}
	b.WriteString("zero intensity reproduces the fault-free penalty exactly; faults add availability cost on top.\n")
	return b.String()
}
