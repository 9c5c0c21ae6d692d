// Command reproduce regenerates the paper's tables and figures from the
// simulated stack and prints them with the paper's reference values.
//
//	reproduce -exp all            # everything, quick parameters
//	reproduce -exp table4         # one experiment
//	reproduce -exp figure2 -paper # paper-faithful parameters (slow)
//	reproduce -exp all -j 8       # eight sweep workers; output is
//	                              # byte-identical for every -j value
//
// `reproduce -h` lists the experiment ids: the paper's tables and figures
// first, then the extensions. "all" runs everything.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/proxy"
)

// experiment is one -exp section.
type experiment struct {
	id string
	// run computes the section and returns its rendered body.
	run func(in *inputs) string
	// trace, when set, writes a Chrome trace of one window of the
	// experiment (-trace).
	trace func(experiments.Options, io.Writer) error
	// faultLog, when set, returns the outage schedule the experiment
	// draws (-faultlog).
	faultLog func(experiments.Options) string
}

// table lists every experiment in presentation order.
var table = []experiment{
	{id: "table1", run: render(experiments.Table1, experiments.RenderTable1)},
	{id: "figure2", run: render(experiments.Figure2, experiments.RenderFigure2)},
	{id: "threads", run: render(experiments.ThreadScaling, experiments.RenderThreadScaling)},
	{id: "cfcpu", run: render(experiments.CosmoFlowCPU, experiments.RenderCosmoFlowCPU)},
	{id: "table2", run: render(experiments.Table2, experiments.RenderTable2)},
	{id: "figure3", run: func(in *inputs) string { return experiments.RenderFigure3(in.proxyGrid()) }},
	{id: "figure4", run: func(in *inputs) string { return experiments.RenderFigure4(in.traces()) }},
	{id: "figure5", run: func(in *inputs) string { return experiments.RenderFigure5(in.traces()) }},
	// Table III reads only the traces; its surface parameter is unused.
	{id: "table3", run: func(in *inputs) string {
		return experiments.RenderTable3(experiments.Table3(in.traces(), nil), nil)
	}},
	{id: "table4", run: func(in *inputs) string {
		return experiments.RenderTable4(must(experiments.PredictTable4(in.opts, in.study(), in.traces())))
	}},
	{id: "validate", run: func(in *inputs) string {
		return experiments.RenderValidation(must(experiments.ValidateFromSweep(in.opts, in.proxyGrid())))
	}},
	{id: "compose", run: func(*inputs) string { return experiments.RenderCompose(must(experiments.Compose())) }},
	{id: "appvalidate", run: func(in *inputs) string {
		return experiments.RenderAppValidation(must(experiments.AppSlackValidation(in.opts, in.study(), in.traces(), nil)))
	}},
	{id: "scales", run: render(experiments.DeploymentScales, experiments.RenderDeploymentScales)},
	{id: "preload", run: render(experiments.PreloadComparison, experiments.RenderPreload)},
	{id: "congestion", run: render(experiments.Congestion, experiments.RenderCongestion)},
	{id: "remoting", run: render(experiments.RemotingComparison, experiments.RenderRemoting)},
	{id: "resilience", run: render(experiments.Resilience, experiments.RenderResilience)},
	{id: "weak", run: render(experiments.WeakScaling, experiments.RenderWeakScaling)},
	{id: "coupling", run: render(experiments.ChassisCoupling, experiments.RenderChassisCoupling)},
	{id: "throughput", run: render(experiments.Throughput, experiments.RenderThroughput)},
	{id: "reach", run: func(in *inputs) string {
		return experiments.RenderReach(must(experiments.Reach(in.opts, in.study(), in.traces())))
	}},
	{id: "serving", run: render(experiments.Serving, experiments.RenderServing),
		trace: experiments.WriteServingTrace},
	{id: "churn", run: render(experiments.Churn, experiments.RenderChurn),
		trace: experiments.WriteChurnTrace, faultLog: experiments.ChurnFaultLog},
	{id: "pool", run: render(experiments.Pool, experiments.RenderPool)},
}

// inputs carries the options and the data several sections share, so one
// invocation computes each shared input at most once.
type inputs struct {
	opts experiments.Options
	grid []proxy.SweepPoint
	tr   *experiments.Traces
	cal  *core.Study
}

// proxyGrid returns Figure 3's proxy sweep behind figure3 and validate,
// and through the study behind table4, reach and appvalidate, sweeping it
// on first use.
func (in *inputs) proxyGrid() []proxy.SweepPoint {
	if in.grid == nil {
		in.grid = must(experiments.Figure3(in.opts, nil))
	}
	return in.grid
}

// traces returns the LAMMPS and CosmoFlow traces behind figure4, figure5,
// table3, table4, appvalidate and reach, collecting them on first use.
func (in *inputs) traces() experiments.Traces {
	if in.tr == nil {
		tr := must(experiments.CollectTraces(in.opts))
		in.tr = &tr
	}
	return *in.tr
}

// study returns the proxy surface behind table4, appvalidate and reach,
// calibrating it from the proxy grid on first use.
func (in *inputs) study() *core.Study {
	if in.cal == nil {
		in.cal = must(experiments.Calibrate(in.proxyGrid()))
	}
	return in.cal
}

// render adapts a compute/render pair to a table entry.
func render[T any](compute func(experiments.Options) (T, error), show func(T) string) func(*inputs) string {
	return func(in *inputs) string { return show(must(compute(in.opts))) }
}

// ids returns the ids of the table entries keep accepts, in table order.
func ids(keep func(experiment) bool) []string {
	var out []string
	for _, e := range table {
		if keep(e) {
			out = append(out, e.id)
		}
	}
	return out
}

func traced(e experiment) bool { return e.trace != nil }
func logged(e experiment) bool { return e.faultLog != nil }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// failure carries an error from check up to run's recover.
type failure struct{ err error }

// run parses args, renders the selected experiments to stdout, and returns
// the process exit code: 0 on success, 1 when an experiment fails, 2 on a
// usage error.
func run(args []string, stdout, stderr io.Writer) (code int) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(failure)
			if !ok {
				panic(r)
			}
			fmt.Fprintf(stderr, "reproduce: %v\n", f.err)
			code = 1
		}
	}()
	allIDs := ids(func(experiment) bool { return true })
	traceReq := "-exp " + strings.Join(ids(traced), " or -exp ")
	logReq := "-exp " + strings.Join(ids(logged), " or -exp ")
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "comma list of experiment ids: all, "+strings.Join(allIDs, ", "))
	paper := fs.Bool("paper", false, "paper-faithful parameters (slow: full 5000-step runs, 30s proxy loops)")
	jobs := fs.Int("j", 0, "worker pool size for sweeps (0 = GOMAXPROCS, 1 = serial); output is byte-identical for every value")
	traceOut := fs.String("trace", "", "write a Chrome trace of one experiment window to this file (requires "+traceReq+")")
	faultLog := fs.Bool("faultlog", false, "dump the deterministic outage schedule the experiment draws (requires "+logReq+")")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file at exit")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	want := map[string]bool{}
	var unknown []string
	for _, e := range strings.Split(*exp, ",") {
		e = strings.TrimSpace(e)
		if e != "all" && !slices.Contains(allIDs, e) {
			unknown = append(unknown, e)
			continue
		}
		want[e] = true
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		fmt.Fprintf(stderr, "unknown experiment id(s): %s\n", strings.Join(unknown, ", "))
		fmt.Fprintf(stderr, "valid ids: all, %s\n", strings.Join(allIDs, ", "))
		return 2
	}
	var selected []experiment
	for _, e := range table {
		if want["all"] || want[e.id] {
			selected = append(selected, e)
		}
	}
	if *traceOut != "" && !slices.ContainsFunc(selected, traced) {
		fmt.Fprintf(stderr, "-trace requires %s\n", traceReq)
		return 2
	}
	if *faultLog && !slices.ContainsFunc(selected, logged) {
		fmt.Fprintf(stderr, "-faultlog requires %s\n", logReq)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			check(f.Close())
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			check(err)
			runtime.GC() // flush recent frees so the profile shows live data
			check(pprof.WriteHeapProfile(f))
			check(f.Close())
		}()
	}

	in := &inputs{opts: experiments.Quick()}
	if *paper {
		in.opts = experiments.Paper()
	}
	in.opts.Jobs = *jobs
	// The first traced section writes to the -trace path; later ones write
	// beside it, suffixed with their id.
	wroteTrace := false
	for _, e := range selected {
		fmt.Fprintf(stdout, "\n======== %s ========\n", e.id)
		fmt.Fprint(stdout, e.run(in))
		if *faultLog && e.faultLog != nil {
			fmt.Fprint(stdout, e.faultLog(in.opts))
		}
		if *traceOut != "" && e.trace != nil {
			out := *traceOut
			if wroteTrace {
				out += "." + e.id
			}
			f, err := os.Create(out)
			check(err)
			check(e.trace(in.opts, f))
			check(f.Close())
			fmt.Fprintf(stdout, "wrote %s trace to %s\n", e.id, out)
			wroteTrace = true
		}
	}
	return 0
}

// check aborts run with exit code 1 when err is non-nil.
func check(err error) {
	if err != nil {
		panic(failure{err})
	}
}

// must returns v, aborting run with exit code 1 when err is non-nil.
func must[T any](v T, err error) T {
	check(err)
	return v
}
