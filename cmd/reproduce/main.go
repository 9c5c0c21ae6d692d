// Command reproduce regenerates the paper's tables and figures from the
// simulated stack and prints them with the paper's reference values.
//
//	reproduce -exp all            # everything, quick parameters
//	reproduce -exp table4         # one experiment
//	reproduce -exp figure2 -paper # paper-faithful parameters (slow)
//	reproduce -exp all -j 8       # eight sweep workers; output is
//	                              # byte-identical for every -j value
//
// Paper experiments: table1 figure2 threads cfcpu table2 figure3 figure4
// figure5 table3 table4 validate compose.
// Extensions: appvalidate congestion remoting resilience weak reach throughput coupling preload scales serving churn.
// "all" runs everything.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/experiments"
)

// experimentIDs lists every id -exp accepts, in presentation order.
var experimentIDs = []string{
	"table1", "figure2", "threads", "cfcpu", "table2", "figure3",
	"figure4", "figure5", "table3", "table4", "validate", "compose",
	"appvalidate", "scales", "preload", "congestion", "remoting",
	"resilience", "weak", "coupling", "throughput", "reach", "serving",
	"churn", "pool",
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// failure carries an error from check up to run's recover.
type failure struct{ err error }

// run parses args, renders the selected experiments to stdout, and returns
// the process exit code: 0 on success, 1 when an experiment fails, 2 on a
// usage error.
func run(args []string, stdout io.Writer) (code int) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(failure)
			if !ok {
				panic(r)
			}
			fmt.Fprintf(os.Stderr, "reproduce: %v\n", f.err)
			code = 1
		}
	}()
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id (or comma list)")
	paper := fs.Bool("paper", false, "paper-faithful parameters (slow: full 5000-step runs, 30s proxy loops)")
	jobs := fs.Int("j", 0, "worker pool size for sweeps (0 = GOMAXPROCS, 1 = serial); output is byte-identical for every value")
	traceOut := fs.String("trace", "", "write a Chrome trace of one serving (or churn) window to this file (requires -exp serving or churn)")
	faultLog := fs.Bool("faultlog", false, "dump the deterministic outage schedule the churn experiment draws (requires -exp churn)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file at exit")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
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

	opts := experiments.Quick()
	if *paper {
		opts = experiments.Paper()
	}
	opts.Jobs = *jobs

	known := map[string]bool{"all": true}
	for _, id := range experimentIDs {
		known[id] = true
	}
	want := map[string]bool{}
	var unknown []string
	for _, e := range strings.Split(*exp, ",") {
		e = strings.TrimSpace(e)
		if !known[e] {
			unknown = append(unknown, e)
			continue
		}
		want[e] = true
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		fmt.Fprintf(os.Stderr, "unknown experiment id(s): %s\n", strings.Join(unknown, ", "))
		fmt.Fprintf(os.Stderr, "valid ids: all, %s\n", strings.Join(experimentIDs, ", "))
		return 2
	}
	if *traceOut != "" && !(want["all"] || want["serving"] || want["churn"]) {
		fmt.Fprintf(os.Stderr, "-trace requires -exp serving or -exp churn\n")
		return 2
	}
	if *faultLog && !(want["all"] || want["churn"]) {
		fmt.Fprintf(os.Stderr, "-faultlog requires -exp churn\n")
		return 2
	}
	all := want["all"]
	ran := 0

	section := func(id string) bool {
		if all || want[id] {
			fmt.Fprintf(stdout, "\n======== %s ========\n", id)
			ran++
			return true
		}
		return false
	}

	if section("table1") {
		rows, err := experiments.Table1(opts)
		check(err)
		fmt.Fprint(stdout, experiments.RenderTable1(rows))
	}
	if section("figure2") {
		series, err := experiments.Figure2(opts)
		check(err)
		fmt.Fprint(stdout, experiments.RenderFigure2(series))
	}
	if section("threads") {
		rows, err := experiments.ThreadScaling(opts)
		check(err)
		fmt.Fprint(stdout, experiments.RenderThreadScaling(rows))
	}
	if section("cfcpu") {
		rows, err := experiments.CosmoFlowCPU(opts)
		check(err)
		fmt.Fprint(stdout, experiments.RenderCosmoFlowCPU(rows))
	}
	if section("table2") {
		rows, err := experiments.Table2(opts)
		check(err)
		fmt.Fprint(stdout, experiments.RenderTable2(rows))
	}
	if section("figure3") {
		pts, err := experiments.Figure3(opts, nil)
		check(err)
		fmt.Fprint(stdout, experiments.RenderFigure3(pts))
	}
	if all || want["figure4"] || want["figure5"] || want["table3"] || want["table4"] {
		traces, err := experiments.CollectTraces(opts)
		check(err)
		if section("figure4") {
			fmt.Fprint(stdout, experiments.RenderFigure4(traces))
		}
		if section("figure5") {
			fmt.Fprint(stdout, experiments.RenderFigure5(traces))
		}
		if all || want["table3"] || want["table4"] {
			blocks, surface, err := experiments.Table4(opts, traces)
			check(err)
			if section("table3") {
				rows := experiments.Table3(traces, surface)
				fmt.Fprint(stdout, experiments.RenderTable3(rows, surface))
			}
			if section("table4") {
				fmt.Fprint(stdout, experiments.RenderTable4(blocks))
			}
		}
	}
	if section("validate") {
		v, err := experiments.Validate(opts)
		check(err)
		fmt.Fprint(stdout, experiments.RenderValidation(v))
	}
	if section("compose") {
		c, err := experiments.Compose()
		check(err)
		fmt.Fprint(stdout, experiments.RenderCompose(c))
	}
	if section("appvalidate") {
		rows, err := experiments.AppSlackValidation(opts, nil)
		check(err)
		fmt.Fprint(stdout, experiments.RenderAppValidation(rows))
	}
	if section("scales") {
		rows, err := experiments.DeploymentScales(opts)
		check(err)
		fmt.Fprint(stdout, experiments.RenderDeploymentScales(rows))
	}
	if section("preload") {
		rows, err := experiments.PreloadComparison(opts)
		check(err)
		fmt.Fprint(stdout, experiments.RenderPreload(rows))
	}
	if section("congestion") {
		pts, err := experiments.Congestion(opts)
		check(err)
		fmt.Fprint(stdout, experiments.RenderCongestion(pts))
	}
	if section("remoting") {
		results, err := experiments.RemotingComparison(opts)
		check(err)
		fmt.Fprint(stdout, experiments.RenderRemoting(results))
	}
	if section("resilience") {
		rows, err := experiments.Resilience(opts)
		check(err)
		fmt.Fprint(stdout, experiments.RenderResilience(rows))
	}
	if section("weak") {
		rows, err := experiments.WeakScaling(opts)
		check(err)
		fmt.Fprint(stdout, experiments.RenderWeakScaling(rows))
	}
	if section("coupling") {
		rows, err := experiments.ChassisCoupling(opts)
		check(err)
		fmt.Fprint(stdout, experiments.RenderChassisCoupling(rows))
	}
	if section("throughput") {
		rows, err := experiments.Throughput(opts)
		check(err)
		fmt.Fprint(stdout, experiments.RenderThroughput(rows))
	}
	if section("reach") {
		traces, err := experiments.CollectTraces(opts)
		check(err)
		rows, err := experiments.Reach(opts, traces)
		check(err)
		fmt.Fprint(stdout, experiments.RenderReach(rows))
	}
	if section("serving") {
		rows, err := experiments.Serving(opts)
		check(err)
		fmt.Fprint(stdout, experiments.RenderServing(rows))
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			check(err)
			check(experiments.WriteServingTrace(opts, f))
			check(f.Close())
			fmt.Fprintf(stdout, "wrote serving trace to %s\n", *traceOut)
		}
	}
	if section("churn") {
		rows, err := experiments.Churn(opts)
		check(err)
		fmt.Fprint(stdout, experiments.RenderChurn(rows))
		if *faultLog {
			fmt.Fprint(stdout, experiments.ChurnFaultLog(opts))
		}
		if *traceOut != "" {
			// When the serving section already claimed the path, the churn
			// trace goes alongside it.
			out := *traceOut
			if all || want["serving"] {
				out += ".churn"
			}
			f, err := os.Create(out)
			check(err)
			check(experiments.WriteChurnTrace(opts, f))
			check(f.Close())
			fmt.Fprintf(stdout, "wrote churn trace to %s\n", out)
		}
	}

	if section("pool") {
		rows, err := experiments.Pool(opts)
		check(err)
		fmt.Fprint(stdout, experiments.RenderPool(rows))
	}

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiments selected by %q\n", *exp)
		fs.Usage()
		return 2
	}
	return 0
}

// check aborts run with exit code 1 when err is non-nil.
func check(err error) {
	if err != nil {
		panic(failure{err})
	}
}
