// Command bench measures the simulator's host cost: the wall time, memory
// and set-up time of four workloads driven through the repository's
// public packages, and, in a traced run, how host CPU splits across the
// repository's modules. Every iteration's output is checked against the
// first iteration's and, at seed 1, against testdata/<workload>.golden.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh -o result.json          # 3 interleaved rounds, every workload
//	bash bench/run.sh -traced -o traced.json  # 1 profiled round: per-layer metrics
//	bash bench/run.sh -compare A.json B.json  # per-metric deltas against the bounds
//	bash bench/run.sh --workload paper --seed 1 --seconds 10 --trace 0
//
// The last form measures one workload in this process for a time box and
// prints one JSON line with the keys correct, attempted, failed and
// metrics: the end-to-end metrics, or with --trace 1 the per-layer ones.
// Every measuring process runs with GOMAXPROCS=1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "measure one workload in this process and print one JSON line")
		seed    = fs.Int64("seed", 1, "workload seed; seed 1 is also checked against the goldens")
		seconds = fs.Float64("seconds", 10, "with -workload: measure for this many seconds")
		iters   = fs.Int("iters", 0, "with -workload: measure this many iterations instead of a time box")
		trace   = fs.Int("trace", 0, "with -workload: 1 adds a profiled loop and reports the per-layer metrics")
		samples = fs.Bool("samples", false, "with -workload: print the raw samples the suite run pools")
		out     = fs.String("o", "", "run the suite and write its result JSON to this file")
		traced  = fs.Bool("traced", false, "with -o: one traced round instead of three untraced ones")
		only    = fs.String("w", "", "with -o: comma-separated workloads (default all)")
		cmp     = fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *cmp && fs.NArg() == 2:
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *name != "" && (*trace == 0 || *trace == 1):
		return runOne(*name, *seed, budget{seconds: *seconds, iters: *iters}, *trace == 1, *samples, stdout, stderr)
	case *out != "":
		return runSuite(*only, *seed, *traced, *out, stdout, stderr)
	}
	fs.Usage()
	return 2
}

// metricValue is one reported metric. N and Spread are set in suite
// results only: the sample count, and the (max-min)/median of the
// per-round values.
type metricValue struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`
	Spread float64 `json:"spread,omitempty"`
}

// runLine is the one-line result of a single-workload run.
type runLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne measures one workload in this process. It exits 1 when an
// iteration failed its checks, after printing the result.
func runOne(name string, seed int64, b budget, traced, raw bool, stdout, stderr io.Writer) int {
	w, ok := workloadByName(name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	rec, err := measure(w, seed, b, traced, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	var line any = rec
	if !raw {
		table := e2eMetrics
		if traced {
			table = layerMetrics
		}
		all := summarize([]record{rec})
		ms := make(map[string]metricValue, len(table))
		for _, m := range table {
			v, ok := all[m.name]
			if !ok {
				fmt.Fprintf(stderr, "bench: %s: metric %s was not measured\n", name, m.name)
				return 1
			}
			ms[m.name] = metricValue{Value: v.Value, Unit: v.Unit}
		}
		line = runLine{Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: ms}
	}
	//cdivet:allow taint the line reports host timings; they are the measurement
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if rec.Failed > 0 {
		return 1
	}
	return 0
}
