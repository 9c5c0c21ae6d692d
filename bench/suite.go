package main

// The suite run and the comparison of two suite results.
//
// The suite runs every workload in a fresh child process of this binary,
// one child at a time, each with GOMAXPROCS=1, in interleaved rounds:
// round 1 runs every workload in turn, then round 2, then round 3. At
// -j 1 the engine runs one sim proc at a time, so extra Ps only add
// cross-P wakeups; interleaving spreads host drift over every workload
// alike instead of letting it land on one.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// suiteRounds is the untraced suite's round count; a traced suite runs
// one round.
const suiteRounds = 3

// result is a suite run's output file.
type result struct {
	Meta      meta                      `json:"meta"`
	Workloads map[string]workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// meta records the host a result was measured on.
type meta struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Nproc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
	Seed       int64  `json:"seed"`
	Rounds     int    `json:"rounds"`
	Traced     bool   `json:"traced"`
	Date       string `json:"date"`
}

func runSuite(only string, seed int64, traced bool, out string, stdout, stderr io.Writer) int {
	ws, err := selectWorkloads(only)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	rounds := suiteRounds
	if traced {
		rounds = 1
	}
	recs := map[string][]record{}
	for r := 1; r <= rounds; r++ {
		for _, w := range ws {
			fmt.Fprintf(stderr, "bench: round %d/%d: %s\n", r, rounds, w.name)
			rec, err := runChild(exe, w, seed, traced, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			recs[w.name] = append(recs[w.name], rec)
		}
	}

	res := result{Meta: hostMeta(seed, rounds, traced), Workloads: map[string]workloadResult{}}
	failed := false
	for _, w := range ws {
		wr := workloadResult{Metrics: summarize(recs[w.name])}
		for _, r := range recs[w.name] {
			wr.Attempted += r.Attempted
			wr.Failed += r.Failed
		}
		failed = failed || wr.Failed > 0
		res.Workloads[w.name] = wr
	}
	//cdivet:allow taint the table reports host timings and the date; they are the measurement
	printResult(stdout, ws, res)
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if failed {
		fmt.Fprintln(stderr, "bench: some iterations failed their checks")
		return 1
	}
	return 0
}

func selectWorkloads(only string) ([]workload, error) {
	if only == "" {
		return workloads, nil
	}
	var ws []workload
	for _, name := range strings.Split(only, ",") {
		w, ok := workloadByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// runChild measures one round of w in a child process and returns its
// raw samples. A child whose iterations failed exits 1 after printing
// them; the failures are counted in the record.
func runChild(exe string, w workload, seed int64, traced bool, stderr io.Writer) (record, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-iters", strconv.Itoa(w.iters), "-trace", trace, "-samples")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	var rec record
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &rec); err != nil {
		return rec, fmt.Errorf("child printed no record (%v): %w", runErr, err)
	}
	return rec, nil
}

func hostMeta(seed int64, rounds int, traced bool) meta {
	m := meta{
		Go:         runtime.Version(),
		GOMAXPROCS: 1,
		Nproc:      runtime.NumCPU(),
		CPU:        "unknown",
		Kernel:     "unknown",
		Seed:       seed,
		Rounds:     rounds,
		Traced:     traced,
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	return m
}

// printResult prints every metric the result holds by name and unit, one
// column per workload.
func printResult(w io.Writer, ws []workload, res result) {
	fmt.Fprintf(w, "%-28s %-6s", "metric", "unit")
	for _, wl := range ws {
		fmt.Fprintf(w, " %14s", wl.name)
	}
	fmt.Fprintln(w)
	for _, table := range [][]metric{e2eMetrics, layerMetrics} {
		for _, m := range table {
			if _, ok := res.Workloads[ws[0].name].Metrics[m.name]; !ok {
				continue
			}
			fmt.Fprintf(w, "%-28s %-6s", m.name, m.unit)
			for _, wl := range ws {
				fmt.Fprintf(w, " %14.6g", res.Workloads[wl.name].Metrics[m.name].Value)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "%-35s", "attempted/failed iterations")
	for _, wl := range ws {
		r := res.Workloads[wl.name]
		fmt.Fprintf(w, " %14s", fmt.Sprintf("%d/%d", r.Attempted, r.Failed))
	}
	fmt.Fprintln(w)
}

func readResult(path string) (result, error) {
	var r result
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

func compareFiles(a, b string, stdout, stderr io.Writer) int {
	ra, err := readResult(a)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	rb, err := readResult(b)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if !compare(ra, rb, stdout) {
		return 1
	}
	return 0
}

// compare prints, per workload and metric, B's change from A. An
// end-to-end metric that worsens by more than its bound is out of bound,
// unless either side's run-to-run spread exceeds the bound: the change is
// then unresolved. A modeled count that differs is flagged: the output
// changed. compare reports whether every end-to-end metric is in bound.
func compare(a, b result, w io.Writer) bool {
	ok := true
	for _, wl := range workloads {
		ra, inA := a.Workloads[wl.name]
		rb, inB := b.Workloads[wl.name]
		if !inA || !inB {
			continue
		}
		fmt.Fprintf(w, "%s (failed %d -> %d)\n", wl.name, ra.Failed, rb.Failed)
		for _, m := range e2eMetrics {
			va, vb := ra.Metrics[m.name], rb.Metrics[m.name]
			worse := ratio(vb.Value-va.Value, va.Value)
			if m.better == "higher" {
				worse = -worse
			}
			verdict := "in bound"
			switch {
			case math.Max(va.Spread, vb.Spread) > m.bound:
				verdict = "unresolved"
			case worse > m.bound:
				verdict = "OUT OF BOUND"
				ok = false
			}
			fmt.Fprintf(w, "  %-28s %-6s %12.6g -> %12.6g  %+7.2f%%  bound %2.0f%%  spread %4.1f%%/%4.1f%%  %s\n",
				m.name, m.unit, va.Value, vb.Value, 100*ratio(vb.Value-va.Value, va.Value),
				100*m.bound, 100*va.Spread, 100*vb.Spread, verdict)
		}
		for _, m := range layerMetrics {
			va, okA := ra.Metrics[m.name]
			vb, okB := rb.Metrics[m.name]
			if !okA || !okB {
				continue
			}
			note := ""
			//cdivet:allow floateq modeled counts repeat exactly for a seed
			if m.modeled && va.Value != vb.Value {
				note = "modeled count changed"
			}
			fmt.Fprintf(w, "  %-28s %-6s %12.6g -> %12.6g  %+7.2f%%  %s\n",
				m.name, m.unit, va.Value, vb.Value, 100*ratio(vb.Value-va.Value, va.Value), note)
		}
	}
	return ok
}
