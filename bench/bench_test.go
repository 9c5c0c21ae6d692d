package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// TestWorkloadsMatchGoldens runs one iteration of every workload at seed 1,
// with the counting hooks attached, against its golden.
func TestWorkloadsMatchGoldens(t *testing.T) {
	for _, w := range workloads {
		it, err := w.run(1, &hooks{})
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
			continue
		}
		path := filepath.Join("testdata", w.name+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(it.out), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if it.out != string(want) {
			t.Errorf("%s: result differs from %s; if the change is intended, re-cut with go test -update", w.name, path)
		}
	}
}

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %v, bench runs %s", i, names, w.name)
		}
	}
	if len(s.EndToEnd) != len(e2eMetrics) || len(s.EndToEnd) > 16 {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, bench %d (at most 16)", len(s.EndToEnd), len(e2eMetrics))
	}
	for i, m := range e2eMetrics {
		if i < len(s.EndToEnd) {
			e := s.EndToEnd[i]
			got := metric{name: e.Name, unit: e.Unit, better: e.Better, bound: e.Bound}
			if got != m {
				t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, bench %+v", i, got, m)
			}
		}
	}
	if len(s.PerLayer) != len(layerMetrics) || len(s.PerLayer) > 128 {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, bench %d (at most 128)", len(s.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if i < len(s.PerLayer) {
			e := s.PerLayer[i]
			if e.Name != m.name || e.Unit != m.unit || e.Better != m.better {
				t.Errorf("per-layer metric %d: BENCHMARK.json %+v, bench %+v", i, e, m)
			}
		}
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, m := range append(slices.Clone(e2eMetrics), layerMetrics...) {
		if !valid.MatchString(m.name) || seen[m.name] {
			t.Errorf("metric name %q is malformed or repeated", m.name)
		}
		seen[m.name] = true
	}
}

// TestEmittedMetricsMatchBenchmarkJSON runs the single-workload mode, plain
// and traced, and checks that it prints exactly BENCHMARK.json's metrics.
func TestEmittedMetricsMatchBenchmarkJSON(t *testing.T) {
	s := readSpec(t)
	var e2e, layer []string
	for _, m := range s.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range s.PerLayer {
		layer = append(layer, m.Name)
	}
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"--workload", "serve-local", "--iters", "1", "--trace", "0"}, e2e},
		{[]string{"--workload", "serve-local", "--iters", "2", "--trace", "1"}, layer},
	} {
		var out, errOut bytes.Buffer
		if code := run(tc.args, &out, &errOut); code != 0 {
			t.Fatalf("%v: exit %d: %s", tc.args, code, errOut.String())
		}
		var line runLine
		if err := json.Unmarshal(out.Bytes(), &line); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 2 {
			t.Errorf("%v: correct=%v attempted=%d failed=%d", tc.args, line.Correct, line.Attempted, line.Failed)
		}
		if len(line.Metrics) != len(tc.want) {
			t.Errorf("%v: printed %d metrics, BENCHMARK.json lists %d", tc.args, len(line.Metrics), len(tc.want))
		}
		for _, name := range tc.want {
			if _, ok := line.Metrics[name]; !ok {
				t.Errorf("%v: %s is in BENCHMARK.json but was not printed", tc.args, name)
			}
		}
	}
}

// A `pprof -traces` excerpt: a goroutine switch with no repository frame,
// a background mark worker, a newproc under the engine's spawn, an engine
// leaf, and a device model stack through the counting hook.
const tracesExcerpt = `File: bench
Type: cpu
Duration: 1s, Total samples = 100ms (10.00%)
-----------+-------------------------------------------------------
      40ms   runtime.unlock2
             runtime.chanparkcommit
             runtime.park_m
             runtime.mcall
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      20ms   runtime.newproc1
             runtime.newproc.func1
             runtime.systemstack
             runtime.newproc
             repro/internal/sim.(*Shard).SpawnAt
             repro/internal/serve.Start
             main.serveLocalCell
-----------+-------------------------------------------------------
      20ms   repro/internal/sim.(*shardQueue).peek
             repro/internal/sim.(*Env).next (inline)
             repro/internal/sim.(*Env).dispatch
-----------+-------------------------------------------------------
    5000us   main.(*hooks).After
             repro/internal/cuda.(*Context).call
             repro/internal/cuda.(*Context).Launch
-----------+-------------------------------------------------------
       5ms   repro/internal/gpu.(*Device).run
             repro/internal/sim.(*Env).spawnAt.func1
-----------+-------------------------------------------------------
`

func TestFold(t *testing.T) {
	shares, total, err := fold(tracesExcerpt)
	if err != nil {
		t.Fatal(err)
	}
	if total < 0.0999 || total > 0.1001 {
		t.Errorf("total %gs, want 0.1s", total)
	}
	want := map[string]float64{
		"gosched.cpu_pct":     40,
		"gc.cpu_pct":          10,
		"sim.runtime_cpu_pct": 20,
		"sim.own_cpu_pct":     20,
		"bench.cpu_pct":       5,
		"gpu.cpu_pct":         5,
	}
	sum := 0.0
	for _, b := range cpuBuckets {
		sum += shares[b]
		if d := shares[b] - want[b]; d < -1e-9 || d > 1e-9 {
			t.Errorf("%s = %g, want %g", b, shares[b], want[b])
		}
	}
	if sum < 99.999 || sum > 100.001 {
		t.Errorf("shares sum to %g", sum)
	}
	if _, _, err := fold("File: bench\n"); err == nil {
		t.Error("fold of a profile without samples succeeded")
	}
}

func TestCompare(t *testing.T) {
	res := func(runMs, spread float64) result {
		ms := map[string]metricValue{}
		for _, m := range e2eMetrics {
			ms[m.name] = metricValue{Value: 1, Unit: m.unit}
		}
		ms["run_ms_p10"] = metricValue{Value: runMs, Unit: "ms", Spread: spread}
		return result{Workloads: map[string]workloadResult{"paper": {Metrics: ms}}}
	}
	for _, tc := range []struct {
		a, b    result
		ok      bool
		verdict string
	}{
		{res(100, 0.01), res(105, 0.01), true, "in bound"},
		{res(100, 0.01), res(150, 0.01), false, "OUT OF BOUND"},
		{res(100, 0.01), res(150, 0.50), true, "unresolved"},
		{res(100, 0.01), res(80, 0.01), true, "in bound"},
	} {
		var out bytes.Buffer
		ok := compare(tc.a, tc.b, &out)
		line := strings.Split(out.String(), "\n")[1]
		if ok != tc.ok || !strings.HasSuffix(line, tc.verdict) {
			t.Errorf("compare -> %v, %q; want %v, %q", ok, line, tc.ok, tc.verdict)
		}
	}
}
