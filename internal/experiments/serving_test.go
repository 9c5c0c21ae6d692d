package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/serve"
	"repro/internal/sim"
)

// servingOpts shrinks the window so the grid stays cheap in tests.
func servingOpts() Options {
	o := Quick()
	o.ServeWindow = 200 * sim.Millisecond
	return o
}

func TestServingByteIdenticalAcrossWorkers(t *testing.T) {
	run := func(jobs int) string {
		o := servingOpts()
		o.Jobs = jobs
		rows, err := Serving(o)
		if err != nil {
			t.Fatal(err)
		}
		return RenderServing(rows)
	}
	serial := run(1)
	parallel := run(8)
	if serial != parallel {
		t.Fatalf("serving sweep differs between -j 1 and -j 8:\n--- j1 ---\n%s--- j8 ---\n%s", serial, parallel)
	}
}

// TestServingZeroSlackArmIsNodeLocalBaseline runs the zero-slack cell and
// an explicitly injector-free node-local baseline on the same schedule
// and demands identical reports: the regression gate that the sweep's
// baseline arm measures exactly what a non-disaggregated deployment
// would.
func TestServingZeroSlackArmIsNodeLocalBaseline(t *testing.T) {
	const window = 200 * sim.Millisecond
	for _, pol := range servingPolicies {
		got, _, err := servingCell(pol, 0, 1, window, servingSeed(1), nil)
		if err != nil {
			t.Fatal(err)
		}

		tenants := servingTenants(1)
		reqs, err := serve.Generate(tenants, window, servingSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		env := sim.NewEnv()
		dev, err := gpu.NewDevice(env, gpu.A100())
		if err != nil {
			env.Close()
			t.Fatal(err)
		}
		ctx := cuda.NewContext(dev, cuda.Config{}) // no interposer at all
		eng, err := serve.Start(env, serve.NewLocal(ctx), serve.Config{Policy: pol, Tenants: tenants}, reqs)
		if err != nil {
			env.Close()
			t.Fatal(err)
		}
		env.Run()
		if err := eng.Err(); err != nil {
			env.Close()
			t.Fatal(err)
		}
		want := eng.Metrics().Report(window)
		env.Close()

		if got != want {
			t.Errorf("%v: zero-slack arm %+v != node-local baseline %+v", pol, got, want)
		}
	}
}

func TestServingP99MonotoneInSlack(t *testing.T) {
	rows, err := Serving(servingOpts())
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		pol  serve.Policy
		load float64
	}
	last := map[key]sim.Duration{}
	seen := map[key]sim.Duration{}
	// Rows iterate slack in ascending grid order within each (policy,
	// load) group.
	for _, r := range rows {
		k := key{r.Policy, r.Load}
		if prev, ok := last[k]; ok {
			if r.Report.P99 < prev {
				t.Errorf("%v load %g: p99 %v at slack %v below %v at smaller slack",
					r.Policy, r.Load, r.Report.P99, r.Slack, prev)
			}
		}
		last[k] = r.Report.P99
		seen[k] = r.Report.P99
	}
	if len(seen) != len(servingPolicies)*len(servingLoads) {
		t.Fatalf("saw %d (policy, load) groups, want %d", len(seen), len(servingPolicies)*len(servingLoads))
	}
}

func TestServingTraceValidAndStable(t *testing.T) {
	write := func() []byte {
		var buf bytes.Buffer
		if err := WriteServingTrace(servingOpts(), &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := write()
	if !json.Valid(first) {
		t.Fatal("serving trace is not valid JSON")
	}
	var events []map[string]any
	if err := json.Unmarshal(first, &events); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("serving trace is empty")
	}
	// The trace must carry all three layers: host API calls (pid 0),
	// device activity (pid 1) and application spans (pid 2) including
	// request, batch and slack categories.
	pids := map[float64]bool{}
	cats := map[string]bool{}
	for _, ev := range events {
		pids[ev["pid"].(float64)] = true
		cats[ev["cat"].(string)] = true
	}
	for _, pid := range []float64{0, 1, 2} {
		if !pids[pid] {
			t.Errorf("trace has no events on pid %g", pid)
		}
	}
	for _, cat := range []string{"request", "batch", "slack", "kernel"} {
		if !cats[cat] {
			t.Errorf("trace has no %q events", cat)
		}
	}
	second := write()
	if !bytes.Equal(first, second) {
		t.Fatal("serving trace bytes differ across identical runs")
	}
}

// TestServingClaimAtQuickParameters pins the serving footer's claim at
// the quick parameters all.golden records. At the 1 ms slack it fails at
// load 0.5 (continuous 52.0 against fixed 62.0 and nobatch 54.0) and
// holds at load 1 (continuous 86.0 against fixed 76.0 and nobatch 22.0).
func TestServingClaimAtQuickParameters(t *testing.T) {
	rows, err := Serving(Quick())
	if err != nil {
		t.Fatal(err)
	}
	claims := servingClaims(rows)
	want := []struct {
		load  float64
		holds bool
	}{{0.5, false}, {1, true}}
	if len(claims) != len(want) {
		t.Fatalf("%d claims, want %d", len(claims), len(want))
	}
	for i, c := range claims {
		if c.load != want[i].load || c.slack != sim.Millisecond || c.holds != want[i].holds || len(c.rows) != len(servingPolicies) {
			t.Errorf("claim %d: load %g at %v holds %v over %d rows; want load %g at 1ms holds %v over %d",
				i, c.load, c.slack, c.holds, len(c.rows), want[i].load, want[i].holds, len(servingPolicies))
		}
	}
}
