package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// churnOpts shrinks the window so the grid stays cheap in tests; the
// churn process still fits several outages per server inside it.
func churnOpts() Options {
	o := Quick()
	o.ServeWindow = 300 * sim.Millisecond
	return o
}

func TestChurnByteIdenticalAcrossWorkers(t *testing.T) {
	run := func(jobs int) []ChurnRow {
		o := churnOpts()
		o.Jobs = jobs
		rows, err := Churn(o)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("churn sweep differs between -j 1 and -j 8:\n--- j1 ---\n%s--- j8 ---\n%s",
			RenderChurn(serial), RenderChurn(parallel))
	}
}

// TestChurnZeroChurnReproducesServing demands the sweep's fault-free
// corner equal the serving experiment's continuous-batching rows
// exactly: same cell function, same seeds, same reports.
func TestChurnZeroChurnReproducesServing(t *testing.T) {
	o := churnOpts()
	churnRows, err := Churn(o)
	if err != nil {
		t.Fatal(err)
	}
	servingRows, err := Serving(o)
	if err != nil {
		t.Fatal(err)
	}
	matched := 0
	for _, cr := range churnRows {
		if cr.Arm != "serving" {
			continue
		}
		found := false
		for _, sr := range servingRows {
			if sr.Policy == serve.Continuous && sr.Slack == cr.Slack && sr.Load == cr.Load {
				found = true
				if sr.Report != cr.Report {
					t.Errorf("zero-churn cell (slack %v, load %g) diverges from serving sweep:\nchurn:   %+v\nserving: %+v",
						cr.Slack, cr.Load, cr.Report, sr.Report)
				}
			}
		}
		if !found {
			t.Errorf("zero-churn cell (slack %v, load %g) has no serving-sweep counterpart", cr.Slack, cr.Load)
		}
		matched++
	}
	if want := len(churnSlacks) * len(servingLoads); matched != want {
		t.Fatalf("found %d zero-churn rows, want %d", matched, want)
	}
}

// TestChurnManagedDominatesBaseline is the headline regression gate: in
// every faulty cell the managed arm's resilience-aware goodput strictly
// exceeds the detect-nothing baseline's, the control plane actually
// detected and migrated (quickly — well under the call-timeout path the
// baseline is stuck with), and recovered servers were readmitted.
func TestChurnManagedDominatesBaseline(t *testing.T) {
	rows, err := Churn(churnOpts())
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		slack     sim.Duration
		load      float64
		intensity float64
	}
	baselines := map[cell]ChurnRow{}
	managed := map[cell]ChurnRow{}
	for _, r := range rows {
		c := cell{r.Slack, r.Load, r.Intensity}
		switch r.Arm {
		case "baseline":
			baselines[c] = r
		case "managed":
			managed[c] = r
		}
	}
	want := len(churnSlacks) * len(servingLoads) * (len(churnIntensities) - 1)
	if len(baselines) != want || len(managed) != want {
		t.Fatalf("got %d baseline / %d managed cells, want %d each", len(baselines), len(managed), want)
	}
	for c, b := range baselines {
		m, ok := managed[c]
		if !ok {
			t.Fatalf("cell %+v has a baseline but no managed arm", c)
		}
		if m.Report.Goodput <= b.Report.Goodput {
			t.Errorf("cell %+v: managed goodput %.1f does not dominate baseline %.1f",
				c, m.Report.Goodput, b.Report.Goodput)
		}
		if m.Migrations == 0 || m.Readmissions == 0 {
			t.Errorf("cell %+v: control plane idle (migrations %d, readmissions %d)",
				c, m.Migrations, m.Readmissions)
		}
		if m.Detection <= 0 || m.Detection >= churnPolicy().CallTimeout {
			t.Errorf("cell %+v: detection latency %v outside (0, call timeout)", c, m.Detection)
		}
		if b.Migrations != 0 || b.Detection != 0 {
			t.Errorf("cell %+v: baseline arm ran a control plane (migrations %d, detection %v)",
				c, b.Migrations, b.Detection)
		}
	}
}

// TestChurnControlPlaneTransparentWithoutFaults runs the same fault-free
// pool cell with and without the control plane (heartbeats, evaluator,
// armed admission gate) and demands identical reports: monitoring a
// healthy pool must not perturb the workload at all.
func TestChurnControlPlaneTransparentWithoutFaults(t *testing.T) {
	const window = 300 * sim.Millisecond
	off, _, err := churnCell(100*sim.Microsecond, 1, 0, window, 1, 0, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With a recorder the cell returns, after the request spans, one
	// "health" span per episode a server spent out of Healthy: none means
	// no suspicion was raised.
	on, spans, err := churnCell(100*sim.Microsecond, 1, 0, window, 1, 0, true, trace.NewRecorder("churn"))
	if err != nil {
		t.Fatal(err)
	}
	if on.Report != off.Report {
		t.Errorf("control plane perturbs a fault-free run:\non:  %+v\noff: %+v", on.Report, off.Report)
	}
	episodes := 0
	for _, sp := range spans {
		if sp.Cat == "health" {
			episodes++
		}
	}
	if episodes != 0 || on.Migrations != 0 || on.Readmissions != 0 {
		t.Errorf("fault-free control plane acted: %d health episodes, migrations %d, readmissions %d",
			episodes, on.Migrations, on.Readmissions)
	}
	if on.Exhausted || off.Exhausted {
		t.Error("fault-free pool cell exhausted")
	}
}

func TestChurnFaultLogAndTrace(t *testing.T) {
	logText := ChurnFaultLog(churnOpts())
	for _, wantSub := range []string{"churn intensity 0.5", "churn intensity 1", "crash outages"} {
		if !strings.Contains(logText, wantSub) {
			t.Errorf("fault log missing %q:\n%s", wantSub, logText)
		}
	}
	var buf bytes.Buffer
	if err := WriteChurnTrace(churnOpts(), &buf); err != nil {
		t.Fatalf("WriteChurnTrace: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("churn trace is not valid JSON")
	}
	for _, wantSub := range []string{`"health"`, `"draining"`} {
		if !strings.Contains(buf.String(), wantSub) {
			t.Errorf("churn trace missing %s spans", wantSub)
		}
	}
}
