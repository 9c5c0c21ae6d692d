package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// tiny keeps experiment tests fast while preserving structure.
func tiny() Options {
	return Options{LAMMPSSteps: 10, ProxyIters: 10, CosmoEpochs: 1, CosmoSamples: 16}
}

// tinyStudy calibrates the proxy surface from a Figure 3 sweep at tiny
// parameters.
func tinyStudy(t *testing.T) *core.Study {
	t.Helper()
	pts, err := Figure3(tiny(), nil)
	if err != nil {
		t.Fatal(err)
	}
	study, err := Calibrate(pts)
	if err != nil {
		t.Fatal(err)
	}
	return study
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	p := Paper()
	if o.LAMMPSSteps != p.LAMMPSSteps || o.CosmoEpochs != p.CosmoEpochs {
		t.Errorf("defaults = %+v", o)
	}
	q := Quick()
	if q.LAMMPSSteps >= p.LAMMPSSteps {
		t.Error("Quick not quicker than Paper")
	}
}

func TestTable1StructureAndShape(t *testing.T) {
	rows, err := Table1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Measured <= rows[i-1].Measured {
			t.Errorf("runtimes not increasing with box size: %+v", rows)
		}
	}
	out := RenderTable1(rows)
	for _, want := range []string{"Table I", "box", "541.452"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	o := tiny()
	series, err := Figure2(o)
	if err != nil {
		t.Fatal(err)
	}
	byBox := map[int]Figure2Series{}
	for _, s := range series {
		byBox[s.BoxSize] = s
	}
	// Box 20 degrades at 24 ranks; box 120 improves.
	last := len(byBox[20].Normalized) - 1
	if byBox[20].Normalized[last] < 2 {
		t.Errorf("box 20 at 24 procs = %v, want degradation", byBox[20].Normalized[last])
	}
	if byBox[120].Normalized[last] > 0.7 {
		t.Errorf("box 120 at 24 procs = %v, want improvement", byBox[120].Normalized[last])
	}
	if !strings.Contains(RenderFigure2(series), "Figure 2") {
		t.Error("render missing title")
	}
}

func TestThreadScalingShape(t *testing.T) {
	rows, err := ThreadScaling(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// First four rows: box 120 at 8 procs, threads 1..6 — improving.
	if rows[3].VsOneThread >= rows[0].VsOneThread {
		t.Errorf("6 threads (%v) not better than 1 (%v)", rows[3].VsOneThread, rows[0].VsOneThread)
	}
	if !strings.Contains(RenderThreadScaling(rows), "box") {
		t.Error("render empty")
	}
}

func TestCosmoFlowCPUShape(t *testing.T) {
	rows, err := CosmoFlowCPU(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Runtime <= rows[1].Runtime {
		t.Errorf("1 core (%v) not slower than 2 (%v)", rows[0].Runtime, rows[1].Runtime)
	}
	if rows[2].Runtime != rows[1].Runtime || rows[3].Runtime != rows[1].Runtime {
		t.Errorf("extra cores changed runtime: %+v", rows)
	}
	if RenderCosmoFlowCPU(rows) == "" {
		t.Error("render empty")
	}
}

func TestTable2Structure(t *testing.T) {
	rows, err := Table2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	wantMiB := []float64{1, 16, 256, 4096}
	for i, r := range rows {
		if r.MatrixMiB != wantMiB[i] {
			t.Errorf("row %d MiB = %v", i, r.MatrixMiB)
		}
		if r.KernelTime <= 0 || r.LoopTime <= 0 {
			t.Errorf("row %d has zero timings: %+v", i, r)
		}
	}
	if !strings.Contains(RenderTable2(rows), "Table II") {
		t.Error("render missing title")
	}
}

func TestFigure3ShapeAndRender(t *testing.T) {
	pts, err := Figure3(tiny(), []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	// At 10ms slack, the 1-thread 512 penalty exceeds the 8192 one.
	var p512, p8192 float64
	for _, pt := range pts {
		if pt.Threads == 1 && pt.Slack == 10*sim.Millisecond {
			switch pt.MatrixSize {
			case 512:
				p512 = pt.Penalty
			case 8192:
				p8192 = pt.Penalty
			}
		}
	}
	if p512 <= p8192 {
		t.Errorf("512 penalty %v <= 8192 penalty %v", p512, p8192)
	}
	out := RenderFigure3(pts)
	if !strings.Contains(out, "1 thread(s)") || !strings.Contains(out, "8 thread(s)") {
		t.Errorf("render missing thread blocks:\n%s", out)
	}
}

func TestTracesAndDownstreamTables(t *testing.T) {
	tr, err := CollectTraces(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if tr.LAMMPS == nil || tr.CosmoFlow == nil {
		t.Fatal("missing traces")
	}
	f4 := RenderFigure4(tr)
	if !strings.Contains(f4, "lammps") || !strings.Contains(f4, "cosmoflow") {
		t.Errorf("figure 4 missing apps:\n%s", f4)
	}
	if !strings.Contains(RenderFigure5(tr), "MiB") {
		t.Error("figure 5 missing sizes")
	}
	blocks, surface, err := Table4(tiny(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	rows := Table3(tr, surface)
	if len(rows) != 2 {
		t.Fatalf("table3 rows = %d", len(rows))
	}
	for _, r := range rows {
		total := 0
		for _, c := range r.Counts {
			total += c
		}
		if total != r.Total {
			t.Errorf("%s bin counts %d != total %d", r.App, total, r.Total)
		}
	}
	if !strings.Contains(RenderTable3(rows, surface), "Table III") {
		t.Error("table 3 render missing title")
	}
	out := RenderTable4(blocks)
	if !strings.Contains(out, "headline check") {
		t.Errorf("table 4 render missing headline:\n%s", out)
	}
	// The paper's headline: both apps viable at 100µs.
	for _, blk := range blocks {
		for _, p := range blk.Predictions {
			if p.Slack == 100*sim.Microsecond && p.Upper >= 0.01 {
				t.Errorf("%s upper at 100µs = %v, want < 1%%", blk.App, p.Upper)
			}
		}
	}
}

func TestValidateBoundsBracketMeasurement(t *testing.T) {
	v, err := Validate(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if v.Lower > v.Upper {
		t.Errorf("bounds inverted: %+v", v)
	}
	// The proxy predicting itself: lower should track the measurement.
	if diff := v.Lower - v.Measured; diff > 0.05 || diff < -0.05 {
		t.Errorf("lower %v vs measured %v", v.Lower, v.Measured)
	}
	if RenderValidation(v) == "" {
		t.Error("render empty")
	}
}

func TestComposeExperiment(t *testing.T) {
	c, err := Compose()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderCompose(c), "Discussion") {
		t.Error("render missing title")
	}
}

// --- Extensions ---

func TestAppSlackValidation(t *testing.T) {
	tr, err := CollectTraces(tiny())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := AppSlackValidation(tiny(), tinyStudy(t), tr, []sim.Duration{100 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // lammps + cosmoflow
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Measured < 0 {
			t.Errorf("%s: negative measured penalty %v", r.App, r.Measured)
		}
		// At 100µs the model says ~0 penalty; the in-situ measurement
		// should agree within a couple of percent of runtime.
		if r.Measured > 0.05 {
			t.Errorf("%s: measured penalty at 100µs = %v, want small", r.App, r.Measured)
		}
	}
	if RenderAppValidation(rows) == "" {
		t.Error("render empty")
	}
}

func TestCongestionExperiment(t *testing.T) {
	pts, err := Congestion(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].SlackInflation > 1.01 {
		t.Errorf("single-host inflation = %v", pts[0].SlackInflation)
	}
	if pts[len(pts)-1].SlackInflation <= pts[0].SlackInflation {
		t.Error("no inflation growth under load")
	}
	if RenderCongestion(pts) == "" {
		t.Error("render empty")
	}
}

func TestRemotingExperiment(t *testing.T) {
	results, err := RemotingComparison(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[1].RemotedStddev <= results[0].RemotedStddev {
		t.Error("noise did not raise variance")
	}
	if RenderRemoting(results) == "" {
		t.Error("render empty")
	}
}

func TestWeakScalingShape(t *testing.T) {
	rows, err := WeakScaling(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Atoms per rank constant across the sweep.
	for _, r := range rows[1:] {
		if r.AtomsPerRank != rows[0].AtomsPerRank {
			t.Errorf("atoms/rank drifted: %+v", rows)
		}
	}
	if rows[0].Efficiency != 1 {
		t.Errorf("base efficiency = %v", rows[0].Efficiency)
	}
	if RenderWeakScaling(rows) == "" {
		t.Error("render empty")
	}
}

func TestReachShape(t *testing.T) {
	tr, err := CollectTraces(tiny())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Reach(tiny(), tinyStudy(t), tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 { // 2 apps × 7 distances
		t.Fatalf("rows = %d", len(rows))
	}
	// Penalty upper bound non-decreasing with distance per app.
	for i := 1; i < 7; i++ {
		if rows[i].Upper < rows[i-1].Upper-1e-12 {
			t.Errorf("penalty not monotone in distance: %+v", rows[:7])
		}
	}
	// 20 km must be within the 1% budget (the headline).
	for _, r := range rows {
		if r.Km == 20 && !r.Within1 {
			t.Errorf("%s not viable at 20km: %+v", r.App, r)
		}
	}
	if RenderReach(rows) == "" {
		t.Error("render empty")
	}
}

func TestThroughputExperiment(t *testing.T) {
	rows, err := Throughput(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Arch != "traditional" || rows[1].Arch != "cdi" {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[1].Makespan >= rows[0].Makespan {
		t.Errorf("CDI makespan %v not below traditional %v", rows[1].Makespan, rows[0].Makespan)
	}
	if RenderThroughput(rows) == "" {
		t.Error("render empty")
	}
}

func TestChassisCouplingOrdering(t *testing.T) {
	rows, err := ChassisCoupling(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Tighter coupling must never be slower: nvlink ≤ intra ≤ inter.
	if rows[0].Runtime > rows[1].Runtime || rows[1].Runtime > rows[2].Runtime {
		t.Errorf("coupling ordering violated: %+v", rows)
	}
	if RenderChassisCoupling(rows) == "" {
		t.Error("render empty")
	}
}

func TestPreloadComparison(t *testing.T) {
	rows, err := PreloadComparison(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	full, shim := rows[0], rows[1]
	// The shim wraps only 3 of the 5 crossing calls per iteration.
	if shim.DelayedCalls*5 != full.DelayedCalls*3 {
		t.Errorf("coverage mismatch: full %d vs shim %d (want 5:3)", full.DelayedCalls, shim.DelayedCalls)
	}
	// §IV-D: "the results generally agreed" — same starvation trend, both
	// positive, same order of magnitude.
	if full.Penalty <= 0 || shim.Penalty <= 0 {
		t.Errorf("penalties = %v / %v, want both positive", full.Penalty, shim.Penalty)
	}
	ratio := shim.Penalty / full.Penalty
	if ratio < 0.3 || ratio > 1.5 {
		t.Errorf("shim/full penalty ratio = %v, want general agreement", ratio)
	}
	if RenderPreload(rows) == "" {
		t.Error("render empty")
	}
}

func TestDeploymentScales(t *testing.T) {
	rows, err := DeploymentScales(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Overhead != 0 {
		t.Errorf("node-local overhead = %v", rows[0].Overhead)
	}
	// Overheads grow with scale but stay tiny up to row scale (~µs slack).
	for i := 1; i < len(rows); i++ {
		if rows[i].Runtime < rows[i-1].Runtime {
			t.Errorf("runtime not monotone in scale: %+v", rows)
		}
	}
	if rows[2].Overhead > 0.01 {
		t.Errorf("row-scale overhead = %v, want < 1%% (the paper's viability claim)", rows[2].Overhead)
	}
	if RenderDeploymentScales(rows) == "" {
		t.Error("render empty")
	}
}
