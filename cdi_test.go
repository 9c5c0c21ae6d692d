package cdi

// Integration tests exercising the public API end to end — the same flows
// the README and examples advertise.
import (
	"bytes"
	"math"
	"testing"
)

func TestPublicQuickstartFlow(t *testing.T) {
	study, err := NewStudy(StudyConfig{
		Sizes:   []int{1 << 9, 1 << 11},
		Threads: []int{1, 8},
		Iters:   10,
	})
	if err != nil {
		t.Fatal(err)
	}
	app, tr, err := study.Profile(LAMMPSWorkload{
		Config: LAMMPSConfig{BoxSize: 60, Procs: 8, Steps: 15},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Runtime() <= 0 {
		t.Fatal("empty trace")
	}
	verdict, err := study.Assess(app)
	if err != nil {
		t.Fatal(err)
	}
	if verdict.ReachKm != 20 {
		t.Errorf("reach = %v km", verdict.ReachKm)
	}
	if !verdict.Viable {
		t.Errorf("LAMMPS not viable at 100µs: %+v", verdict.Prediction)
	}
}

func TestPublicProxyFlow(t *testing.T) {
	base, err := RunProxy(ProxyConfig{MatrixSize: 1 << 11, Iters: 10})
	if err != nil {
		t.Fatal(err)
	}
	run, err := RunProxy(ProxyConfig{MatrixSize: 1 << 11, Iters: 10, Slack: 10 * Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if p := ProxyPenalty(base, run); p <= 0 {
		t.Errorf("penalty at 10ms = %v, want positive", p)
	}
	// Equation 1 through the public surface.
	if got := NoSlackTime(10*Second, 100, 10*Millisecond); got != 9*Second {
		t.Errorf("NoSlackTime = %v", got)
	}
}

func TestPublicWorkloadRuns(t *testing.T) {
	lr, err := RunLAMMPS(LAMMPSConfig{BoxSize: 20, Procs: 2, Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if lr.Atoms != LAMMPSAtoms(20) || lr.Atoms != 32000 {
		t.Errorf("atoms = %d", lr.Atoms)
	}
	cr, err := RunCosmoFlow(CosmoFlowConfig{
		Epochs: 1, TrainSamples: 16, ValSamples: 8, InputSide: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cr.TrainSteps != 4 {
		t.Errorf("train steps = %d", cr.TrainSteps)
	}
}

func TestPublicFabricConversions(t *testing.T) {
	if got := DistanceForSlack(100 * Microsecond); got != 20 {
		t.Errorf("DistanceForSlack(100µs) = %v km", got)
	}
	if got := SlackForDistance(20); math.Abs(float64(got-100*Microsecond)) > 1e-15 {
		t.Errorf("SlackForDistance(20km) = %v", got)
	}
	row := FabricPreset(RowScale, 0)
	if row.Latency() <= 0 {
		t.Error("row-scale preset has no latency")
	}
	if NodeLocal.String() != "node-local" || ClusterScale.String() != "cluster-scale" {
		t.Error("scale names wrong")
	}
}

// TestPublicBadInputs: bad inputs to the facade return errors or clamp to
// a finite value; none panics or yields NaN.
func TestPublicBadInputs(t *testing.T) {
	nan := math.NaN()
	if got := SlackForDistance(nan); got != 0 {
		t.Errorf("SlackForDistance(NaN) = %v, want 0", got)
	}
	if got := DistanceForSlack(Duration(nan)); got != 0 {
		t.Errorf("DistanceForSlack(NaN) = %v, want 0", got)
	}
	if got := FabricPreset(RowScale, nan).Latency(); math.IsNaN(float64(got)) {
		t.Errorf("FabricPreset(RowScale, NaN).Latency() = %v", got)
	}
	if _, err := WorkloadMix(0, 24, 1); err == nil {
		t.Error("WorkloadMix(0) accepted")
	}
	jobs, err := WorkloadMix(4, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompareBatch(jobs, 2, 8, 4, BatchPolicy(9)); err == nil {
		t.Error("CompareBatch accepted an unknown policy")
	}
	// Non-finite durations must fail validation: run through the model
	// they give NaN or Inf times, or, for the iteration spacing, a
	// silently finite one.
	for _, d := range []Duration{Duration(nan), Duration(math.Inf(1))} {
		if r, err := RunLAMMPS(LAMMPSConfig{BoxSize: 20, Procs: 1, Steps: 5, Slack: d}); err == nil {
			t.Errorf("RunLAMMPS(Slack: %v) accepted, runtime %v", d, r.Runtime)
		}
		if r, err := RunCosmoFlow(CosmoFlowConfig{Slack: d}); err == nil {
			t.Errorf("RunCosmoFlow(Slack: %v) accepted, runtime %v", d, r.Runtime)
		}
		for _, cfg := range []ProxyConfig{
			{MatrixSize: 1 << 11, Iters: 10, Slack: d},
			{MatrixSize: 1 << 11, Iters: 10, Threads: 2, ThreadOffset: d},
			{MatrixSize: 1 << 11, Iters: 10, IterSpacing: d},
		} {
			if r, err := RunProxy(cfg); err == nil {
				t.Errorf("RunProxy(Slack: %v, ThreadOffset: %v, IterSpacing: %v) accepted, loop time %v",
					cfg.Slack, cfg.ThreadOffset, cfg.IterSpacing, r.LoopTime)
			}
		}
	}
}

func TestPublicComposeFlow(t *testing.T) {
	cmp, err := PaperScenario()
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.CDI) != 2 || !cmp.CDI[1].Granted {
		t.Fatalf("scenario = %+v", cmp)
	}
	trad, err := NewTraditionalSystem(2, 24, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := trad.Alloc(ComposeRequest{Name: "j", Cores: 48, GPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.TrappedGPUs != 3 {
		t.Errorf("trapped = %d", a.TrappedGPUs)
	}
	row, err := NewCDISystem(2, 24, 1, 4, FabricPreset(RowScale, 0))
	if err != nil {
		t.Fatal(err)
	}
	ar, err := row.Alloc(ComposeRequest{Name: "j", Cores: 48, GPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ar.TrappedGPUs != 0 || ar.Slack <= 0 {
		t.Errorf("CDI alloc = %+v", ar)
	}
}

func TestPublicTraceProfile(t *testing.T) {
	r, err := RunLAMMPS(LAMMPSConfig{BoxSize: 20, Procs: 2, Steps: 10, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	app := ProfileFromTrace(r.Trace, 2)
	if app.Parallelism != 2 || len(app.KernelDurations) == 0 {
		t.Errorf("profile = %+v", app)
	}
}

func TestPublicA100Spec(t *testing.T) {
	spec := A100()
	if spec.MemoryBytes != 40*(1<<30) {
		t.Errorf("A100 memory = %d", spec.MemoryBytes)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicBatchFlow(t *testing.T) {
	jobs, err := WorkloadMix(20, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := CompareBatch(jobs, 8, 24, 2, Backfill)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.CDI.Makespan <= 0 || cmp.Traditional.Makespan <= 0 {
		t.Fatalf("degenerate makespans: %+v", cmp)
	}
	sys, err := NewTraditionalSystem(4, 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBatch(sys, jobs[:5], FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 5 {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
}

func TestPublicSweepPersistence(t *testing.T) {
	pts, err := ProxySweep([]int{512, 2048}, []int{1}, []Duration{1 * Microsecond, 1 * Millisecond}, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSweep(&buf, pts); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSweep(&buf)
	if err != nil {
		t.Fatal(err)
	}
	study, err := NewStudyFromSweep(loaded, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The rebuilt surface answers exactly like one built from the
	// original points.
	direct, err := BuildSurface(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, slack := range []Duration{1 * Microsecond, 1 * Millisecond} {
		a, err := study.Surface.Penalty(512, 1, slack)
		if err != nil {
			t.Fatal(err)
		}
		b, err := direct.Penalty(512, 1, slack)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("rebuilt surface diverges at %v: %v vs %v", slack, a, b)
		}
	}
}
