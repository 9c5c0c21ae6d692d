package lammps

import (
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/sim"
)

func TestAtomsFormula(t *testing.T) {
	// Table I: box 20 = 32k, 80 = 2048k, 100 = 4000k, 120 = 6912k.
	cases := map[int]int{20: 32000, 80: 2048000, 100: 4000000, 120: 6912000}
	for box, want := range cases {
		if got := Atoms(box); got != want {
			t.Errorf("Atoms(%d) = %d, want %d", box, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Atoms(0) did not panic")
		}
	}()
	Atoms(0)
}

// TestNeighborsHalfMatchesTheory pins the literal NeighborsHalf to the
// physics it stands for: half of ρ·(4/3)πr_c³ neighbors inside the cutoff
// at the benchmark density.
func TestNeighborsHalfMatchesTheory(t *testing.T) {
	full := Density * 4 / 3 * math.Pi * Cutoff * Cutoff * Cutoff
	want := int(full / 2)
	if NeighborsHalf != want {
		t.Errorf("NeighborsHalf = %d, want %d", NeighborsHalf, want)
	}
}

func TestPerfValidation(t *testing.T) {
	if _, err := RunPerf(PerfConfig{BoxSize: 0}); err == nil {
		t.Error("zero box accepted")
	}
	for _, slack := range []sim.Duration{-1, sim.Duration(math.NaN()), sim.Duration(math.Inf(1))} {
		if _, err := RunPerf(PerfConfig{BoxSize: 20, Slack: slack}); err == nil {
			t.Errorf("slack %v accepted", slack)
		}
	}
	// A device delay the engine cannot schedule is an error from RunPerf,
	// not a panic inside the run.
	spec := gpu.A100()
	spec.CopyLatency = sim.Duration(math.NaN())
	if _, err := RunPerf(PerfConfig{BoxSize: 20, Spec: spec}); err == nil {
		t.Error("NaN CopyLatency accepted")
	}
	// A partly set spec is validated as given, not replaced by the default.
	if _, err := RunPerf(PerfConfig{BoxSize: 20, Spec: gpu.Spec{PeakFLOPS: 1e13}}); err == nil {
		t.Error("PeakFLOPS-only spec accepted")
	}
}

func TestPerfTableIBaselines(t *testing.T) {
	// Paper Table I, 1 process × 1 thread, 5000 steps.
	want := map[int]float64{20: 5.473, 60: 66.523, 80: 160.703, 100: 312.185, 120: 541.452}
	for box, paper := range want {
		r, err := RunPerf(PerfConfig{BoxSize: box, Steps: 40})
		if err != nil {
			t.Fatal(err)
		}
		got := r.FullRuntime.Seconds()
		if math.Abs(got-paper)/paper > 0.15 {
			t.Errorf("box %d full runtime = %.2fs, paper %.2fs (>15%% off)", box, got, paper)
		}
	}
}

func TestPerfBox20DegradesWithRanks(t *testing.T) {
	base, err := RunPerf(PerfConfig{BoxSize: 20, Procs: 1, Steps: 30})
	if err != nil {
		t.Fatal(err)
	}
	var prev sim.Duration
	for _, p := range []int{2, 8, 24} {
		r, err := RunPerf(PerfConfig{BoxSize: 20, Procs: p, Steps: 30})
		if err != nil {
			t.Fatal(err)
		}
		if r.StepTime <= prev {
			t.Errorf("box 20 step time at %d procs (%v) not increasing", p, r.StepTime)
		}
		prev = r.StepTime
	}
	norm := float64(prev) / float64(base.StepTime)
	if norm < 10 {
		t.Errorf("box 20 at 24 procs = %.1f× baseline, want dramatic degradation (paper ~25×)", norm)
	}
}

func TestPerfBox60ModestOptimum(t *testing.T) {
	base, err := RunPerf(PerfConfig{BoxSize: 60, Procs: 1, Steps: 30})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := RunPerf(PerfConfig{BoxSize: 60, Procs: 8, Steps: 30})
	if err != nil {
		t.Fatal(err)
	}
	norm8 := float64(r8.StepTime) / float64(base.StepTime)
	// Paper: 17.2% decrease at 8 processes.
	if norm8 < 0.6 || norm8 > 0.95 {
		t.Errorf("box 60 at 8 procs = %.3f× baseline, paper 0.828", norm8)
	}
	r24, err := RunPerf(PerfConfig{BoxSize: 60, Procs: 24, Steps: 30})
	if err != nil {
		t.Fatal(err)
	}
	if r24.StepTime <= r8.StepTime {
		t.Errorf("box 60 should worsen beyond its optimum: 24p %v <= 8p %v", r24.StepTime, r8.StepTime)
	}
}

func TestPerfBox120DeepScaling(t *testing.T) {
	base, err := RunPerf(PerfConfig{BoxSize: 120, Procs: 1, Steps: 20})
	if err != nil {
		t.Fatal(err)
	}
	r24, err := RunPerf(PerfConfig{BoxSize: 120, Procs: 24, Steps: 20})
	if err != nil {
		t.Fatal(err)
	}
	norm := float64(r24.StepTime) / float64(base.StepTime)
	// Paper: 55.6% decrease at 24 processes.
	if norm < 0.25 || norm > 0.6 {
		t.Errorf("box 120 at 24 procs = %.3f× baseline, paper 0.444", norm)
	}
}

func TestPerfThreadsImprove(t *testing.T) {
	r1, err := RunPerf(PerfConfig{BoxSize: 120, Procs: 8, Threads: 1, Steps: 20})
	if err != nil {
		t.Fatal(err)
	}
	r6, err := RunPerf(PerfConfig{BoxSize: 120, Procs: 8, Threads: 6, Steps: 20})
	if err != nil {
		t.Fatal(err)
	}
	change := float64(r6.StepTime)/float64(r1.StepTime) - 1
	// Paper: 52.3% decrease at 6 threads vs 1 (we measure ≈ 50%).
	if change > -0.3 {
		t.Errorf("6 threads vs 1 = %.1f%% change, paper −52.3%%", change*100)
	}
}

func TestPerfContextSwitchesCounted(t *testing.T) {
	r, err := RunPerf(PerfConfig{BoxSize: 20, Procs: 4, Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.CtxSwitches == 0 {
		t.Error("multi-rank run recorded no context switches")
	}
	r1, err := RunPerf(PerfConfig{BoxSize: 20, Procs: 1, Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r1.CtxSwitches != 0 {
		t.Errorf("single-rank run recorded %d context switches", r1.CtxSwitches)
	}
}

func TestPerfTraceCharacteristics(t *testing.T) {
	// The paper's profiling configuration: 8 procs × 1 thread, box 120.
	r, err := RunPerf(PerfConfig{BoxSize: 120, Procs: 8, Steps: 20, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := r.Trace
	if tr == nil {
		t.Fatal("no trace")
	}
	// Kernels: lj_force every step per rank + neigh_build every 10 steps.
	wantForce := 20 * 8
	wantNeigh := 2 * 8
	byName := tr.KernelDurationsByName()
	if got := len(byName["lj_force"]); got != wantForce {
		t.Errorf("lj_force launches = %d, want %d", got, wantForce)
	}
	if got := len(byName["neigh_build"]); got != wantNeigh {
		t.Errorf("neigh_build launches = %d, want %d", got, wantNeigh)
	}
	// Copies: pos H2D + force D2H per rank-step, cell meta per rebuild.
	wantCopies := 20*8*2 + 2*8
	if got := len(tr.Copies); got != wantCopies {
		t.Errorf("copies = %d, want %d", got, wantCopies)
	}
	// Transfer sizes: box 120 / 8 ranks = 864k atoms → ~9.9 MiB H2D
	// positions and ~19.8 MiB D2H forces (Table III's dominant bins).
	perRank := Atoms(120) / 8
	h2d := float64(perRank * PosBytesPerAtom)
	sizes := tr.MemcpySizes()
	var sawPos, sawForce bool
	for _, s := range sizes {
		if s == h2d {
			sawPos = true
		}
		if s == float64(perRank*ForceBytesPerAtom) {
			sawForce = true
		}
	}
	if !sawPos || !sawForce {
		t.Errorf("expected position and force copy sizes in trace (pos=%v force=%v)", sawPos, sawForce)
	}
	if tr.Streams() != 8 {
		t.Errorf("streams = %d, want 8 (one per rank)", tr.Streams())
	}
}

func TestPerfSlackInjectionCounts(t *testing.T) {
	r, err := RunPerf(PerfConfig{BoxSize: 20, Procs: 2, Steps: 10, Slack: 1 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	// Per rank-step: 2 memcpy + 1 force LaunchSync = 3 crossing calls,
	// plus 2 per rebuild step (meta copy + neigh launch).
	want := int64(2 * (10*3 + 1*2))
	if r.DelayedCalls != want {
		t.Errorf("delayed calls = %d, want %d", r.DelayedCalls, want)
	}
	base, err := RunPerf(PerfConfig{BoxSize: 20, Procs: 2, Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.Runtime <= base.Runtime {
		t.Errorf("slack run %v not slower than baseline %v", r.Runtime, base.Runtime)
	}
}

func TestPerfDeterminism(t *testing.T) {
	run := func() sim.Duration {
		r, err := RunPerf(PerfConfig{BoxSize: 60, Procs: 4, Steps: 10})
		if err != nil {
			t.Fatal(err)
		}
		return r.Runtime
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestPerfGPUUtilizationSane(t *testing.T) {
	r, err := RunPerf(PerfConfig{BoxSize: 120, Procs: 1, Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.GPUUtilization <= 0 || r.GPUUtilization >= 1 {
		t.Errorf("GPU utilization = %v, want in (0,1)", r.GPUUtilization)
	}
}
