package lammps

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// --- Numeric mode ---

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

func TestFccLatticeCount(t *testing.T) {
	s := NewSystem(3, 1)
	if s.N != 108 || len(s.Pos) != 108 {
		t.Fatalf("N = %d, want 108 (4·3³)", s.N)
	}
	// Density check: N / L³ == ρ*.
	rho := float64(s.N) / (s.L * s.L * s.L)
	if math.Abs(rho-Density) > 1e-9 {
		t.Errorf("density = %v, want %v", rho, Density)
	}
}

func TestInitialTemperatureAndMomentum(t *testing.T) {
	s := NewSystem(4, 42)
	if got := s.Temperature(); math.Abs(got-InitialTemp) > 1e-9 {
		t.Errorf("T0 = %v, want %v", got, InitialTemp)
	}
	m := s.Momentum()
	if math.Abs(m.X)+math.Abs(m.Y)+math.Abs(m.Z) > 1e-9 {
		t.Errorf("net momentum = %+v, want 0", m)
	}
}

func TestMomentumConserved(t *testing.T) {
	s := NewSystem(4, 7)
	s.Run(50)
	m := s.Momentum()
	if math.Abs(m.X)+math.Abs(m.Y)+math.Abs(m.Z) > 1e-7 {
		t.Errorf("momentum after 50 steps = %+v", m)
	}
}

func TestEnergyConserved(t *testing.T) {
	s := NewSystem(5, 3)
	e0 := s.TotalEnergy()
	s.Run(200)
	e1 := s.TotalEnergy()
	drift := math.Abs(e1-e0) / math.Abs(e0)
	if drift > 0.005 {
		t.Errorf("energy drift over 200 steps = %.4f%% (E %v → %v)", drift*100, e0, e1)
	}
	if s.StepsRun != 200 {
		t.Errorf("StepsRun = %d", s.StepsRun)
	}
}

func TestCellListMatchesDirectSum(t *testing.T) {
	// Forces from the cell-list path must equal the O(N²) reference.
	s := NewSystem(5, 11) // nCells ≥ 3 → cell path
	if s.nCells < 3 {
		t.Skip("box too small to exercise cell path")
	}
	peCells := s.ComputeForces()
	fCells := append([]Vec3(nil), s.Force...)
	for i := range s.Force {
		s.Force[i] = Vec3{}
	}
	peDirect := s.forcesDirect()
	if math.Abs(peCells-peDirect) > 1e-9*math.Abs(peDirect) {
		t.Fatalf("PE cells %v != direct %v", peCells, peDirect)
	}
	for i := range fCells {
		d := fCells[i].Sub(s.Force[i])
		if math.Abs(d.X)+math.Abs(d.Y)+math.Abs(d.Z) > 1e-9 {
			t.Fatalf("force %d differs: %+v vs %+v", i, fCells[i], s.Force[i])
		}
	}
}

func TestForcesSumToZero(t *testing.T) {
	s := NewSystem(5, 5)
	s.ComputeForces()
	var sum Vec3
	for _, f := range s.Force {
		sum = sum.Add(f)
	}
	if math.Abs(sum.X)+math.Abs(sum.Y)+math.Abs(sum.Z) > 1e-8 {
		t.Errorf("net force = %+v, want 0 (Newton's third law)", sum)
	}
}

func TestAverageNeighborsNearTheory(t *testing.T) {
	// ρ·(4/3)πr³ ≈ 55.3 at the benchmark density and 2.5σ cutoff.
	s := NewSystem(4, 9)
	got := s.AverageNeighbors()
	want := Density * 4 / 3 * math.Pi * Cutoff * Cutoff * Cutoff
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("average neighbors = %v, want ≈ %v", got, want)
	}
}

func TestNumericDeterminism(t *testing.T) {
	a := NewSystem(4, 123)
	b := NewSystem(4, 123)
	a.Run(20)
	b.Run(20)
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] {
			t.Fatalf("positions diverged at atom %d", i)
		}
	}
	if a.String() == "" {
		t.Error("empty String()")
	}
}

func TestVec3Ops(t *testing.T) {
	v := Vec3{1, 2, 3}
	if got := v.Add(Vec3{1, 1, 1}); got != (Vec3{2, 3, 4}) {
		t.Errorf("Add = %+v", got)
	}
	if got := v.Sub(Vec3{1, 1, 1}); got != (Vec3{0, 1, 2}) {
		t.Errorf("Sub = %+v", got)
	}
	if got := v.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %+v", got)
	}
	if got := v.Dot(v); got != 14 {
		t.Errorf("Dot = %v", got)
	}
}

// --- Performance mode ---

func TestPerfValidation(t *testing.T) {
	if _, err := RunPerf(PerfConfig{BoxSize: 0}); err == nil {
		t.Error("zero box accepted")
	}
	if _, err := RunPerf(PerfConfig{BoxSize: 20, Slack: -1}); err == nil {
		t.Error("negative slack accepted")
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

// --- Hybrid mode ---

func TestHybridPhysicsMatchesNumeric(t *testing.T) {
	// The hybrid run must produce exactly the numeric engine's
	// trajectory: offload plumbing cannot touch the physics.
	hybrid, err := RunHybrid(HybridConfig{BoxSize: 4, Steps: 20, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ref := NewSystem(4, 42)
	ref.Run(20)
	for i := range ref.Pos {
		if ref.Pos[i] != hybrid.System.Pos[i] {
			t.Fatalf("trajectory diverged at atom %d: %+v vs %+v", i, ref.Pos[i], hybrid.System.Pos[i])
		}
	}
}

func TestHybridSlackChangesClockNotTrajectory(t *testing.T) {
	base, err := RunHybrid(HybridConfig{BoxSize: 4, Steps: 15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	slacked, err := RunHybrid(HybridConfig{BoxSize: 4, Steps: 15, Seed: 7, Slack: 1 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if slacked.Runtime <= base.Runtime {
		t.Errorf("slack did not slow the clock: %v vs %v", slacked.Runtime, base.Runtime)
	}
	if slacked.Energy != base.Energy {
		t.Errorf("slack changed the physics: energy %v vs %v", slacked.Energy, base.Energy)
	}
	for i := range base.System.Pos {
		if base.System.Pos[i] != slacked.System.Pos[i] {
			t.Fatalf("slack changed the trajectory at atom %d", i)
		}
	}
	// 3 link-crossing calls per step (2 memcpy + launch).
	if want := int64(15 * 3); slacked.DelayedCalls != want {
		t.Errorf("delayed calls = %d, want %d", slacked.DelayedCalls, want)
	}
}

func TestHybridEnergyConserved(t *testing.T) {
	r, err := RunHybrid(HybridConfig{BoxSize: 5, Steps: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ref := NewSystem(5, 3)
	e0 := ref.TotalEnergy()
	drift := math.Abs(r.Energy-e0) / math.Abs(e0)
	if drift > 0.005 {
		t.Errorf("hybrid energy drift = %.4f%%", drift*100)
	}
}

func TestHybridValidation(t *testing.T) {
	if _, err := RunHybrid(HybridConfig{BoxSize: 0, Steps: 1}); err == nil {
		t.Error("zero box accepted")
	}
	if _, err := RunHybrid(HybridConfig{BoxSize: 3, Steps: 0}); err == nil {
		t.Error("zero steps accepted")
	}
	for _, slack := range []sim.Duration{-1, sim.Duration(math.NaN()), sim.Duration(math.Inf(1))} {
		if _, err := RunHybrid(HybridConfig{BoxSize: 3, Steps: 1, Slack: slack}); err == nil {
			t.Errorf("slack %v accepted", slack)
		}
	}
}
