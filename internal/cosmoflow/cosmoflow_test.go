package cosmoflow

import (
	"math"
	"testing"

	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// fastPerf is a small config for tests.
func fastPerf() PerfConfig {
	return PerfConfig{
		GPUs: 1, BatchSize: 4, Epochs: 1,
		TrainSamples: 32, ValSamples: 16,
		InputSide: 32, Cores: 8,
	}
}

func TestPerfValidation(t *testing.T) {
	bad := fastPerf()
	bad.InputSide = 24 // not a power of two
	if _, err := RunPerf(bad); err == nil {
		t.Error("invalid input side accepted")
	}
	bad = fastPerf()
	bad.Slack = -1
	if _, err := RunPerf(bad); err == nil {
		t.Error("negative slack accepted")
	}
	bad = fastPerf()
	bad.TrainSamples = 1
	bad.GPUs = 2
	if _, err := RunPerf(bad); err == nil {
		t.Error("insufficient samples accepted")
	}
	// A partly set spec is validated as given, not replaced by the default.
	bad = fastPerf()
	bad.Spec = gpu.Spec{PeakFLOPS: 1e13}
	if _, err := RunPerf(bad); err == nil {
		t.Error("PeakFLOPS-only spec accepted")
	}
}

// A NaN, infinite or negative interconnect term is rejected before the
// run; NaN alpha used to reach a rank's collective as a NaN sleep and
// panic there.
func TestPerfRejectsBadInterconnect(t *testing.T) {
	inf := math.Inf(1)
	for _, ic := range []mpi.CostModel{
		{Alpha: sim.Duration(math.NaN()), Beta: 40e9},
		{Alpha: sim.Duration(inf), Beta: 40e9},
		{Alpha: sim.Duration(-inf), Beta: 40e9},
		{Alpha: -sim.Microsecond, Beta: 40e9},
		{Alpha: sim.Microsecond, Beta: math.NaN()},
		{Alpha: sim.Microsecond, Beta: inf},
		{Alpha: sim.Microsecond, Beta: -inf},
		{Alpha: sim.Microsecond, Beta: -1},
	} {
		cfg := fastPerf()
		cfg.GPUs = 4
		cfg.Interconnect = ic
		if _, err := RunPerf(cfg); err == nil {
			t.Errorf("interconnect %+v accepted", ic)
		}
	}
}

func TestPerfRunsAndReports(t *testing.T) {
	r, err := RunPerf(fastPerf())
	if err != nil {
		t.Fatal(err)
	}
	if r.TrainSteps != 8 {
		t.Errorf("TrainSteps = %d, want 8", r.TrainSteps)
	}
	if r.Runtime <= 0 || r.StepTime <= 0 {
		t.Errorf("runtime %v steptime %v", r.Runtime, r.StepTime)
	}
	if r.ParamBytes <= 0 {
		t.Error("no parameter bytes")
	}
	if r.GPUUtilization <= 0 || r.GPUUtilization > 1 {
		t.Errorf("utilization = %v", r.GPUUtilization)
	}
}

func TestPerfCPUAffinityMatchesPaper(t *testing.T) {
	// §IV-A: CosmoFlow needs 2 cores; more processes/threads give nothing.
	cfg := fastPerf()
	times := map[int]sim.Duration{}
	for _, cores := range []int{1, 2, 4, 8} {
		cfg.Cores = cores
		r, err := RunPerf(cfg)
		if err != nil {
			t.Fatal(err)
		}
		times[cores] = r.Runtime
	}
	if times[1] <= times[2] {
		t.Errorf("1 core (%v) not slower than 2 (%v)", times[1], times[2])
	}
	if times[4] != times[2] || times[8] != times[2] {
		t.Errorf("extra cores changed runtime: 2=%v 4=%v 8=%v", times[2], times[4], times[8])
	}
}

func TestPerfTraceHasManyKernelKinds(t *testing.T) {
	cfg := fastPerf()
	cfg.Record = true
	r, err := RunPerf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Trace == nil {
		t.Fatal("no trace")
	}
	kinds := r.Trace.KernelDurationsByName()
	// CosmoFlow "executes dozens of different" kernels; our mini version
	// must at least show a rich mix (conv fwd/dgrad/wgrad per block,
	// elementwise, pool, dense).
	if len(kinds) < 10 {
		t.Errorf("distinct kernel names = %d, want ≥ 10", len(kinds))
	}
	top := r.Trace.TopKernels(5)
	var topTime, total sim.Duration
	for _, g := range top {
		topTime += g.Total
	}
	total = r.Trace.KernelTime()
	frac := float64(topTime) / float64(total)
	// Paper: top five kernels ≈ 49.9% of CosmoFlow's kernel time. Our mix
	// is narrower, but the top five must not be the whole story.
	if frac <= 0.3 || frac > 0.98 {
		t.Errorf("top-5 kernel fraction = %.3f", frac)
	}
	// Input copies land in the large-transfer bins; loss readbacks are
	// tiny — the bimodal Figure 5 shape.
	sizes := r.Trace.MemcpySizes()
	var small, large int
	for _, s := range sizes {
		if s <= 64<<10 {
			small++
		}
		if s >= 1<<20 { // batch input volumes (2 MiB at the test's 32³ input)
			large++
		}
	}
	if small == 0 || large == 0 {
		t.Errorf("memcpy size mix: %d small, %d large", small, large)
	}
}

func TestPerfSlackDelaysCalls(t *testing.T) {
	cfg := fastPerf()
	cfg.Slack = 10 * sim.Microsecond
	r, err := RunPerf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.DelayedCalls == 0 {
		t.Error("no delayed calls under slack")
	}
	base, err := RunPerf(fastPerf())
	if err != nil {
		t.Fatal(err)
	}
	if r.Runtime <= base.Runtime {
		t.Errorf("slack run %v not slower than baseline %v", r.Runtime, base.Runtime)
	}
}

func TestPerfDataParallelScaling(t *testing.T) {
	// More GPUs split the same dataset: runtime must drop, though not
	// perfectly (allreduce + loader overheads).
	cfg := fastPerf()
	cfg.TrainSamples = 64
	one, err := RunPerf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.GPUs = 4
	four, err := RunPerf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(one.Runtime) / float64(four.Runtime)
	if speedup < 1.5 || speedup > 4.5 {
		t.Errorf("4-GPU speedup = %.2f, want meaningful but sublinear-ish", speedup)
	}
}

func TestPerfDeterminism(t *testing.T) {
	run := func() sim.Duration {
		r, err := RunPerf(fastPerf())
		if err != nil {
			t.Fatal(err)
		}
		return r.Runtime
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestParamBytesScale(t *testing.T) {
	// The 128³ model must be megabytes of parameters (CosmoFlow ≈ a few M
	// params), and grow with depth.
	small := paramBytes(32, 4)
	big := paramBytes(128, 4)
	if big <= small {
		t.Errorf("paramBytes not growing: %d vs %d", big, small)
	}
	if big < 1<<20 || big > 1<<30 {
		t.Errorf("paramBytes(128) = %d, want megabytes", big)
	}
}
