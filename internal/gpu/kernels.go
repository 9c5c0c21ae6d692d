package gpu

import (
	"fmt"

	"repro/internal/sim"
)

// Kernel describes one launch's resource demands. Execution time on a
// device is the larger of its compute and memory-traffic terms, floored at
// the device's MinKernelTime, and stretched by the warm-up model if the
// device was idle when the kernel reached the head of its queue.
type Kernel struct {
	// Name labels the kernel in traces (Figure 4 groups by this).
	Name string
	// FLOPs is the arithmetic work of the launch.
	FLOPs float64
	// Efficiency is the fraction of peak FLOPS this kernel achieves
	// (0 < Efficiency <= 1). Hand-rolled kernels sit well below peak.
	Efficiency float64
	// MemBytes is the device-memory traffic the launch generates.
	MemBytes float64
	// FixedTime, when positive, bypasses the analytic model entirely —
	// used to replay measured durations.
	FixedTime sim.Duration
}

// baseDuration returns the kernel's execution time at full boost clock on
// spec, before any warm-up stretching.
func (k Kernel) baseDuration(spec Spec) sim.Duration {
	if k.FixedTime > 0 {
		return k.FixedTime
	}
	eff := k.Efficiency
	if !(eff > 0 && eff <= 1) {
		eff = 1
	}
	compute := sim.Duration(k.FLOPs / (spec.PeakFLOPS * eff))
	mem := sim.Duration(k.MemBytes / spec.MemoryBandwidth)
	d := compute
	if mem > d {
		d = mem
	}
	if d < spec.MinKernelTime {
		d = spec.MinKernelTime
	}
	return d
}

// String renders the kernel for debugging.
func (k Kernel) String() string {
	if k.FixedTime > 0 {
		return fmt.Sprintf("%s{fixed %v}", k.Name, k.FixedTime)
	}
	return fmt.Sprintf("%s{%.3g FLOP @ %.0f%%, %.3g B}", k.Name, k.FLOPs, k.Efficiency*100, k.MemBytes)
}

// sgemmEfficiency models how far a straightforward tiled SGEMM sits from
// peak as a function of matrix dimension: small multiplies cannot fill the
// device, large ones approach ~45 % of peak (a hand-written kernel, not
// cuBLAS — the proxy uses "a simple matrix multiplication kernel").
func sgemmEfficiency(n int) float64 {
	return 0.45 * float64(n) / (float64(n) + 1024)
}

// MatMul returns the kernel for one n×n × n×n single-precision matrix
// multiplication, the proxy application's workload.
func MatMul(n int) Kernel {
	if n <= 0 {
		panic("gpu: MatMul size must be positive")
	}
	fn := float64(n)
	return Kernel{
		Name:       "sgemm",
		FLOPs:      2 * fn * fn * fn,
		Efficiency: sgemmEfficiency(n),
		// Three operand matrices streamed once is the lower bound on
		// traffic; tiling re-reads give a small constant on top.
		MemBytes: 3 * 4 * fn * fn * 1.5,
	}
}

// MatrixBytes returns the size in bytes of one n×n float32 matrix — the
// unit the paper bins data-transfer sizes against (Table III).
func MatrixBytes(n int) int64 { return int64(n) * int64(n) * 4 }

// LJForce returns the kernel for one Lennard-Jones force evaluation over
// atoms sites with an average neighbor count per site — the dominant GPU
// kernel in the LAMMPS LJ benchmark (pair_lj_cut style).
//
// Per pair: distance (sub, mul, fma ≈ 8 flop), cutoff test, r⁻⁶/r⁻¹²
// evaluation and force accumulation ≈ 23 flop; ~31 flop total with the
// newton-off double evaluation folded into neighbors.
func LJForce(atoms int, neighbors float64) Kernel {
	if atoms <= 0 || neighbors < 0 {
		panic("gpu: invalid LJForce parameters")
	}
	fa := float64(atoms)
	return Kernel{
		Name:       "lj_force",
		FLOPs:      fa * neighbors * 31,
		Efficiency: 0.22, // irregular gather/scatter keeps LJ far from peak
		// positions read per neighbor (12 B) + force write-back.
		MemBytes: fa*neighbors*12 + fa*24,
	}
}

// NeighborBuild returns the kernel for rebuilding the neighbor list on the
// GPU (bin + traverse), LAMMPS's second-largest kernel.
func NeighborBuild(atoms int, neighbors float64) Kernel {
	fa := float64(atoms)
	return Kernel{
		Name:       "neigh_build",
		FLOPs:      fa * neighbors * 6,
		Efficiency: 0.12,
		MemBytes:   fa*neighbors*8 + fa*48,
	}
}

// Conv3D returns the kernel for one 3-D convolution layer pass over a
// batch: in channels cin, out channels cout, cubic kernel k, cubic output
// extent out (voxels per edge).
func Conv3D(batch, cin, cout, k, out int) Kernel {
	if batch <= 0 || cin <= 0 || cout <= 0 || k <= 0 || out <= 0 {
		panic("gpu: invalid Conv3D parameters")
	}
	voxels := float64(out) * float64(out) * float64(out)
	flops := 2 * float64(batch) * voxels * float64(cin) * float64(cout) * float64(k*k*k)
	return Kernel{
		Name:       fmt.Sprintf("conv3d_%dx%d", cin, cout),
		FLOPs:      flops,
		Efficiency: 0.35,
		MemBytes:   float64(batch) * voxels * float64(cin+cout) * 4,
	}
}

// Dense returns the kernel for a fully connected layer: batch×in → out.
func Dense(batch, in, out int) Kernel {
	if batch <= 0 || in <= 0 || out <= 0 {
		panic("gpu: invalid Dense parameters")
	}
	return Kernel{
		Name:       fmt.Sprintf("dense_%dx%d", in, out),
		FLOPs:      2 * float64(batch) * float64(in) * float64(out),
		Efficiency: 0.25,
		MemBytes:   float64(in)*float64(out)*4 + float64(batch)*float64(in+out)*4,
	}
}

// Pool3D returns the kernel for a 3-D max-pool pass (memory bound).
func Pool3D(batch, channels, out int) Kernel {
	voxels := float64(out * out * out)
	return Kernel{
		Name:       "maxpool3d",
		FLOPs:      float64(batch) * voxels * float64(channels) * 8,
		Efficiency: 0.10,
		MemBytes:   float64(batch) * voxels * float64(channels) * 4 * 9,
	}
}

// Elementwise returns a small pointwise kernel over n elements (bias add,
// activation, optimizer step...) — CosmoFlow launches dozens of these.
func Elementwise(name string, n int) Kernel {
	return Kernel{
		Name:       name,
		FLOPs:      float64(n) * 2,
		Efficiency: 0.08,
		MemBytes:   float64(n) * 8,
	}
}

// Prefill returns the kernel for processing tokens prompt tokens through a
// transformer of params parameters in one pass — the compute-bound phase of
// autoregressive inference. The dominant cost is the 2·params FLOPs each
// token spends in the weight GEMMs; large-tile GEMMs run near the same
// efficiency band as cuBLAS-grade SGEMM.
func Prefill(tokens int, params float64) Kernel {
	if tokens <= 0 || params <= 0 {
		panic("gpu: invalid Prefill parameters")
	}
	ft := float64(tokens)
	return Kernel{
		Name:       "llm_prefill",
		FLOPs:      2 * params * ft,
		Efficiency: 0.45,
		// Weights stream through once (2 B/param at half precision) plus
		// per-token activation traffic.
		MemBytes: 2*params + ft*4096,
	}
}

// DecodeStep returns the kernel for one autoregressive decode iteration
// over a batch of sequences: every weight is read once per step regardless
// of batch size, so the step is memory-bound at small batches (2 B/param of
// HBM traffic) and the arithmetic term 2·params·batch only catches up at
// large batch — exactly the economics that make batching worthwhile.
func DecodeStep(batch int, params float64) Kernel {
	if batch <= 0 || params <= 0 {
		panic("gpu: invalid DecodeStep parameters")
	}
	fb := float64(batch)
	return Kernel{
		Name:       "llm_decode",
		FLOPs:      2 * params * fb,
		Efficiency: 0.45,
		MemBytes:   2*params + fb*4096,
	}
}
