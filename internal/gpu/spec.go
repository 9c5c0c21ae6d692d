// Package gpu models a data-centre GPU as a discrete-event device: stream
// queues, DMA engines, a memory allocator, kernel cost models, and — the
// piece this study hinges on — a work-starvation model that charges a
// warm-up penalty to kernels arriving after the device has sat idle.
//
// The paper measures GPU behaviour on an NVIDIA A100 SXM4 40 GiB; the
// default Spec is calibrated to that part. Absolute times are analytic
// estimates, not measurements, but the mechanisms that produce the paper's
// trends (latency hiding through queued work, starvation when the host
// cannot feed the device) are modelled directly.
package gpu

import (
	"math"

	"repro/internal/sim"
)

// Spec describes the performance envelope of a simulated GPU.
type Spec struct {
	// Name identifies the part, e.g. "A100-SXM4-40GB".
	Name string

	// MemoryBytes is the device memory capacity.
	MemoryBytes int64
	// MemoryBandwidth is the device (HBM) bandwidth in bytes/second.
	MemoryBandwidth float64

	// PeakFLOPS is the peak single-precision throughput at boost clock.
	PeakFLOPS float64

	// H2DBandwidth and D2HBandwidth are host↔device copy bandwidths in
	// bytes/second (PCIe Gen4 x16 class by default).
	H2DBandwidth float64
	D2HBandwidth float64
	// CopyLatency is the fixed per-copy setup latency (descriptor ring,
	// doorbell, small-transfer floor).
	CopyLatency sim.Duration

	// LaunchOverhead is the host-visible cost of pushing one kernel launch
	// through the driver. When the stream already holds queued work the
	// device hides it; after an idle period it appears on the critical path.
	LaunchOverhead sim.Duration
	// MinKernelTime is the floor on any kernel's execution time (grid
	// scheduling, instruction fetch).
	MinKernelTime sim.Duration

	// WarmupRate and WarmupSaturation parameterize the starvation model:
	// a kernel that begins after the compute engine has been idle for g
	// seconds executes WarmupRate*min(g, WarmupSaturation) slower than the
	// same kernel launched back-to-back. Physically this aggregates boost-
	// clock decay, cache cooling, and lost pipelining — the effects the
	// paper's Discussion attributes the slack penalty to.
	WarmupRate       float64
	WarmupSaturation sim.Duration

	// DMAEngines is the number of concurrent copy engines (A100 exposes
	// one per direction to a host).
	DMAEngines int

	// ContextSwitch is the cost charged when consecutive kernels arrive
	// from different streams (distinct CUDA contexts in the workloads:
	// each MPI rank drives the device through its own context). Without
	// MPS, time-slicing an oversubscribed device between processes costs
	// hundreds of microseconds per switch; this is the dominant reason
	// small LAMMPS boxes degrade under many ranks (Figure 2, box 20).
	// Zero (the A100 preset) disables the charge.
	ContextSwitch sim.Duration
}

// A100 returns the default specification, calibrated to the A100 SXM4
// 40 GiB parts in DRAC Narval nodes used by the paper.
//
// PeakFLOPS reflects non-TensorCore FP32; kernel cost models apply a
// size-dependent efficiency on top, so small matrix multiplies land in the
// hundreds of microseconds and 32768² multiplies take seconds, matching the
// proxy's observed regime (N clamps at both ends of [5, 1000] across the
// paper's matrix sweep).
func A100() Spec {
	return Spec{
		Name:             "A100-SXM4-40GB",
		MemoryBytes:      40 * (1 << 30),
		MemoryBandwidth:  1.555e12,
		PeakFLOPS:        19.5e12,
		H2DBandwidth:     24e9,
		D2HBandwidth:     24e9,
		CopyLatency:      8 * sim.Microsecond,
		LaunchOverhead:   4 * sim.Microsecond,
		MinKernelTime:    3 * sim.Microsecond,
		WarmupRate:       0.27,
		WarmupSaturation: 300 * sim.Millisecond,
		DMAEngines:       2,
	}
}

// Validate reports whether the spec is internally consistent. Every
// float field must be finite: the device schedules its delays on the
// event engine, which panics on a NaN one.
func (s Spec) Validate() error {
	for _, v := range [...]float64{
		s.MemoryBandwidth, s.PeakFLOPS, s.H2DBandwidth, s.D2HBandwidth,
		float64(s.CopyLatency), float64(s.LaunchOverhead), float64(s.MinKernelTime),
		s.WarmupRate, float64(s.WarmupSaturation), float64(s.ContextSwitch),
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return specErr("every rate, bandwidth and latency must be finite")
		}
	}
	switch {
	case s.MemoryBytes <= 0:
		return specErr("MemoryBytes must be positive")
	case s.MemoryBandwidth <= 0:
		return specErr("MemoryBandwidth must be positive")
	case s.PeakFLOPS <= 0:
		return specErr("PeakFLOPS must be positive")
	case s.H2DBandwidth <= 0 || s.D2HBandwidth <= 0:
		return specErr("copy bandwidths must be positive")
	case s.CopyLatency < 0 || s.LaunchOverhead < 0 || s.MinKernelTime < 0:
		return specErr("latencies must be non-negative")
	case s.WarmupRate < 0 || s.WarmupSaturation < 0:
		return specErr("warm-up parameters must be non-negative")
	case s.ContextSwitch < 0:
		return specErr("ContextSwitch must be non-negative")
	case s.DMAEngines <= 0:
		return specErr("DMAEngines must be positive")
	}
	return nil
}

type specErr string

func (e specErr) Error() string { return "gpu: invalid spec: " + string(e) }
