// Package cdi is the public API of the row-scale Composable Disaggregated
// Infrastructure (CDI) viability toolkit — a Go reproduction of
// "Examining the Viability of Row-Scale Disaggregation for Production
// Applications" (Shorts & Grant, SC 2024).
//
// The toolkit answers one question: how much does "slack" — the extra
// CPU-to-GPU latency introduced when GPUs move out of the node and across
// a network — cost a given application, and therefore how far away can the
// GPUs live? It does so entirely in software, on a deterministic
// discrete-event simulation of the full stack (GPU device, CUDA-like
// runtime, MPI, network fabric), exactly mirroring the paper's method:
//
//	study, _ := cdi.NewStudy(cdi.StudyConfig{Iters: 30})   // proxy sweep → response surface
//	app, _, _ := study.Profile(cdi.LAMMPSWorkload{})        // trace → characteristics
//	verdict, _ := study.Assess(app)                         // Eq. 2-3 → penalty at 100µs
//	fmt.Println(verdict.Viable, verdict.ReachKm)            // true, 20 km
//
// Everything deeper — the proxy, the workload mini-apps, the composer, the
// fabric presets — is re-exported here from the internal packages.
package cdi

import (
	"repro/internal/compose"
	"repro/internal/core"
	"repro/internal/cosmoflow"
	"repro/internal/fabric"
	"repro/internal/gpu"
	"repro/internal/lammps"
	"repro/internal/model"
	"repro/internal/proxy"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/slack"
	"repro/internal/trace"
)

// Time and duration types used throughout the API (virtual seconds).
type (
	// Time is an absolute virtual timestamp.
	Time = sim.Time
	// Duration is a span of virtual time.
	Duration = sim.Duration
)

// Duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// The methodology (internal/core).
type (
	// Study is a calibrated instance of the paper's methodology: a proxy
	// response surface ready to profile applications against.
	Study = core.Study
	// StudyConfig controls the calibrating proxy sweep.
	StudyConfig = core.StudyConfig
	// Workload is anything the methodology can profile.
	Workload = core.Workload
	// LAMMPSWorkload profiles the mini-LAMMPS (default: paper's 8 ranks ×
	// 1 thread at box 120).
	LAMMPSWorkload = core.LAMMPSWorkload
	// CosmoFlowWorkload profiles the mini-CosmoFlow (default: batch 4).
	CosmoFlowWorkload = core.CosmoFlowWorkload
	// ProxyWorkload profiles the proxy itself (self-validation).
	ProxyWorkload = core.ProxyWorkload
	// Verdict is a viability assessment at one slack value.
	Verdict = core.Verdict
)

// NewStudy runs the calibrating proxy sweep and returns a Study.
func NewStudy(cfg StudyConfig) (*Study, error) { return core.NewStudy(cfg) }

// NewStudyFromSweep builds a Study from caller-held sweep points without
// re-running the proxy (nil slacks selects the paper's Table IV grid).
func NewStudyFromSweep(pts []SweepPoint, slacks []Duration) (*Study, error) {
	return core.NewStudyFromSweep(pts, slacks)
}

// The prediction model (internal/model).
type (
	// AppProfile is an application's extracted CDI characteristics.
	AppProfile = model.AppProfile
	// Prediction is one Table IV entry: lower/upper penalty at a slack.
	Prediction = model.Prediction
	// Surface is the proxy slack-response surface.
	Surface = model.Surface
	// Binned maps application samples onto proxy matrix-size equivalents.
	Binned = model.Binned
)

// NoSlackTime applies the paper's Equation 1: remove the directly injected
// delay from a measured runtime.
func NoSlackTime(measured Duration, calls int64, perCall Duration) Duration {
	return slack.NoSlackTime(measured, calls, perCall)
}

// PaperSlacks returns the slack values of Table IV (1 µs .. 10 ms).
func PaperSlacks() []Duration { return model.PaperSlacks() }

// The slack proxy (internal/proxy).
type (
	// ProxyConfig describes one slack-proxy run (§III-C).
	ProxyConfig = proxy.Config
	// ProxyResult is the run's measurements, Equation-1-corrected.
	ProxyResult = proxy.Result
	// SweepPoint is one (size, threads, slack) proxy measurement.
	SweepPoint = proxy.SweepPoint
)

// RunProxy executes one slack-proxy configuration.
func RunProxy(cfg ProxyConfig) (ProxyResult, error) { return proxy.Run(cfg) }

// ProxySweep runs the full proxy grid (Figure 3's data).
func ProxySweep(sizes, threads []int, slacks []Duration, iters int) ([]SweepPoint, error) {
	return proxy.Sweep(sizes, threads, slacks, iters)
}

// ProxyPenalty is the Equation-1-corrected normalized penalty of a run
// against its zero-slack baseline.
func ProxyPenalty(baseline, run ProxyResult) float64 { return proxy.Penalty(baseline, run) }

// BuildSurface assembles a response surface from sweep points without
// re-running the proxy.
func BuildSurface(pts []SweepPoint) (*Surface, error) { return model.BuildSurface(pts) }

// The workloads.
type (
	// LAMMPSConfig describes a mini-LAMMPS performance run.
	LAMMPSConfig = lammps.PerfConfig
	// LAMMPSResult is its measurements.
	LAMMPSResult = lammps.PerfResult
	// CosmoFlowConfig describes a mini-CosmoFlow training run.
	CosmoFlowConfig = cosmoflow.PerfConfig
	// CosmoFlowResult is its measurements.
	CosmoFlowResult = cosmoflow.PerfResult
)

// RunLAMMPS executes a mini-LAMMPS performance run.
func RunLAMMPS(cfg LAMMPSConfig) (LAMMPSResult, error) { return lammps.RunPerf(cfg) }

// RunCosmoFlow executes a mini-CosmoFlow training run.
func RunCosmoFlow(cfg CosmoFlowConfig) (CosmoFlowResult, error) { return cosmoflow.RunPerf(cfg) }

// LAMMPSAtoms returns the atom count for a box size (box 20 = 32 000).
func LAMMPSAtoms(boxSize int) int { return lammps.Atoms(boxSize) }

// The fabric (internal/fabric).
type (
	// Path is a host↔chassis network path.
	Path = fabric.Path
	// Scale is a CDI deployment scale.
	Scale = fabric.Scale
)

// Deployment scales.
const (
	NodeLocal    = fabric.NodeLocal
	RackScale    = fabric.RackScale
	RowScale     = fabric.RowScale
	ClusterScale = fabric.ClusterScale
)

// FabricPreset returns a representative path for a scale and fibre
// distance in km.
func FabricPreset(s Scale, km float64) Path { return fabric.Preset(s, km) }

// SlackForDistance returns the one-way propagation slack of km of fibre.
func SlackForDistance(km float64) Duration { return fabric.PropagationDelay(km) }

// DistanceForSlack returns the fibre reach of a slack budget — the
// paper's 100 µs ⇒ 20 km conversion.
func DistanceForSlack(d Duration) float64 { return fabric.DistanceForDelay(d) }

// The composer (internal/compose).
type (
	// ComposeRequest is one job's resource ask.
	ComposeRequest = compose.Request
	// ComposeSystem is a schedulable machine (traditional or CDI).
	ComposeSystem = compose.System
	// ComposeComparison is a side-by-side architecture comparison.
	ComposeComparison = compose.Comparison
)

// NewTraditionalSystem builds a node-based machine.
func NewTraditionalSystem(nodes, coresPerNode, gpusPerNode int) (*ComposeSystem, error) {
	return compose.NewTraditional(nodes, coresPerNode, gpusPerNode)
}

// NewCDISystem builds a composable machine.
func NewCDISystem(cpuNodes, coresPerNode, chassis, gpusPerChassis int, path Path) (*ComposeSystem, error) {
	return compose.NewCDI(cpuNodes, coresPerNode, chassis, gpusPerChassis, path)
}

// CompareArchitectures schedules the same jobs on both architectures.
func CompareArchitectures(jobs []ComposeRequest, nodes, coresPerNode, gpusPerNode, gpusPerChassis int, scale Scale) (ComposeComparison, error) {
	return compose.CompareArchitectures(jobs, nodes, coresPerNode, gpusPerNode, gpusPerChassis, scale)
}

// PaperScenario reproduces the Discussion §V scheduling example.
func PaperScenario() (ComposeComparison, error) { return compose.PaperScenario() }

// Batch scheduling (internal/sched).
type (
	// BatchJob is one batch-queue submission.
	BatchJob = sched.Job
	// BatchResult summarizes a schedule.
	BatchResult = sched.Result
	// BatchComparison contrasts the same queue on both architectures.
	BatchComparison = sched.Comparison
	// BatchPolicy selects the queue discipline.
	BatchPolicy = sched.Policy
)

// Queue disciplines.
const (
	FCFS     = sched.FCFS
	Backfill = sched.Backfill
)

// RunBatch schedules jobs on a system.
func RunBatch(system *ComposeSystem, jobs []BatchJob, policy BatchPolicy) (BatchResult, error) {
	return sched.Run(system, jobs, policy)
}

// CompareBatch schedules the same queue on equal-hardware traditional and
// CDI machines.
func CompareBatch(jobs []BatchJob, nodes, coresPerNode, gpusPerNode int, policy BatchPolicy) (BatchComparison, error) {
	return sched.Compare(jobs, nodes, coresPerNode, gpusPerNode, policy)
}

// WorkloadMix synthesizes a deterministic mixed job stream (CPU-dominant,
// GPU-dominant, balanced). A non-positive job count is an error.
func WorkloadMix(n, coresPerNode int, seed int64) ([]BatchJob, error) {
	return sched.WorkloadMix(n, coresPerNode, seed)
}

// Tracing (internal/trace).
type (
	// Trace is an NSys-style recording.
	Trace = trace.Trace
)

// ProfileFromTrace extracts an AppProfile from any recording.
func ProfileFromTrace(tr *Trace, parallelism int) AppProfile {
	return model.ProfileFromTrace(tr, parallelism)
}

// GPU spec (internal/gpu).
type (
	// GPUSpec is a simulated device's performance envelope.
	GPUSpec = gpu.Spec
)

// A100 returns the default device spec the study calibrates against.
func A100() GPUSpec { return gpu.A100() }
