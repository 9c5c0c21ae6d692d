// Package compose models the resource-composition side of CDI: a system
// is either a set of traditional heterogeneous nodes (CPUs and GPUs bolted
// together, allocated at node granularity) or a composable one (CPU nodes
// plus GPU chassis, matched to each job's exact ratio). It implements the
// allocation arithmetic behind the paper's introduction and Discussion
// (§V): trapped resources, utilization, idle-GPU power, and the
// 40-GPU/20-CPU-node scheduling example.
package compose

import (
	"errors"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// ErrInsufficient reports that a request cannot be satisfied.
var ErrInsufficient = errors.New("compose: insufficient resources")

// Architecture selects the system style.
type Architecture int

const (
	// Traditional is the node-based architecture: CPUs and GPUs are
	// allocated together in fixed per-node bundles.
	Traditional Architecture = iota
	// CDI is the composable architecture: CPU nodes and disaggregated GPU
	// chassis allocated independently.
	CDI
)

// String names the architecture.
func (a Architecture) String() string {
	switch a {
	case Traditional:
		return "traditional"
	case CDI:
		return "cdi"
	default:
		return fmt.Sprintf("Architecture(%d)", int(a))
	}
}

// Request is one job's resource ask.
type Request struct {
	Name  string
	Cores int
	GPUs  int
	// FlexCores marks the core count as a preference rather than a
	// requirement: if the full ask does not fit, the job accepts whatever
	// cores come with the nodes its GPU demand implies — how GPU jobs are
	// actually submitted on node-granular machines.
	FlexCores bool
}

// Validate returns an error unless the request is well formed: no
// negative counts, and at least one core or GPU.
func (r Request) Validate() error {
	if r.Cores < 0 || r.GPUs < 0 || (r.Cores == 0 && r.GPUs == 0) {
		return fmt.Errorf("compose: invalid request %+v", r)
	}
	return nil
}

// Allocation is a granted request.
type Allocation struct {
	Request
	// NodesUsed is the number of CPU (or heterogeneous) nodes claimed.
	NodesUsed int
	// GPUsGranted counts granted GPUs; under Traditional it includes the
	// whole nodes' complement, of which TrappedGPUs are unused by the job.
	GPUsGranted int
	// TrappedGPUs are GPUs locked into the allocation that the job will
	// not use (zero under CDI).
	TrappedGPUs int
	// TrappedCores are cores locked but unused.
	TrappedCores int
	// Slack is the CPU-to-GPU slack this composition experiences: zero on
	// a traditional node, the fabric latency under CDI.
	Slack sim.Duration
}

// System is a schedulable machine.
type System struct {
	arch Architecture

	// Traditional shape.
	nodes        int
	coresPerNode int
	gpusPerNode  int

	// CDI shape.
	chassis        int
	gpusPerChassis int
	path           fabric.Path

	freeNodes int
	freeGPUs  int // CDI chassis pool

	allocs map[string]*Allocation
}

// NewTraditional builds a node-based system: nodes × (coresPerNode CPUs +
// gpusPerNode GPUs).
func NewTraditional(nodes, coresPerNode, gpusPerNode int) (*System, error) {
	if nodes <= 0 || coresPerNode <= 0 || gpusPerNode < 0 {
		return nil, fmt.Errorf("compose: invalid traditional shape %d×(%d cores, %d gpus)",
			nodes, coresPerNode, gpusPerNode)
	}
	return &System{
		arch:         Traditional,
		nodes:        nodes,
		coresPerNode: coresPerNode,
		gpusPerNode:  gpusPerNode,
		freeNodes:    nodes,
		allocs:       map[string]*Allocation{},
	}, nil
}

// NewCDI builds a composable system: cpuNodes CPU-only nodes plus chassis
// × gpusPerChassis disaggregated GPUs reached over path (use
// fabric.Preset(fabric.RowScale, km) for the paper's subject).
func NewCDI(cpuNodes, coresPerNode, chassis, gpusPerChassis int, path fabric.Path) (*System, error) {
	if cpuNodes <= 0 || coresPerNode <= 0 || chassis < 0 || gpusPerChassis < 0 {
		return nil, fmt.Errorf("compose: invalid CDI shape %d nodes, %d chassis", cpuNodes, chassis)
	}
	if err := path.Validate(); err != nil {
		return nil, err
	}
	return &System{
		arch:           CDI,
		nodes:          cpuNodes,
		coresPerNode:   coresPerNode,
		chassis:        chassis,
		gpusPerChassis: gpusPerChassis,
		path:           path,
		freeNodes:      cpuNodes,
		freeGPUs:       chassis * gpusPerChassis,
		allocs:         map[string]*Allocation{},
	}, nil
}

// TotalCores returns the system's core count.
func (s *System) TotalCores() int { return s.nodes * s.coresPerNode }

// TotalGPUs returns the system's GPU count.
func (s *System) TotalGPUs() int {
	if s.arch == Traditional {
		return s.nodes * s.gpusPerNode
	}
	return s.chassis * s.gpusPerChassis
}

// FreeGPUs returns the unallocated GPU count.
func (s *System) FreeGPUs() int {
	if s.arch == Traditional {
		return s.freeNodes * s.gpusPerNode
	}
	return s.freeGPUs
}

// FreeCores returns the unallocated core count.
func (s *System) FreeCores() int { return s.freeNodes * s.coresPerNode }

// ceilDiv returns ⌈a/b⌉.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Alloc grants a request or returns ErrInsufficient. Allocation names must
// be unique among live allocations.
func (s *System) Alloc(req Request) (*Allocation, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if _, dup := s.allocs[req.Name]; dup {
		return nil, fmt.Errorf("compose: allocation %q already live", req.Name)
	}
	a := &Allocation{Request: req}
	switch s.arch {
	case Traditional:
		// Node granularity: enough nodes to cover both the core and the
		// GPU ask; everything on those nodes is locked in.
		var byGPU int
		if s.gpusPerNode > 0 {
			byGPU = ceilDiv(req.GPUs, s.gpusPerNode)
		} else if req.GPUs > 0 {
			return nil, fmt.Errorf("%w: no GPUs in this system", ErrInsufficient)
		}
		need := ceilDiv(req.Cores, s.coresPerNode)
		if byGPU > need {
			need = byGPU
		}
		if need > s.freeNodes && req.FlexCores && byGPU <= s.freeNodes {
			// Best-effort cores: settle for the GPU-implied node count.
			need = byGPU
		}
		if need > s.freeNodes {
			return nil, fmt.Errorf("%w: need %d nodes, free %d", ErrInsufficient, need, s.freeNodes)
		}
		s.freeNodes -= need
		a.NodesUsed = need
		a.GPUsGranted = need * s.gpusPerNode
		a.TrappedGPUs = a.GPUsGranted - req.GPUs
		usedCores := req.Cores
		if usedCores > need*s.coresPerNode {
			usedCores = need * s.coresPerNode
		}
		a.TrappedCores = need*s.coresPerNode - usedCores
		a.Slack = 0
	case CDI:
		need := ceilDiv(req.Cores, s.coresPerNode)
		if need > s.freeNodes {
			return nil, fmt.Errorf("%w: need %d CPU nodes, free %d", ErrInsufficient, need, s.freeNodes)
		}
		if req.GPUs > s.freeGPUs {
			return nil, fmt.Errorf("%w: need %d GPUs, free %d", ErrInsufficient, req.GPUs, s.freeGPUs)
		}
		s.freeNodes -= need
		s.freeGPUs -= req.GPUs
		a.NodesUsed = need
		a.GPUsGranted = req.GPUs
		a.TrappedCores = need*s.coresPerNode - req.Cores
		a.TrappedGPUs = 0
		if req.GPUs > 0 {
			a.Slack = fabric.SlackForPath(s.path)
		}
	}
	s.allocs[req.Name] = a
	return a, nil
}

// Release returns an allocation's resources.
func (s *System) Release(name string) error {
	a, ok := s.allocs[name]
	if !ok {
		return fmt.Errorf("compose: no live allocation %q", name)
	}
	delete(s.allocs, name)
	s.freeNodes += a.NodesUsed
	if s.arch == CDI {
		s.freeGPUs += a.GPUsGranted
	}
	return nil
}

// Live returns the number of live allocations.
func (s *System) Live() int { return len(s.allocs) }

// Trapped sums trapped cores and GPUs across live allocations — the
// resources the paper calls "trapped" idle devices that cannot be
// scheduled for other jobs or powered down.
func (s *System) Trapped() (cores, gpus int) {
	for _, a := range s.allocs {
		cores += a.TrappedCores
		gpus += a.TrappedGPUs
	}
	return cores, gpus
}

// PowerModel holds the wattage constants for IdleGPUWatts accounting.
type PowerModel struct {
	GPUIdle float64 // W per powered-but-unused GPU
	GPUBusy float64 // W per busy GPU
}

// DefaultPower returns A100-class wattages.
func DefaultPower() PowerModel { return PowerModel{GPUIdle: 55, GPUBusy: 400} }

// StrandedDraw returns the idle wattage burned by stranded capacity: GPUs
// that are powered and free but unreachable for the workload that wants
// them (fragmented pool state, not the paper's per-allocation trapping).
// The count may be a time average, hence float64; negative counts clamp
// to zero.
func (pm PowerModel) StrandedDraw(gpus float64) float64 {
	if gpus < 0 {
		gpus = 0
	}
	return gpus * pm.GPUIdle
}

// GPUPowerDraw returns the current GPU power draw in watts. Traditional
// systems pay idle power on trapped and free GPUs; CDI powers them off.
func (s *System) GPUPowerDraw(pm PowerModel) float64 {
	used := 0
	for _, a := range s.allocs {
		used += a.GPUs
	}
	busy := float64(used) * pm.GPUBusy
	if s.arch == Traditional {
		idle := float64(s.TotalGPUs()-used) * pm.GPUIdle
		return busy + idle
	}
	return busy
}
