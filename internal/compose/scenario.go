package compose

import (
	"fmt"
	"strings"

	"repro/internal/fabric"
)

// JobOutcome reports how one request fared on one architecture.
type JobOutcome struct {
	Request
	Granted    bool
	Allocation *Allocation
	// CoreToGPU is the effective cores-per-GPU ratio the job received
	// (0 when it holds no GPUs).
	CoreToGPU float64
}

// Comparison is the side-by-side result of scheduling the same job set on
// a traditional system and a CDI system with equal total resources.
type Comparison struct {
	Traditional []JobOutcome
	CDI         []JobOutcome

	TraditionalTrappedGPUs int
	CDITrappedGPUs         int
	TraditionalPowerW      float64
	CDIPowerW              float64
}

// CompareArchitectures schedules jobs on both a traditional machine
// (nodes × coresPerNode cores and gpusPerNode GPUs) and a CDI machine with
// the same totals (the GPUs pooled into chassis reached at the given
// scale), then reports outcomes, trapped resources, and power.
func CompareArchitectures(jobs []Request, nodes, coresPerNode, gpusPerNode, gpusPerChassis int, scale fabric.Scale) (Comparison, error) {
	trad, err := NewTraditional(nodes, coresPerNode, gpusPerNode)
	if err != nil {
		return Comparison{}, err
	}
	totalGPUs := nodes * gpusPerNode
	if gpusPerChassis <= 0 {
		gpusPerChassis = totalGPUs
	}
	chassis := ceilDiv(totalGPUs, gpusPerChassis)
	cdi, err := NewCDI(nodes, coresPerNode, chassis, gpusPerChassis, fabric.Preset(scale, 0))
	if err != nil {
		return Comparison{}, err
	}

	var cmp Comparison
	run := func(s *System) []JobOutcome {
		var out []JobOutcome
		for _, j := range jobs {
			o := JobOutcome{Request: j}
			a, err := s.Alloc(j)
			if err == nil {
				o.Granted = true
				o.Allocation = a
				if j.GPUs > 0 {
					o.CoreToGPU = float64(a.NodesUsed*s.coresPerNode) / float64(j.GPUs)
				}
			}
			out = append(out, o)
		}
		return out
	}
	cmp.Traditional = run(trad)
	cmp.CDI = run(cdi)
	_, cmp.TraditionalTrappedGPUs = trad.Trapped()
	_, cmp.CDITrappedGPUs = cdi.Trapped()
	cmp.TraditionalPowerW = trad.GPUPowerDraw()
	cmp.CDIPowerW = cdi.GPUPowerDraw()
	return cmp, nil
}

// PaperScenario reproduces the Discussion (§V) example: 20 CPU nodes of 24
// cores, 40 GPUs (2 per node under the traditional architecture), with
// LAMMPS and CosmoFlow each asking for 20 GPUs — CosmoFlow with its
// minimal 4-core CPU need, LAMMPS with its appetite for every core it can
// get.
func PaperScenario() (Comparison, error) {
	jobs := []Request{
		{Name: "cosmoflow", Cores: 4, GPUs: 20},
		{Name: "lammps", Cores: 16 * 24, GPUs: 20, FlexCores: true},
	}
	return CompareArchitectures(jobs, 20, 24, 2, 20, fabric.RowScale)
}

// Render formats the comparison as a table.
func (c Comparison) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-14s %-8s %-10s %-10s %-12s\n", "job", "architecture", "granted", "nodes", "gpus", "cores/gpu")
	row := func(arch string, o JobOutcome) {
		nodes, gpus := "-", "-"
		ratio := "-"
		if o.Granted {
			nodes = fmt.Sprintf("%d", o.Allocation.NodesUsed)
			gpus = fmt.Sprintf("%d", o.Allocation.GPUsGranted)
			if o.CoreToGPU > 0 {
				ratio = fmt.Sprintf("%.1f", o.CoreToGPU)
			}
		}
		fmt.Fprintf(&b, "%-12s %-14s %-8v %-10s %-10s %-12s\n", o.Name, arch, o.Granted, nodes, gpus, ratio)
	}
	for _, o := range c.Traditional {
		row("traditional", o)
	}
	for _, o := range c.CDI {
		row("cdi", o)
	}
	fmt.Fprintf(&b, "trapped GPUs: traditional=%d cdi=%d\n", c.TraditionalTrappedGPUs, c.CDITrappedGPUs)
	fmt.Fprintf(&b, "GPU power:    traditional=%.0fW cdi=%.0fW\n", c.TraditionalPowerW, c.CDIPowerW)
	return b.String()
}
