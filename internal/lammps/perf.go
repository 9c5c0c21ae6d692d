// Package lammps is the performance model of the LAMMPS Lennard-Jones (LJ)
// benchmark the paper profiles: the melt/LJ liquid in reduced units (fcc
// lattice at ρ*=0.8442, r_c=2.5σ — the bench/in.lj defaults). Each MD step
// is driven through the simulated CUDA/GPU/MPI substrates with
// operation-count cost models, reproducing the paper's strong-scaling and
// trace experiments at production box sizes (millions of atoms) in virtual
// time. No particle is ever moved: the paper's method reads only kernel
// durations, memcpy sizes and runtime fractions.
package lammps

import (
	"fmt"
	"math"

	"repro/internal/cuda"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/slack"
	"repro/internal/trace"
)

// Reduced-unit benchmark constants (LAMMPS bench/in.lj).
const (
	// Density is the reduced number density ρ*.
	Density = 0.8442
	// Cutoff is the LJ interaction cutoff in σ.
	Cutoff = 2.5
	// AtomsPerCell is the fcc basis size: 4 atoms per cubic lattice cell.
	AtomsPerCell = 4
)

// Atoms returns the atom count for a given box size in the paper's units:
// box size b is b³ fcc lattice cells of 4 atoms (box 20 = 32 000 atoms,
// box 120 = 6 912 000; the paper's Table I agrees except for a typo at
// box 60, printed as 288k where 4·60³ = 864k).
func Atoms(boxSize int) int {
	if boxSize <= 0 {
		panic("lammps: box size must be positive")
	}
	return AtomsPerCell * boxSize * boxSize * boxSize
}

// Cost-model constants, calibrated so that single-process runs reproduce
// the paper's Table I baselines (box 20..120 between 1.09 and 108 ms/step)
// and strong scaling reproduces Figure 2's shapes. See DESIGN.md.
const (
	// CPUPerAtom is the rank- and thread-parallel host work per atom per
	// step (integration, neighbor maintenance, buffer packing).
	CPUPerAtom = 9.2 * sim.Nanosecond
	// SerialPerAtom is host work replicated on every rank and parallel
	// only across its threads (global bookkeeping, reductions).
	SerialPerAtom = 1.0 * sim.Nanosecond
	// StepFixed is the per-step fixed serial cost (timestepping
	// bookkeeping, output, driver overhead).
	StepFixed = 500 * sim.Microsecond
	// CtxSwitch is the GPU context-switch cost between ranks sharing the
	// device without MPS.
	CtxSwitch = 850 * sim.Microsecond

	// PosBytesPerAtom is the per-step host-to-device position transfer.
	PosBytesPerAtom = 12
	// ForceBytesPerAtom is the per-step device-to-host force (+energy/
	// virial) transfer.
	ForceBytesPerAtom = 24
	// HaloBytesPerAtom is the wire size of one exchanged ghost atom.
	HaloBytesPerAtom = 32
	// NeighborsHalf is the average half-neighbor-list length at the
	// benchmark density: half of ρ·(4/3)πr_c³ ≈ 55.3, truncated.
	NeighborsHalf = 27
	// DefaultRebuildEvery is the neighbor-list rebuild period in steps.
	DefaultRebuildEvery = 10
	// CellMetaBytes is the small host-to-device cell/bin metadata copy
	// accompanying each rebuild.
	CellMetaBytes = 512 << 10
	// DefaultSteps is the paper's run length for all analyses.
	DefaultSteps = 5000
)

// PerfConfig describes one performance-mode run.
type PerfConfig struct {
	// BoxSize in the paper's units (box 20 = 32 000 atoms).
	BoxSize int
	// Procs is the number of MPI ranks sharing the node's GPU.
	Procs int
	// Threads is the OpenMP thread count per rank.
	Threads int
	// Steps is the number of MD steps (0 selects DefaultSteps).
	Steps int
	// RebuildEvery is the neighbor rebuild period (0 selects the default).
	RebuildEvery int
	// Spec selects the GPU; the zero value selects gpu.A100() with the
	// calibrated multi-process context-switch cost.
	Spec gpu.Spec
	// Slack is injected after every link-crossing CUDA call on every rank
	// (0 = none) — used to validate the proxy-based predictions directly.
	Slack sim.Duration
	// Faults, when non-nil, charges deterministic fault-recovery delays
	// (timeouts, retries, failover) after link-crossing calls on every
	// rank; the caller keeps the pointer and reads its Stats afterwards.
	Faults *faults.CallInjector
	// Record attaches an NSys-style recorder.
	Record bool
}

func (c PerfConfig) withDefaults() PerfConfig {
	if c.Procs == 0 {
		c.Procs = 1
	}
	if c.Threads == 0 {
		c.Threads = 1
	}
	if c.Steps == 0 {
		c.Steps = DefaultSteps
	}
	if c.RebuildEvery == 0 {
		c.RebuildEvery = DefaultRebuildEvery
	}
	if c.Spec == (gpu.Spec{}) {
		c.Spec = gpu.A100()
		c.Spec.ContextSwitch = CtxSwitch
	}
	return c
}

func (c PerfConfig) validate() error {
	if c.BoxSize <= 0 {
		return fmt.Errorf("lammps: box size %d", c.BoxSize)
	}
	if c.Procs < 1 || c.Threads < 1 || c.Steps < 1 || c.RebuildEvery < 1 {
		return fmt.Errorf("lammps: invalid run shape procs=%d threads=%d steps=%d rebuild=%d",
			c.Procs, c.Threads, c.Steps, c.RebuildEvery)
	}
	if !c.Slack.Valid() {
		return fmt.Errorf("lammps: slack %g s, want finite and non-negative", float64(c.Slack))
	}
	return nil
}

// PerfResult reports one performance-mode run.
type PerfResult struct {
	BoxSize int
	Atoms   int
	Procs   int
	Threads int
	Steps   int

	// Runtime is the measured wall (virtual) time of the stepping loop.
	Runtime sim.Duration
	// StepTime is Runtime / Steps.
	StepTime sim.Duration
	// FullRuntime extrapolates to the paper's 5000-step runs (Table I).
	FullRuntime sim.Duration
	// GPUUtilization is compute-engine busy time over the loop.
	GPUUtilization float64
	// CtxSwitches counts device context switches during the loop.
	CtxSwitches int64
	// DelayedCalls counts slack-delayed CUDA calls (with Slack > 0).
	DelayedCalls int64
	// Trace is the recording when Record was set.
	Trace *trace.Trace
}

// RunPerf executes one LAMMPS performance-mode run: Procs MPI ranks, each
// stepping its sub-domain, offloading the force kernel to the shared GPU
// and exchanging halos with its neighbors.
func RunPerf(cfg PerfConfig) (PerfResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return PerfResult{}, err
	}
	atoms := Atoms(cfg.BoxSize)
	perRank := atoms / cfg.Procs
	if perRank < 1 {
		return PerfResult{}, fmt.Errorf("lammps: %d ranks for %d atoms", cfg.Procs, atoms)
	}

	env := sim.NewEnv()
	defer env.Close()
	dev, err := gpu.NewDevice(env, cfg.Spec)
	if err != nil {
		return PerfResult{}, err
	}

	var rec *trace.Recorder
	if cfg.Record {
		rec = trace.NewRecorder(fmt.Sprintf("lammps-box%d-p%d-t%d", cfg.BoxSize, cfg.Procs, cfg.Threads))
		dev.Listen(rec)
	}

	// One CUDA context (and so one default stream) per rank: separate
	// processes in production, which is what makes the device pay context
	// switches between ranks.
	ctxs := make([]*cuda.Context, cfg.Procs)
	injs := make([]*slack.Injector, cfg.Procs)
	for i := range ctxs {
		ctxs[i] = cuda.NewContext(dev, cuda.Config{})
		if rec != nil {
			ctxs[i].Interpose(rec)
		}
		injs[i] = slack.New(cfg.Slack)
		ctxs[i].Interpose(injs[i])
		if cfg.Faults != nil {
			ctxs[i].Interpose(cfg.Faults)
		}
	}

	world := mpi.NewWorld(env, cfg.Procs, mpi.IntraNode())

	// Device buffers per rank: positions+forces resident, sized once.
	posBytes := int64(perRank) * PosBytesPerAtom
	forceBytes := int64(perRank) * ForceBytesPerAtom
	haloAtoms := haloCount(perRank)
	haloBytes := int64(haloAtoms) * HaloBytesPerAtom

	cpuWork := sim.Duration(float64(CPUPerAtom) * float64(perRank) / float64(cfg.Threads))
	serialWork := sim.Duration(float64(SerialPerAtom) * float64(atoms) / float64(cfg.Threads))

	var rankErr error
	world.SpawnAll(func(r *mpi.Rank) {
		p := r.Proc()
		ctx := ctxs[r.Rank()]
		dPos, err := ctx.Malloc(p, posBytes+haloBytes)
		if err != nil {
			rankErr = err
			return
		}
		dForce, err := ctx.Malloc(p, forceBytes)
		if err != nil {
			rankErr = err
			return
		}
		dNeigh, err := ctx.Malloc(p, int64(perRank)*NeighborsHalf*4+CellMetaBytes)
		if err != nil {
			rankErr = err
			return
		}

		for step := 0; step < cfg.Steps; step++ {
			// Host: integration and neighbor maintenance (thread-parallel),
			// then replicated bookkeeping.
			p.Sleep(cpuWork)
			p.Sleep(serialWork)

			// Halo exchange with the six face neighbors (ring pairs per
			// dimension in this 1-D decomposition of the rank space).
			if r.Size() > 1 {
				per := haloBytes / 6
				for dim := 0; dim < 3; dim++ {
					up := (r.Rank() + 1) % r.Size()
					down := (r.Rank() - 1 + r.Size()) % r.Size()
					r.Sendrecv(up, 100+dim, per, down, 100+dim)
					r.Sendrecv(down, 200+dim, per, up, 200+dim)
				}
			}

			// GPU offload: positions over, force kernel, forces back.
			if err := ctx.MemcpyH2D(p, dPos, posBytes); err != nil {
				rankErr = err
				return
			}
			if step%cfg.RebuildEvery == 0 {
				if err := ctx.MemcpyH2D(p, dNeigh, CellMetaBytes); err != nil {
					rankErr = err
					return
				}
				ctx.LaunchSync(p, gpu.NeighborBuild(perRank, NeighborsHalf), nil)
			}
			ctx.LaunchSync(p, ljForceKernel(perRank), nil)
			if err := ctx.MemcpyD2H(p, dForce, forceBytes); err != nil {
				rankErr = err
				return
			}

			// Fixed serial step cost (replicated; overlaps across ranks).
			p.Sleep(StepFixed)
			r.Barrier()
		}
		ctx.MustFree(p, dPos)
		ctx.MustFree(p, dForce)
		ctx.MustFree(p, dNeigh)
	})

	if rec != nil {
		rec.Start(env)
	}
	start := env.Now()
	env.Run()
	if rankErr != nil {
		return PerfResult{}, rankErr
	}
	runtime := env.Now().Sub(start)
	if rec != nil {
		rec.Stop(env)
	}

	res := PerfResult{
		BoxSize:        cfg.BoxSize,
		Atoms:          atoms,
		Procs:          cfg.Procs,
		Threads:        cfg.Threads,
		Steps:          cfg.Steps,
		Runtime:        runtime,
		StepTime:       runtime / sim.Duration(cfg.Steps),
		FullRuntime:    runtime / sim.Duration(cfg.Steps) * sim.Duration(DefaultSteps),
		GPUUtilization: float64(dev.Counters().ComputeBusy) / float64(runtime),
		CtxSwitches:    dev.Counters().CtxSwitches,
	}
	for _, in := range injs {
		res.DelayedCalls += in.DelayedCalls()
	}
	if rec != nil {
		res.Trace = rec.Trace()
	}
	return res, nil
}

// ljForceKernel returns the per-rank LJ force kernel with the device
// efficiency degrading for small sub-domains (under-filled SMs) — the
// effect that flattens strong scaling for small boxes.
func ljForceKernel(atomsPerRank int) gpu.Kernel {
	k := gpu.LJForce(atomsPerRank, NeighborsHalf)
	k.Efficiency = 0.22 * float64(atomsPerRank) / (float64(atomsPerRank) + 50000)
	return k
}

// haloCount estimates the ghost atoms a rank of n owned atoms exchanges
// per step: the six domain faces, one cutoff deep.
func haloCount(n int) int {
	c := math.Cbrt(float64(n))
	return int(6 * 1.2 * c * c)
}
