// Package proxy implements the paper's slack proxy application (§III-C):
// a matrix-multiplication workload that emulates how applications use CUDA
// so that slack can be injected under controlled conditions.
//
// The proxy multiplies square float32 matrices (A×B=C). Each OpenMP-style
// thread owns private copies of the matrices on the device and runs the
// main compute loop serially: copy A and B to the GPU, compute C, copy C
// back — five slack-delayed CUDA calls per iteration (three transfers, the
// kernel, and a host-device synchronization). A preliminary kernel timing
// sizes the loop to ~30 s of raw GPU compute, clamped to [5, 1000]
// iterations, exactly as the paper describes.
package proxy

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/slack"
	"repro/internal/trace"
)

// Paper parameters (§III-C).
const (
	// TargetComputeTime is the raw GPU compute the iteration count aims for.
	TargetComputeTime = 30 * sim.Second
	// MinIters and MaxIters bound the iteration count; small kernels have
	// proportionally larger runtime variation, hence the ceiling.
	MinIters = 5
	MaxIters = 1000
	// CallsPerIteration is Equation 1's num_CUDAcalls per loop iteration:
	// 3 matrix transfers + kernel + host-device synchronization.
	CallsPerIteration = 5
)

// PaperSizes returns the matrix sizes the paper sweeps: 2^15 down to 2^9
// in multiples of 2^2.
func PaperSizes() []int { return []int{1 << 9, 1 << 11, 1 << 13, 1 << 15} }

// PaperThreads returns the OpenMP thread counts the paper tests.
func PaperThreads() []int { return []int{1, 2, 4, 8} }

// ErrDoesNotFit reports that the requested configuration overflows device
// memory (each thread holds private copies of all three matrices; the
// paper excludes 2^15 at ≥4 threads for this reason: 3×4 GiB×4 > 40 GiB).
var ErrDoesNotFit = errors.New("proxy: matrices do not fit in device memory")

// Config describes one proxy run.
type Config struct {
	// MatrixSize is the square matrix dimension n.
	MatrixSize int
	// Threads is the number of OpenMP-style submitter threads (≥ 1).
	Threads int
	// Slack is the per-CUDA-call delay to inject (0 = baseline).
	Slack sim.Duration
	// Iters overrides the 30-second sizing when positive (tests); zero
	// selects the sizing and a negative count is an error.
	Iters int
	// Spec selects the device; zero value selects gpu.A100().
	Spec gpu.Spec
	// Record attaches a tracer and returns the trace in the result.
	Record bool
	// ThreadOffset staggers each thread's start by its index × this
	// duration. The paper tested launch offsets and found no correlation
	// with the slack penalty; the knob exists to reproduce that check.
	ThreadOffset sim.Duration
	// IterSpacing inserts an extra host delay between loop iterations —
	// the paper's second no-correlation experiment.
	IterSpacing sim.Duration
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Spec == (gpu.Spec{}) {
		c.Spec = gpu.A100()
	}
	if c.Threads == 0 {
		c.Threads = 1
	}
	return c
}

func (c Config) validate() error {
	if c.MatrixSize <= 0 {
		return fmt.Errorf("proxy: matrix size %d", c.MatrixSize)
	}
	if c.Threads < 1 {
		return fmt.Errorf("proxy: thread count %d", c.Threads)
	}
	if c.Iters < 0 {
		return fmt.Errorf("proxy: iteration count %d", c.Iters)
	}
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	if !c.Slack.Valid() {
		return fmt.Errorf("proxy: slack %g s, want finite and non-negative", float64(c.Slack))
	}
	if !c.ThreadOffset.Valid() || !c.IterSpacing.Valid() {
		return fmt.Errorf("proxy: thread offset %g s / iteration spacing %g s, want finite and non-negative",
			float64(c.ThreadOffset), float64(c.IterSpacing))
	}
	return nil
}

// Result reports one proxy run.
type Result struct {
	Slack sim.Duration

	// KernelTime is the preliminary single-kernel baseline timing.
	KernelTime sim.Duration
	// Iters is the per-thread main-loop iteration count N.
	Iters int
	// LoopTime is the measured wall time of the main compute loop.
	LoopTime sim.Duration
	// DelayedCalls counts slack-delayed API calls across all threads.
	DelayedCalls int64
	// Trace is the recording, when Config.Record was set.
	Trace *trace.Trace
}

// Run executes one proxy configuration on a fresh simulated node and
// returns its measurements.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	need := 3 * gpu.MatrixBytes(cfg.MatrixSize) * int64(cfg.Threads)
	if need > cfg.Spec.MemoryBytes {
		return Result{}, fmt.Errorf("%w: need %d bytes for %d threads, have %d",
			ErrDoesNotFit, need, cfg.Threads, cfg.Spec.MemoryBytes)
	}

	env := sim.NewEnv()
	defer env.Close()
	dev, err := gpu.NewDevice(env, cfg.Spec)
	if err != nil {
		return Result{}, err
	}
	ctx := cuda.NewContext(dev, cuda.Config{})

	var rec *trace.Recorder
	if cfg.Record {
		rec = trace.NewRecorder("proxy-n" + strconv.Itoa(cfg.MatrixSize) + "-t" + strconv.Itoa(cfg.Threads))
		dev.Listen(rec)
		ctx.Interpose(rec)
	}
	inj := slack.New(cfg.Slack)
	ctx.Interpose(inj)

	res := Result{Slack: cfg.Slack}
	kernel := gpu.MatMul(cfg.MatrixSize)
	matBytes := gpu.MatrixBytes(cfg.MatrixSize)

	// Phase 1: preliminary kernel timing, slack disabled (it calibrates
	// work, it is not part of the measured loop).
	inj.SetAmount(0)
	var timingErr error
	env.Spawn("prelim", func(p *sim.Proc) {
		a, err := ctx.Malloc(p, matBytes)
		if err != nil {
			timingErr = err
			return
		}
		b, err := ctx.Malloc(p, matBytes)
		if err != nil {
			timingErr = err
			return
		}
		if err := ctx.MemcpyH2D(p, a, matBytes); err != nil {
			timingErr = err
			return
		}
		if err := ctx.MemcpyH2D(p, b, matBytes); err != nil {
			timingErr = err
			return
		}
		s := ctx.StreamCreate(p)
		startEv := ctx.EventRecord(p, s)
		ctx.Launch(p, kernel, s)
		endEv := ctx.EventRecord(p, s)
		ctx.EventSynchronize(p, startEv)
		ctx.EventSynchronize(p, endEv)
		d, err := cuda.ElapsedTime(startEv, endEv)
		if err != nil {
			timingErr = err
			return
		}
		res.KernelTime = d
		ctx.StreamDestroy(p, s)
		ctx.MustFree(p, a)
		ctx.MustFree(p, b)
	})
	env.Run()
	if timingErr != nil {
		return Result{}, timingErr
	}

	// Phase 2: size the loop for ~30 s of raw GPU compute.
	res.Iters = cfg.Iters
	if res.Iters <= 0 {
		n := int(float64(TargetComputeTime) / float64(res.KernelTime))
		if n < MinIters {
			n = MinIters
		}
		if n > MaxIters {
			n = MaxIters
		}
		res.Iters = n
	}

	// Phase 3: the main compute loop, slack enabled, one process per
	// OpenMP thread, each with private device matrices.
	inj.SetAmount(cfg.Slack)
	inj.Reset()
	if rec != nil {
		rec.Start(env)
	}
	loopStart := env.Now()
	runErrs := make([]error, 0, cfg.Threads)
	for t := 0; t < cfg.Threads; t++ {
		offset := sim.Duration(t) * cfg.ThreadOffset
		env.SpawnAt(offset, "omp"+strconv.Itoa(t), func(p *sim.Proc) {
			if err := threadLoop(p, ctx, kernel, matBytes, res.Iters, cfg.IterSpacing); err != nil {
				runErrs = append(runErrs, err)
			}
		})
	}
	env.Run()
	if len(runErrs) > 0 {
		return Result{}, runErrs[0]
	}
	res.LoopTime = env.Now().Sub(loopStart)
	if rec != nil {
		rec.Stop(env)
		res.Trace = rec.Trace()
	}
	res.DelayedCalls = inj.DelayedCalls()
	return res, nil
}

// threadLoop is one OpenMP thread's body: allocate private matrices, run
// the serial compute loop, free.
func threadLoop(p *sim.Proc, ctx *cuda.Context, kernel gpu.Kernel, matBytes int64, iters int, spacing sim.Duration) error {
	rt := Local{ctx}
	m, err := Alloc(p, rt, matBytes)
	if err != nil {
		return err
	}
	for i := 0; i < iters; i++ {
		if spacing > 0 && i > 0 {
			p.Sleep(spacing)
		}
		if err := m.Iterate(p, rt, kernel); err != nil {
			return err
		}
	}
	if err := ctx.Free(p, m.A); err != nil {
		return err
	}
	if err := ctx.Free(p, m.B); err != nil {
		return err
	}
	return ctx.Free(p, m.C)
}

// Runtime is the CUDA surface the main compute loop calls. A node-local
// context satisfies it through Local; the remoting transport satisfies it
// as it is.
type Runtime interface {
	Malloc(p *sim.Proc, n int64) (gpu.Ptr, error)
	MemcpyH2D(p *sim.Proc, dst gpu.Ptr, n int64) error
	MemcpyD2H(p *sim.Proc, src gpu.Ptr, n int64) error
	LaunchSync(p *sim.Proc, k gpu.Kernel) error
	DeviceSynchronize(p *sim.Proc) error
}

// Local adapts a node-local CUDA context to Runtime: its launch takes the
// default stream, and neither call can fail.
type Local struct{ *cuda.Context }

// LaunchSync launches k on the default stream and waits for it.
func (l Local) LaunchSync(p *sim.Proc, k gpu.Kernel) error {
	l.Context.LaunchSync(p, k, nil)
	return nil
}

// DeviceSynchronize waits for all device work.
func (l Local) DeviceSynchronize(p *sim.Proc) error {
	l.Context.DeviceSynchronize(p)
	return nil
}

// Matrices is one thread's private device copies of A, B and C, each
// Bytes long.
type Matrices struct {
	A, B, C gpu.Ptr
	Bytes   int64
}

// Alloc allocates A, B and C on rt, in that order.
func Alloc(p *sim.Proc, rt Runtime, bytes int64) (Matrices, error) {
	m := Matrices{Bytes: bytes}
	for _, ptr := range []*gpu.Ptr{&m.A, &m.B, &m.C} {
		var err error
		if *ptr, err = rt.Malloc(p, bytes); err != nil {
			return Matrices{}, err
		}
	}
	return m, nil
}

// Iterate runs one main-loop iteration on rt: copy A and B in, C = A×B
// with k, synchronize, copy C out. These are the CallsPerIteration calls
// Equation 1 counts.
func (m Matrices) Iterate(p *sim.Proc, rt Runtime, k gpu.Kernel) error {
	if err := rt.MemcpyH2D(p, m.A, m.Bytes); err != nil {
		return err
	}
	if err := rt.MemcpyH2D(p, m.B, m.Bytes); err != nil {
		return err
	}
	if err := rt.LaunchSync(p, k); err != nil {
		return err
	}
	if err := rt.DeviceSynchronize(p); err != nil {
		return err
	}
	return rt.MemcpyD2H(p, m.C, m.Bytes)
}

// Penalty is the normalized slack penalty of a run against its zero-slack
// baseline: corrected/baseline − 1 (0 = no starvation effect; the paper's
// Figure 3 plots corrected runtime normalized to the no-slack case).
//
// With multiple threads a saturated device hides part of the injected
// delay behind other threads' work, so Equation 1's per-thread subtraction
// can overshoot, and by a lot: in the quick reproduction, 2^11 × 8
// threads at 10 ms has corrected/baseline = 0.5093, a penalty of −0.49.
// Since the study reads the residual as a starvation *cost*, Penalty
// clamps at zero (the pessimistic reading). These clamped values are
// model.BuildSurface's input, so the clamp also raises every prediction
// read from the surface.
func Penalty(baseline, run Result) float64 {
	if baseline.LoopTime <= 0 {
		return 0
	}
	return slack.ClampPenalty(slack.Penalty(run.LoopTime, baseline.LoopTime, CallsPerIteration*int64(run.Iters), run.Slack))
}

// SweepPoint is one (size, threads, slack) measurement.
type SweepPoint struct {
	MatrixSize int
	Threads    int
	Slack      sim.Duration
	Result     Result
	// Penalty is the Equation-1-corrected normalized runtime minus 1.
	Penalty float64
}

// Sweep runs the full proxy grid: for each size and thread count, in
// grid order, the Series of that combination. Configurations that do not
// fit in device memory are skipped (as the paper excludes 2^15 at ≥4
// threads). Iters, when positive, overrides the 30-second sizing to keep
// test and bench runtimes bounded.
func Sweep(sizes, threads []int, slacks []sim.Duration, iters int) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(sizes)*len(threads)*len(slacks))
	for _, n := range sizes {
		for _, t := range threads {
			pts, err := Series(n, t, slacks, iters)
			if err != nil {
				return nil, err
			}
			out = append(out, pts...)
		}
	}
	return out, nil
}

// Series runs one (size, threads) combination of the grid: a zero-slack
// baseline, then one run per slack value, each in a private simulation.
// A combination that does not fit in device memory yields no points.
func Series(n, threads int, slacks []sim.Duration, iters int) ([]SweepPoint, error) {
	base, err := Run(Config{MatrixSize: n, Threads: threads, Iters: iters})
	if errors.Is(err, ErrDoesNotFit) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	pts := make([]SweepPoint, 0, len(slacks))
	for _, s := range slacks {
		r, err := Run(Config{MatrixSize: n, Threads: threads, Slack: s, Iters: iters})
		if err != nil {
			return nil, err
		}
		pts = append(pts, SweepPoint{
			MatrixSize: n,
			Threads:    threads,
			Slack:      s,
			Result:     r,
			Penalty:    Penalty(base, r),
		})
	}
	return pts, nil
}
