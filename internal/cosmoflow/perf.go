// Package cosmoflow is the performance model of the CosmoFlow benchmark
// the paper profiles: a 3-D convolutional network that regresses
// cosmological parameters from voxelized dark-matter density volumes,
// trained with data-parallel workers synchronized by Horovod-style
// allreduce. The training loop is driven through the simulated
// CUDA/GPU/Horovod substrates with cost models, reproducing the paper's
// trace and CPU-affinity experiments; no tensor values are computed, since
// the paper's method reads only kernel durations, memcpy sizes and runtime
// fractions.
package cosmoflow

import (
	"fmt"
	"math"

	"repro/internal/cuda"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/horovod"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/slack"
	"repro/internal/trace"
)

// Performance-mode constants. The paper ran CosmoFlow's "mini" dataset
// (1024 training + 1024 validation samples) for 5 epochs at batch size 4,
// measuring 705 s on a Narval node; the loader and framework-overhead
// constants below put the simulated run in the same regime.
const (
	// DefaultInputSide is the cubic volume edge (voxels).
	DefaultInputSide = 128
	// DefaultChannels is the input channel count (redshift bins).
	DefaultChannels = 4
	// DefaultBatch is the paper's profiling batch size.
	DefaultBatch = 4
	// DefaultEpochs matches the paper's runs.
	DefaultEpochs = 5
	// MiniSamples is the size of each split of the "mini" dataset.
	MiniSamples = 1024

	// LoadPerSample is the host cost to read and augment one volume.
	LoadPerSample = 50 * sim.Millisecond
	// LoaderCores is the host-core count the input pipeline saturates —
	// the paper found CosmoFlow needs exactly 2 cores and gains nothing
	// beyond them.
	LoaderCores = 2
	// StepOverhead is the framework (TensorFlow session/dispatch) cost
	// per training step, replicated on the host.
	StepOverhead = 100 * sim.Millisecond
	// ConvEfficiency is the fraction of device peak the framework's 3-D
	// convolutions achieve (TF conv3d kernels are far from peak).
	ConvEfficiency = 0.05
)

// PerfConfig describes one performance-mode training run.
type PerfConfig struct {
	// GPUs is the number of data-parallel workers (devices).
	GPUs int
	// BatchSize is the per-worker batch size.
	BatchSize int
	// Epochs is the number of passes over the training split.
	Epochs int
	// TrainSamples and ValSamples size the dataset (0 = mini: 1024 each).
	TrainSamples int
	ValSamples   int
	// Cores is the host core count available to each worker.
	Cores int
	// InputSide and Channels shape the input volumes.
	InputSide int
	Channels  int
	// Spec selects the device type (zero value = gpu.A100()).
	Spec gpu.Spec
	// Slack is injected after every link-crossing CUDA call (0 = none).
	Slack sim.Duration
	// Faults, when non-nil, charges deterministic fault-recovery delays
	// (timeouts, retries, failover) after link-crossing calls on every
	// worker; the caller keeps the pointer and reads its Stats afterwards.
	Faults *faults.CallInjector
	// Record attaches an NSys-style recorder (worker 0's device).
	Record bool
	// Interconnect is the GPU-to-GPU cost model for gradient allreduce.
	// The zero value selects mpi.IntraNode(); mpi.NVLink() models GPUs
	// composed into one chassis (the Discussion's tight-coupling benefit),
	// mpi.InterNode() GPUs dispersed across nodes.
	Interconnect mpi.CostModel
}

func (c PerfConfig) withDefaults() PerfConfig {
	if c.GPUs == 0 {
		c.GPUs = 1
	}
	if c.BatchSize == 0 {
		c.BatchSize = DefaultBatch
	}
	if c.Epochs == 0 {
		c.Epochs = DefaultEpochs
	}
	if c.TrainSamples == 0 {
		c.TrainSamples = MiniSamples
	}
	if c.ValSamples == 0 {
		c.ValSamples = MiniSamples
	}
	if c.Cores == 0 {
		c.Cores = 8
	}
	if c.InputSide == 0 {
		c.InputSide = DefaultInputSide
	}
	if c.Channels == 0 {
		c.Channels = DefaultChannels
	}
	if c.Spec == (gpu.Spec{}) {
		c.Spec = gpu.A100()
	}
	return c
}

func (c PerfConfig) validate() error {
	if c.GPUs < 1 || c.BatchSize < 1 || c.Epochs < 1 || c.Cores < 1 {
		return fmt.Errorf("cosmoflow: invalid run shape gpus=%d batch=%d epochs=%d cores=%d",
			c.GPUs, c.BatchSize, c.Epochs, c.Cores)
	}
	if c.TrainSamples < 0 || c.ValSamples < 0 {
		return fmt.Errorf("cosmoflow: negative dataset size train=%d val=%d", c.TrainSamples, c.ValSamples)
	}
	if c.InputSide < 8 || c.InputSide&(c.InputSide-1) != 0 {
		return fmt.Errorf("cosmoflow: input side %d must be a power of two ≥ 8", c.InputSide)
	}
	if !c.Slack.Valid() {
		return fmt.Errorf("cosmoflow: slack %g s, want finite and non-negative", float64(c.Slack))
	}
	if ic := c.Interconnect; !ic.Alpha.Valid() || !(ic.Beta >= 0) || math.IsInf(ic.Beta, 1) {
		return fmt.Errorf("cosmoflow: interconnect alpha %g s, beta %g B/s, want finite and non-negative",
			float64(ic.Alpha), ic.Beta)
	}
	return nil
}

// convBlock describes one conv/pool stage of the cost model.
type convBlock struct {
	cin, cout, out int // out is the conv output extent (pre-pool)
}

// blocks enumerates the conv stages for an input side: conv3d+pool blocks
// halving the volume down to 4³, with channels doubling from 16 up to 256.
// It restates CosmoFlow's layer shapes here; nothing else defines them.
func blocks(side, channels int) []convBlock {
	var out []convBlock
	cin := channels
	cout := 16
	for s := side; s > 4; s /= 2 {
		out = append(out, convBlock{cin: cin, cout: cout, out: s})
		cin = cout
		if cout < 256 {
			cout *= 2
		}
	}
	return out
}

// paramBytes returns the model's parameter footprint (float32).
func paramBytes(side, channels int) int64 {
	var params int64
	bs := blocks(side, channels)
	for _, b := range bs {
		params += int64(b.cin)*int64(b.cout)*27 + int64(b.cout)
	}
	last := bs[len(bs)-1].cout
	flat := int64(last) * 4 * 4 * 4
	params += flat*64 + 64 + 64*4 + 4
	return params * 4
}

// PerfResult reports one performance-mode run.
type PerfResult struct {
	GPUs      int
	BatchSize int
	Epochs    int
	// TrainSteps is the per-worker training step count executed.
	TrainSteps int
	// Runtime is the full training wall (virtual) time.
	Runtime sim.Duration
	// StepTime is the average training-step time (loader-pipelined).
	StepTime sim.Duration
	// ParamBytes is the gradient payload synchronized per step.
	ParamBytes int64
	// GPUUtilization is worker 0's compute busy fraction.
	GPUUtilization float64
	// DelayedCalls counts slack-delayed CUDA calls across workers.
	DelayedCalls int64
	// Trace is worker 0's recording when Record was set.
	Trace *trace.Trace
}

// RunPerf executes one CosmoFlow performance-mode training run.
func RunPerf(cfg PerfConfig) (PerfResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return PerfResult{}, err
	}
	perWorker := cfg.TrainSamples / cfg.GPUs
	steps := perWorker / cfg.BatchSize
	if steps < 1 {
		return PerfResult{}, fmt.Errorf("cosmoflow: %d samples insufficient for %d GPUs × batch %d",
			cfg.TrainSamples, cfg.GPUs, cfg.BatchSize)
	}
	valSteps := cfg.ValSamples / cfg.GPUs / cfg.BatchSize

	env := sim.NewEnv()
	defer env.Close()

	devs := make([]*gpu.Device, cfg.GPUs)
	ctxs := make([]*cuda.Context, cfg.GPUs)
	injs := make([]*slack.Injector, cfg.GPUs)
	var rec *trace.Recorder
	if cfg.Record {
		rec = trace.NewRecorder(fmt.Sprintf("cosmoflow-bs%d-g%d", cfg.BatchSize, cfg.GPUs))
	}
	for i := range devs {
		dev, err := gpu.NewDevice(env, cfg.Spec)
		if err != nil {
			return PerfResult{}, err
		}
		devs[i] = dev
		ctxs[i] = cuda.NewContext(dev, cuda.Config{})
		injs[i] = slack.New(cfg.Slack)
		if rec != nil && i == 0 {
			dev.Listen(rec)
			ctxs[i].Interpose(rec)
		}
		ctxs[i].Interpose(injs[i])
		if cfg.Faults != nil {
			ctxs[i].Interpose(cfg.Faults)
		}
	}

	interconnect := cfg.Interconnect
	if interconnect == (mpi.CostModel{}) {
		interconnect = mpi.IntraNode()
	}
	world := mpi.NewWorld(env, cfg.GPUs, interconnect)
	inputBytes := int64(cfg.BatchSize) * int64(cfg.InputSide*cfg.InputSide*cfg.InputSide) * int64(cfg.Channels) * 4
	pBytes := paramBytes(cfg.InputSide, cfg.Channels)
	bs := blocks(cfg.InputSide, cfg.Channels)

	// Input pipeline: loading one batch occupies min(Cores, LoaderCores)
	// cores; fewer cores serialize the work. Beyond LoaderCores there is
	// nothing left to parallelize — the paper's "needs exactly 2 cores".
	loaderPar := cfg.Cores
	if loaderPar > LoaderCores {
		loaderPar = LoaderCores
	}
	loadTime := sim.Duration(float64(LoadPerSample) * float64(cfg.BatchSize) / float64(loaderPar))

	var workerErr error
	world.SpawnAll(func(r *mpi.Rank) {
		p := r.Proc()
		ctx := ctxs[r.Rank()]
		hvd := horovod.New(r, horovod.Config{})

		dIn, err := ctx.Malloc(p, inputBytes)
		if err != nil {
			workerErr = err
			return
		}
		dParams, err := ctx.Malloc(p, pBytes*3) // weights + grads + momentum
		if err != nil {
			workerErr = err
			return
		}
		dLoss, err := ctx.Malloc(p, 4096)
		if err != nil {
			workerErr = err
			return
		}
		// Initial weight upload: one mid-sized transfer at session start.
		if err := ctx.MemcpyH2D(p, dParams, pBytes); err != nil {
			workerErr = err
			return
		}

		// Pipelined loader: a producer process prepares batches into a
		// bounded queue so loading overlaps the previous step's GPU work.
		const depth = 2
		ready := sim.NewSignal(p.Env())
		space := sim.NewSignal(p.Env())
		queued := 0
		totalBatches := cfg.Epochs * (steps + valSteps)
		p.Env().Spawn(fmt.Sprintf("loader%d", r.Rank()), func(lp *sim.Proc) {
			for b := 0; b < totalBatches; b++ {
				lp.Sleep(loadTime)
				for queued >= depth {
					space.Wait(lp)
				}
				queued++
				ready.Fire()
			}
		})
		nextBatch := func() {
			for queued == 0 {
				ready.Wait(p)
			}
			queued--
			space.Fire()
		}

		forward := func() {
			for _, b := range bs {
				k := gpu.Conv3D(cfg.BatchSize, b.cin, b.cout, 3, b.out)
				k.Efficiency = ConvEfficiency
				ctx.Launch(p, k, nil)
				n := cfg.BatchSize * b.cout * b.out * b.out * b.out
				ctx.Launch(p, gpu.Elementwise("bias_relu", n), nil)
				ctx.Launch(p, gpu.Pool3D(cfg.BatchSize, b.cout, b.out/2), nil)
			}
			last := bs[len(bs)-1].cout
			flat := last * 4 * 4 * 4
			ctx.Launch(p, gpu.Dense(cfg.BatchSize, flat, 64), nil)
			ctx.Launch(p, gpu.Elementwise("relu", cfg.BatchSize*64), nil)
			ctx.Launch(p, gpu.Dense(cfg.BatchSize, 64, 4), nil)
		}
		backward := func() {
			last := bs[len(bs)-1].cout
			flat := last * 4 * 4 * 4
			ctx.Launch(p, gpu.Dense(cfg.BatchSize, 64, 4), nil)
			ctx.Launch(p, gpu.Dense(cfg.BatchSize, flat, 64), nil)
			for i := len(bs) - 1; i >= 0; i-- {
				b := bs[i]
				for _, suffix := range []string{"_dgrad", "_wgrad"} {
					k := gpu.Conv3D(cfg.BatchSize, b.cin, b.cout, 3, b.out)
					k.Name += suffix
					k.Efficiency = ConvEfficiency
					ctx.Launch(p, k, nil)
				}
				n := cfg.BatchSize * b.cout * b.out * b.out * b.out
				ctx.Launch(p, gpu.Elementwise("pool_relu_bwd", n), nil)
			}
			ctx.Launch(p, gpu.Elementwise("sgd_update", int(pBytes/4)), nil)
		}

		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			for s := 0; s < steps; s++ {
				nextBatch()
				p.Sleep(StepOverhead)
				if err := ctx.MemcpyH2D(p, dIn, inputBytes); err != nil {
					workerErr = err
					return
				}
				// Per-step control traffic: learning-rate/step counters in,
				// metrics out — the population of tiny transfers dominating
				// CosmoFlow's Figure 5 distribution.
				if err := ctx.MemcpyH2D(p, dLoss, 4096); err != nil {
					workerErr = err
					return
				}
				forward()
				backward()
				ctx.DeviceSynchronize(p)
				if err := ctx.MemcpyD2H(p, dLoss, 16); err != nil {
					workerErr = err
					return
				}
				if err := ctx.MemcpyD2H(p, dLoss, 1024); err != nil {
					workerErr = err
					return
				}
				if r.Size() > 1 {
					hvd.SyncBytes(pBytes)
				}
			}
			// Validation pass: forward only, smaller host overhead.
			for s := 0; s < valSteps; s++ {
				nextBatch()
				p.Sleep(StepOverhead / 2)
				if err := ctx.MemcpyH2D(p, dIn, inputBytes); err != nil {
					workerErr = err
					return
				}
				forward()
				ctx.DeviceSynchronize(p)
				if err := ctx.MemcpyD2H(p, dLoss, 16); err != nil {
					workerErr = err
					return
				}
			}
		}
		ctx.MustFree(p, dIn)
		ctx.MustFree(p, dParams)
		ctx.MustFree(p, dLoss)
	})

	if rec != nil {
		rec.Start(env)
	}
	start := env.Now()
	env.Run()
	if workerErr != nil {
		return PerfResult{}, workerErr
	}
	runtime := env.Now().Sub(start)
	if rec != nil {
		rec.Stop(env)
	}

	res := PerfResult{
		GPUs:           cfg.GPUs,
		BatchSize:      cfg.BatchSize,
		Epochs:         cfg.Epochs,
		TrainSteps:     cfg.Epochs * steps,
		Runtime:        runtime,
		StepTime:       runtime / sim.Duration(cfg.Epochs*(steps+valSteps)),
		ParamBytes:     pBytes,
		GPUUtilization: devs[0].Utilization(),
		Trace:          nil,
	}
	for _, in := range injs {
		res.DelayedCalls += in.DelayedCalls()
	}
	if rec != nil {
		res.Trace = rec.Trace()
	}
	return res, nil
}
