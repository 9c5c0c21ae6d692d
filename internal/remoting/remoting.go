// Package remoting implements a GPU API-remoting layer in the style of
// rCUDA (Duato et al., cited by the paper as related work): every CUDA
// call is forwarded from the host to a remote GPU server across the
// network fabric as a request/response exchange.
//
// The paper rejects remoting as an instrument for slack studies because it
// "doesn't allow for a granular level of control over the network delays
// experienced": the delay per call depends on hop counts, payload
// serialization, and uncontrollable network noise. This package exists to
// demonstrate exactly that — a Remote context genuinely routes every call
// through a fabric path (with optional noise), so experiments can compare
// its *measured* behaviour against the slack injector's *controlled*
// behaviour and quantify the variance the paper worried about.
package remoting

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/cuda"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/sim"
	"repro/internal/slack"
)

// Config shapes the remoting transport.
type Config struct {
	// Path is the network between host and GPU server.
	Path fabric.Path
	// NoiseFraction adds uniform ±fraction jitter to every network
	// traversal (background traffic, OS noise). Zero disables it.
	NoiseFraction float64
	// Seed makes the noise deterministic.
	Seed int64
	// ServerOverhead is the per-call processing cost on the GPU server
	// (request decode, API dispatch).
	ServerOverhead sim.Duration
}

// validate rejects a path with an invalid hop and a noise fraction outside
// [0, 1): either would otherwise panic deep inside the transport.
func (c Config) validate() error {
	if err := c.Path.Validate(); err != nil {
		return err
	}
	if !(c.NoiseFraction >= 0 && c.NoiseFraction < 1) {
		return fmt.Errorf("remoting: noise fraction %g outside [0, 1)", c.NoiseFraction)
	}
	return nil
}

// Remote is a CUDA-like context whose every call crosses the network. It
// deliberately mirrors the cuda.Context API surface used by the proxy so
// workloads can run unmodified against either.
type Remote struct {
	ctx *cuda.Context
	cfg Config
	rng *rand.Rand

	calls        int64
	networkTime  sim.Duration
	requestBytes int64
}

// New wraps a device with a remoting transport.
func New(dev *gpu.Device, cfg Config) *Remote {
	if cfg.NoiseFraction < 0 || cfg.NoiseFraction >= 1 {
		panic("remoting: noise fraction must be in [0, 1)")
	}
	if cfg.ServerOverhead == 0 {
		cfg.ServerOverhead = 2 * sim.Microsecond
	}
	return &Remote{
		// The server-side context dispatches locally at the chassis; its
		// own driver overhead still applies. The noise stream is a salted
		// substream of the seed, so other seed consumers (the injected arm
		// of Compare, the fault schedule) can never perturb it.
		ctx: cuda.NewContext(dev, cuda.Config{}),
		cfg: cfg,
		rng: faults.Substream(cfg.Seed, saltNoise),
	}
}

// Context returns the server-side CUDA context (for attaching tracers).
func (r *Remote) Context() *cuda.Context { return r.ctx }

// Calls returns the number of remoted API calls.
func (r *Remote) Calls() int64 { return r.calls }

// NetworkTime returns the cumulative time spent traversing the fabric.
func (r *Remote) NetworkTime() sim.Duration { return r.networkTime }

// MeanCallDelay returns the average network delay added per call — the
// quantity the slack injector controls exactly and remoting only
// approximates.
func (r *Remote) MeanCallDelay() sim.Duration {
	if r.calls == 0 {
		return 0
	}
	return r.networkTime / sim.Duration(r.calls)
}

// traverse charges one network crossing carrying n payload bytes.
func (r *Remote) traverse(p *sim.Proc, n int64) {
	d := r.cfg.Path.TransferTime(n)
	if r.cfg.NoiseFraction > 0 {
		u := 1 + r.cfg.NoiseFraction*(2*r.rng.Float64()-1)
		d = sim.Duration(float64(d) * u)
	}
	p.Sleep(d)
	r.networkTime += d
	r.requestBytes += n
}

// roundTrip wraps an API call body with request and response crossings.
// Requests carry the payload (H2D data rides the request; D2H data rides
// the response).
func (r *Remote) roundTrip(p *sim.Proc, reqBytes, respBytes int64, body func()) {
	r.traverse(p, reqBytes)
	if r.cfg.ServerOverhead > 0 {
		p.Sleep(r.cfg.ServerOverhead)
	}
	body()
	r.traverse(p, respBytes)
	r.calls++
}

// Malloc forwards cudaMalloc.
func (r *Remote) Malloc(p *sim.Proc, n int64) (gpu.Ptr, error) {
	var ptr gpu.Ptr
	var err error
	r.roundTrip(p, 64, 64, func() { ptr, err = r.ctx.Malloc(p, n) })
	return ptr, err
}

// Free forwards cudaFree.
func (r *Remote) Free(p *sim.Proc, ptr gpu.Ptr) error {
	var err error
	r.roundTrip(p, 64, 64, func() { err = r.ctx.Free(p, ptr) })
	return err
}

// MemcpyH2D forwards a synchronous host-to-device copy; the payload
// crosses the network in the request.
func (r *Remote) MemcpyH2D(p *sim.Proc, dst gpu.Ptr, n int64) error {
	var err error
	r.roundTrip(p, 64+n, 64, func() { err = r.ctx.MemcpyH2D(p, dst, n) })
	return err
}

// MemcpyD2H forwards a synchronous device-to-host copy; the payload
// crosses in the response.
func (r *Remote) MemcpyD2H(p *sim.Proc, src gpu.Ptr, n int64) error {
	var err error
	r.roundTrip(p, 64, 64+n, func() { err = r.ctx.MemcpyD2H(p, src, n) })
	return err
}

// LaunchSync forwards a blocking kernel launch.
func (r *Remote) LaunchSync(p *sim.Proc, k gpu.Kernel) {
	r.roundTrip(p, 256, 64, func() { r.ctx.LaunchSync(p, k, nil) })
}

// DeviceSynchronize forwards cudaDeviceSynchronize.
func (r *Remote) DeviceSynchronize(p *sim.Proc) {
	r.roundTrip(p, 64, 64, func() { r.ctx.DeviceSynchronize(p) })
}

// RunProxyIteration executes one proxy-style compute iteration (copy A,
// copy B, kernel, sync, copy C) against the remote GPU and returns the
// host-observed duration — the building block of the comparison
// experiment.
func (r *Remote) RunProxyIteration(p *sim.Proc, a, bm, c gpu.Ptr, matBytes int64, k gpu.Kernel) (sim.Duration, error) {
	start := p.Now()
	if err := r.MemcpyH2D(p, a, matBytes); err != nil {
		return 0, err
	}
	if err := r.MemcpyH2D(p, bm, matBytes); err != nil {
		return 0, err
	}
	r.LaunchSync(p, k)
	r.DeviceSynchronize(p)
	if err := r.MemcpyD2H(p, c, matBytes); err != nil {
		return 0, err
	}
	return p.Now().Sub(start), nil
}

// CompareResult contrasts remoting against controlled injection for the
// same nominal slack.
type CompareResult struct {
	MatrixSize int
	Iterations int
	// NominalSlack is the path's zero-payload one-way latency — what the
	// injector would add per call.
	NominalSlack sim.Duration
	// RemotedMean and RemotedStddev describe the per-iteration durations
	// measured through the remoting layer.
	RemotedMean   sim.Duration
	RemotedStddev sim.Duration
	// InjectedMean and InjectedStddev describe the same loop run under
	// controlled slack injection of NominalSlack per call (with the same
	// jitter fraction), the paper's preferred instrument.
	InjectedMean   sim.Duration
	InjectedStddev sim.Duration
	// MeanCallDelay is the network time remoting actually added per call.
	MeanCallDelay sim.Duration
}

// Compare runs n proxy iterations over a remote GPU and over a local GPU
// with controlled slack injection of the same nominal delay, and reports
// how far the remoted per-call delay drifts from the nominal slack — the
// paper's argument for controlled injection, quantified. Each arm draws
// its jitter from its own seed-derived substream, so adding calls to one
// arm cannot perturb the other's sequence.
func Compare(matrixSize, n int, cfg Config) (CompareResult, error) {
	if matrixSize <= 0 || n <= 0 {
		return CompareResult{}, fmt.Errorf("remoting: invalid comparison shape %d×%d", matrixSize, n)
	}
	if err := cfg.validate(); err != nil {
		return CompareResult{}, err
	}
	matBytes := gpu.MatrixBytes(matrixSize)
	kernel := gpu.MatMul(matrixSize)

	// Arm 1: genuine remoting across the fabric.
	env := sim.NewEnv()
	defer env.Close()
	dev, err := gpu.NewDevice(env, gpu.A100())
	if err != nil {
		return CompareResult{}, err
	}
	r := New(dev, cfg)
	remoted, err := proxyLoop(env, n, matBytes, r.Malloc, func(p *sim.Proc, a, bm, c gpu.Ptr) (sim.Duration, error) {
		return r.RunProxyIteration(p, a, bm, c, matBytes, kernel)
	})
	if err != nil {
		return CompareResult{}, err
	}

	// Arm 2: node-local execution with the injector adding the path's
	// one-way latency (and the same jitter fraction) per call.
	ienv := sim.NewEnv()
	defer ienv.Close()
	idev, err := gpu.NewDevice(ienv, gpu.A100())
	if err != nil {
		return CompareResult{}, err
	}
	ictx := cuda.NewContext(idev, cuda.Config{})
	var opts []slack.Option
	if cfg.NoiseFraction > 0 {
		opts = append(opts, slack.WithJitter(cfg.NoiseFraction, faults.SubSeed(cfg.Seed, saltInjectedArm)))
	}
	ictx.Interpose(slack.FromPath(cfg.Path, opts...))
	injected, err := proxyLoop(ienv, n, matBytes,
		func(p *sim.Proc, sz int64) (gpu.Ptr, error) { return ictx.Malloc(p, sz) },
		func(p *sim.Proc, a, bm, c gpu.Ptr) (sim.Duration, error) {
			start := p.Now()
			if err := ictx.MemcpyH2D(p, a, matBytes); err != nil {
				return 0, err
			}
			if err := ictx.MemcpyH2D(p, bm, matBytes); err != nil {
				return 0, err
			}
			ictx.LaunchSync(p, kernel, nil)
			ictx.DeviceSynchronize(p)
			if err := ictx.MemcpyD2H(p, c, matBytes); err != nil {
				return 0, err
			}
			return p.Now().Sub(start), nil
		})
	if err != nil {
		return CompareResult{}, err
	}

	rMean, rSD := meanStddev(remoted)
	iMean, iSD := meanStddev(injected)
	return CompareResult{
		MatrixSize:     matrixSize,
		Iterations:     n,
		NominalSlack:   cfg.Path.Latency(),
		RemotedMean:    sim.Duration(rMean),
		RemotedStddev:  sim.Duration(rSD),
		InjectedMean:   sim.Duration(iMean),
		InjectedStddev: sim.Duration(iSD),
		MeanCallDelay:  r.MeanCallDelay(),
	}, nil
}

// proxyLoop allocates three matrices via malloc and times n iterations of
// iter inside env, returning the per-iteration durations.
func proxyLoop(env *sim.Env, n int, matBytes int64,
	malloc func(*sim.Proc, int64) (gpu.Ptr, error),
	iter func(p *sim.Proc, a, bm, c gpu.Ptr) (sim.Duration, error)) ([]float64, error) {
	var durs []float64
	var runErr error
	env.Spawn("host", func(p *sim.Proc) {
		var bufs [3]gpu.Ptr
		for i := range bufs {
			ptr, err := malloc(p, matBytes)
			if err != nil {
				runErr = err
				return
			}
			bufs[i] = ptr
		}
		for i := 0; i < n; i++ {
			d, err := iter(p, bufs[0], bufs[1], bufs[2])
			if err != nil {
				runErr = err
				return
			}
			durs = append(durs, float64(d))
		}
	})
	env.Run()
	if runErr != nil {
		return nil, runErr
	}
	return durs, nil
}

func meanStddev(xs []float64) (mean, sd float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var s2 float64
	for _, x := range xs {
		d := x - mean
		s2 += d * d
	}
	return mean, math.Sqrt(s2 / float64(len(xs)-1))
}
