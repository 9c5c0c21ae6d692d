// Package remoting implements a GPU API-remoting layer in the style of
// rCUDA (Duato et al., cited by the paper as related work): every CUDA
// call is forwarded from the host to a remote GPU server across the
// network fabric as a request/response exchange.
//
// The paper rejects remoting as an instrument for slack studies because it
// "doesn't allow for a granular level of control over the network delays
// experienced": the delay per call depends on hop counts, payload
// serialization, and uncontrollable network noise. This package exists to
// demonstrate exactly that — the Resilient transport genuinely routes every
// call through a fabric path (with optional noise), so Compare can set its
// *measured* behaviour against the slack injector's *controlled* behaviour
// and quantify the variance the paper worried about. The same transport,
// under a fault schedule, carries the serving and churn experiments.
package remoting

import (
	"fmt"
	"math"

	"repro/internal/cuda"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/proxy"
	"repro/internal/sim"
	"repro/internal/slack"
	"repro/internal/stats"
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
	// (request decode, API dispatch); zero selects DefaultServerOverhead.
	ServerOverhead sim.Duration
}

// DefaultServerOverhead is the server's per-call cost used when Config
// leaves ServerOverhead zero.
const DefaultServerOverhead = 2 * sim.Microsecond

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

// CompareResult contrasts remoting against controlled injection for the
// same nominal slack.
type CompareResult struct {
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
	matBytes := gpu.MatrixBytes(matrixSize)
	kernel := gpu.MatMul(matrixSize)

	// Arm 1: genuine remoting across the fabric, on the resilient
	// transport with no faults. Its deadline is unbounded because
	// Resilient's per-attempt deadline covers wire time and server
	// overhead but not execution: under the default allowance a large
	// kernel outlasts it, and the call times out and fails over even
	// though no fault is active.
	env := sim.NewEnv()
	defer env.Close()
	r, err := NewResilient(env, gpu.A100(), ResilientConfig{
		Config: cfg,
		Policy: faults.Policy{CallTimeout: sim.Duration(math.Inf(1))},
	})
	if err != nil {
		return CompareResult{}, err
	}
	remoted, err := proxyLoop(env, r, n, matBytes, kernel)
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
	injected, err := proxyLoop(ienv, proxy.Local{Context: ictx}, n, matBytes, kernel)
	if err != nil {
		return CompareResult{}, err
	}

	// A single iteration has no spread (stats.Stddev would say NaN).
	var rSD, iSD float64
	if n > 1 {
		rSD, iSD = stats.Stddev(remoted), stats.Stddev(injected)
	}
	return CompareResult{
		NominalSlack:   cfg.Path.Latency(),
		RemotedMean:    sim.Duration(stats.Mean(remoted)),
		RemotedStddev:  sim.Duration(rSD),
		InjectedMean:   sim.Duration(stats.Mean(injected)),
		InjectedStddev: sim.Duration(iSD),
		MeanCallDelay:  r.MeanCallDelay(),
	}, nil
}

// proxyLoop allocates the proxy's matrices on rt and times n iterations
// of its loop inside env, returning the per-iteration durations.
func proxyLoop(env *sim.Env, rt proxy.Runtime, n int, matBytes int64, kernel gpu.Kernel) ([]float64, error) {
	var durs []float64
	var runErr error
	env.Spawn("host", func(p *sim.Proc) {
		m, err := proxy.Alloc(p, rt, matBytes)
		if err != nil {
			runErr = err
			return
		}
		for i := 0; i < n; i++ {
			start := p.Now()
			if err := m.Iterate(p, rt, kernel); err != nil {
				runErr = err
				return
			}
			durs = append(durs, float64(p.Now().Sub(start)))
		}
	})
	env.Run()
	if runErr != nil {
		return nil, runErr
	}
	return durs, nil
}
