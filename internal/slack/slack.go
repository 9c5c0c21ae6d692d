// Package slack implements the paper's slack-injection method: an
// artificial delay added to every CUDA API call that requires host↔device
// communication, emulating the network latency a row-scale CDI deployment
// introduces between CPUs and disaggregated GPUs.
//
// The paper evaluates and rejects two injection mechanisms — hand-editing
// application sources (laborious, error-prone) and LD_PRELOAD shims (fail
// on statically linked binaries) — before settling on controlled injection
// inside a proxy application. This package provides the equivalent seam for
// the simulated stack: an Interposer registered on a cuda.Context delays
// every link-crossing call, with optional jitter and an optional
// per-symbol filter that mimics the LD_PRELOAD comparison experiment.
package slack

import (
	"math/rand/v2"

	"repro/internal/cuda"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// jitterSalt is this package's substream salt for jitter draws (see the
// salt table in internal/faults/faults.go).
const jitterSalt uint64 = 0x10010

// Injector delays CUDA API calls. It implements cuda.Interposer; register
// it with Context.Interpose. The zero value injects nothing.
type Injector struct {
	amount sim.Duration
	// jitterFrac, when positive, draws each delay uniformly from
	// amount × [1-jitterFrac, 1+jitterFrac].
	jitterFrac float64
	rng        *rand.Rand

	// symbols, when non-nil, restricts injection to exact API symbol names
	// (the LD_PRELOAD-style filter; incomplete coverage is precisely the
	// weakness the paper notes for that approach).
	symbols map[string]bool

	// observer, when set, is told about every injected delay (the trace
	// layer renders these as slack spans).
	observer func(name string, start, end sim.Time)

	delayedCalls int64
}

// Option configures an Injector.
type Option func(*Injector)

// WithJitter makes each injected delay uniform in amount×[1-f, 1+f],
// drawn from a salted PCG substream of seed so jitter draws can never
// alias another consumer of the same seed. f must be in [0, 1).
func WithJitter(f float64, seed int64) Option {
	if f < 0 || f >= 1 {
		panic("slack: jitter fraction must be in [0,1)")
	}
	return func(in *Injector) {
		in.jitterFrac = f
		in.rng = rand.New(rand.NewPCG(uint64(seed), jitterSalt))
	}
}

// WithObserver reports every injected delay to fn as a (call name, start,
// end) interval on the sim clock — the seam the trace layer uses to draw
// slack spans.
func WithObserver(fn func(name string, start, end sim.Time)) Option {
	return func(in *Injector) { in.observer = fn }
}

// WithSymbols restricts injection to calls whose API name is listed,
// emulating an LD_PRELOAD shim that wraps only those symbols.
func WithSymbols(names ...string) Option {
	return func(in *Injector) {
		in.symbols = make(map[string]bool, len(names))
		for _, n := range names {
			in.symbols[n] = true
		}
	}
}

// New returns an injector adding amount of slack after every link-crossing
// CUDA call, the paper's §III-C configuration.
func New(amount sim.Duration, opts ...Option) *Injector {
	if amount < 0 {
		panic("slack: negative slack amount")
	}
	in := &Injector{amount: amount}
	for _, o := range opts {
		o(in)
	}
	return in
}

// FromPath returns an injector whose slack equals the one-way latency of a
// fabric path — slack as a deployment would actually experience it.
func FromPath(p fabric.Path, opts ...Option) *Injector {
	return New(fabric.SlackForPath(p), opts...)
}

// SetAmount changes the per-call slack; setting 0 disables injection
// (baseline runs reuse the same wiring).
func (in *Injector) SetAmount(d sim.Duration) {
	if d < 0 {
		panic("slack: negative slack amount")
	}
	in.amount = d
}

// DelayedCalls returns how many calls have been delayed — the
// num_CUDAcalls term of Equation 1.
func (in *Injector) DelayedCalls() int64 { return in.delayedCalls }

// Reset zeroes the call counters (between baseline and slack runs).
func (in *Injector) Reset() {
	in.delayedCalls = 0
}

// applies reports whether this call should be delayed.
func (in *Injector) applies(info cuda.CallInfo) bool {
	if in.amount <= 0 {
		return false
	}
	if in.symbols != nil && !in.symbols[info.Name] {
		return false
	}
	return info.Class.CrossesLink()
}

// Before implements cuda.Interposer; slack is injected after calls (the
// paper inserts the sleep "after every CUDA API call"), so Before is a
// no-op.
func (in *Injector) Before(p *sim.Proc, info cuda.CallInfo) {}

// After injects the delay.
func (in *Injector) After(p *sim.Proc, info cuda.CallInfo) {
	if !in.applies(info) {
		return
	}
	d := in.amount
	if in.jitterFrac > 0 {
		u := 1 + in.jitterFrac*(2*in.rng.Float64()-1)
		d = sim.Duration(float64(d) * u)
	}
	start := p.Now()
	p.Sleep(d)
	in.delayedCalls++
	if in.observer != nil {
		in.observer(info.Name, start, p.Now())
	}
}

var _ cuda.Interposer = (*Injector)(nil)

// NoSlackTime applies Equation 1: measured time minus the delay injected
// directly into the serial path (calls × perCall).
func NoSlackTime(measured sim.Duration, calls int64, perCall sim.Duration) sim.Duration {
	if calls < 0 || perCall < 0 {
		panic("slack: negative slack accounting")
	}
	return measured - sim.Duration(calls)*perCall
}

// Penalty is Equation 1 over the zero-slack baseline, with its sign:
// NoSlackTime/baseline − 1. It is negative when work off the serial path
// hid some of the delays, so the subtraction removed more than they cost.
func Penalty(measured, baseline sim.Duration, calls int64, perCall sim.Duration) float64 {
	return float64(NoSlackTime(measured, calls, perCall))/float64(baseline) - 1
}

// ClampPenalty reads a negative penalty as zero, the pessimistic reading of
// a residual the study treats as a starvation cost. It is the only clamp.
func ClampPenalty(p float64) float64 {
	if p < 0 {
		return 0
	}
	return p
}
