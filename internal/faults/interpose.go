package faults

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/cuda"
	"repro/internal/sim"
)

// Policy is the client-side resilience discipline applied per call:
// deadline, bounded retries with exponential backoff and seeded jitter,
// a consecutive-timeout circuit breaker, and failover cost. It is shared
// by the resilient remoting transport (package remoting) and the
// application-level CallInjector below, so the proxy and the real
// applications see the same arithmetic.
type Policy struct {
	// CallTimeout is the per-attempt deadline beyond the nominal response
	// time; an attempt whose response is not in by then counts as a
	// timeout. In remoting.Resilient the nominal response time is wire
	// time plus ServerOverhead, not the call's execution, so a call that
	// runs longer than CallTimeout fails over even with no fault active.
	CallTimeout sim.Duration
	// MaxRetries bounds retries per call (after the first attempt) before
	// failing over.
	MaxRetries int
	// BackoffBase is the pause before the first retry; retry k waits
	// base × 2^(k−1).
	BackoffBase sim.Duration
	// JitterFrac widens each backoff by a uniform ±fraction drawn from a
	// seeded stream, de-synchronizing retry storms deterministically.
	JitterFrac float64
	// BreakerThreshold trips the circuit breaker after this many
	// consecutive timeouts.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped (open) breaker waits before
	// letting one half-open probe attempt through. A probe that succeeds
	// closes the breaker on the same server — transient fault windows that
	// end during the cooldown cost no failover — while a probe that fails
	// re-opens it and forces failover. Zero takes the default
	// (4 × CallTimeout); negative means probe immediately with no pause.
	// The application-level CallInjector ignores it and keeps the
	// trip-straight-to-failover discipline.
	BreakerCooldown sim.Duration
	// FailoverPenalty is the control-plane cost of re-attaching to a
	// standby (or degrading to node-local execution): discovery,
	// handshake, context re-creation. State re-upload is charged
	// separately by the transport as DMA replays.
	FailoverPenalty sim.Duration
}

// WithDefaults fills unset (zero) fields with the defaults used across
// the resilience experiments; negative durations mean "disabled" and are
// normalized to zero.
func (p Policy) WithDefaults() Policy {
	if p.CallTimeout == 0 {
		p.CallTimeout = 200 * sim.Microsecond
	}
	if p.MaxRetries == 0 {
		p.MaxRetries = 3
	}
	if p.BackoffBase == 0 {
		p.BackoffBase = 20 * sim.Microsecond
	}
	if p.JitterFrac == 0 {
		p.JitterFrac = 0.1
	}
	if p.BreakerThreshold == 0 {
		p.BreakerThreshold = 4
	}
	if p.BreakerCooldown == 0 {
		p.BreakerCooldown = 4 * p.CallTimeout
	}
	if p.FailoverPenalty == 0 {
		p.FailoverPenalty = 5 * sim.Millisecond
	}
	for _, d := range []*sim.Duration{&p.CallTimeout, &p.BackoffBase, &p.FailoverPenalty, &p.BreakerCooldown} {
		if *d < 0 {
			*d = 0
		}
	}
	if p.JitterFrac < 0 {
		p.JitterFrac = 0
	}
	if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
	return p
}

// Backoff returns the deterministic pause before retry k (k ≥ 1).
func (p Policy) Backoff(k int, jitter *rand.Rand) sim.Duration {
	d := float64(p.BackoffBase)
	for i := 1; i < k; i++ {
		d *= 2
	}
	if p.JitterFrac > 0 && jitter != nil {
		d *= 1 + p.JitterFrac*(2*jitter.Float64()-1)
	}
	return sim.Duration(d)
}

// CallStats aggregates what the resilience policy did to a run's calls.
type CallStats struct {
	// Retries, Timeouts and Failovers count policy actions.
	Retries   int64
	Timeouts  int64
	Failovers int64
	// DegradedToLocal records that every remote died and the workload
	// fell back to node-local execution.
	DegradedToLocal bool
}

// CallInjector is a cuda.Interposer that models, at the injection seam the
// paper's method uses, what a resilient remoting transport adds to each
// link-crossing call under a fault schedule: stall waits, lost-message
// timeouts, retries with exponential backoff, circuit-breaker failover to
// standbys, and eventual degradation to node-local execution.
//
// It complements slack.Injector rather than replacing it: the slack
// injector keeps charging the nominal per-call slack (so Equation 1
// applies unchanged), while the CallInjector charges only the
// fault-induced excess. At zero fault intensity it therefore adds exactly
// nothing and the run reproduces the fault-free measurement bit for bit.
//
// One CallInjector is shared by all ranks of a run — they share one
// host↔chassis fabric — which is safe because the simulation executes one
// process at a time.
type CallInjector struct {
	inj      *Injector
	pol      Policy
	jitter   *rand.Rand
	standbys int

	active         int
	degraded       bool
	consecTimeouts int
	stats          CallStats
}

// NewCallInjector builds the interposer: cfg is the fault schedule, pol
// the retry/failover policy (zero fields take defaults), standbys the
// number of standby GPU servers available for failover.
func NewCallInjector(cfg Config, pol Policy, standbys int) (*CallInjector, error) {
	if standbys < 0 {
		return nil, fmt.Errorf("faults: negative standby count %d", standbys)
	}
	inj, err := NewInjector(cfg)
	if err != nil {
		return nil, err
	}
	return &CallInjector{
		inj:      inj,
		pol:      pol.WithDefaults(),
		jitter:   Substream(cfg.Seed, saltJitter),
		standbys: standbys,
	}, nil
}

// saltJitter seeds the backoff-jitter stream (see the salt table in
// faults.go).
const saltJitter uint64 = 0x04

// Stats returns a snapshot of the policy actions so far.
func (f *CallInjector) Stats() CallStats { return f.stats }

// Before implements cuda.Interposer.
func (f *CallInjector) Before(p *sim.Proc, info cuda.CallInfo) {}

// After implements cuda.Interposer: it walks the call through the
// resilience policy, sleeping for whatever fault handling would have
// added beyond the nominal slack.
func (f *CallInjector) After(p *sim.Proc, info cuda.CallInfo) {
	if f.degraded || !info.Class.CrossesLink() || !f.inj.cfg.Enabled() {
		return
	}
	retries := 0
	for {
		if f.attempt(p) {
			f.consecTimeouts = 0
			break
		}
		f.stats.Timeouts++
		f.consecTimeouts++
		tripped := f.pol.BreakerThreshold > 0 && f.consecTimeouts >= f.pol.BreakerThreshold
		if tripped || retries >= f.pol.MaxRetries {
			f.failover(p)
			if f.degraded {
				break
			}
			retries = 0
			continue
		}
		retries++
		f.stats.Retries++
		p.Sleep(f.pol.Backoff(retries, f.jitter))
	}
}

// attempt plays one request/response exchange against the fault schedule,
// sleeping for any survivable delay. It reports whether a response beat
// the deadline; a failed attempt has already slept the full deadline.
func (f *CallInjector) attempt(p *sim.Proc) bool {
	now := p.Now()
	if down, _ := f.inj.LinkDown(now); down {
		p.Sleep(f.pol.CallTimeout)
		return false
	}
	if f.inj.DropsMessage() { // request lost
		p.Sleep(f.pol.CallTimeout)
		return false
	}
	var stallWait sim.Duration
	state, until := f.inj.Server(f.active).StateAt(now)
	switch state {
	case Crashed:
		p.Sleep(f.pol.CallTimeout)
		return false
	case Stalled:
		stallWait = until.Sub(now)
		if stallWait > f.pol.CallTimeout {
			p.Sleep(f.pol.CallTimeout)
			return false
		}
		p.Sleep(stallWait)
	}
	if f.inj.DropsMessage() { // response lost
		p.Sleep(f.pol.CallTimeout - stallWait)
		return false
	}
	return true
}

// failover re-attaches to the next standby, or degrades to node-local
// execution once none remain; either way the control-plane penalty is
// paid here (the transport-level twin additionally replays device state).
func (f *CallInjector) failover(p *sim.Proc) {
	f.stats.Failovers++
	f.consecTimeouts = 0
	p.Sleep(f.pol.FailoverPenalty)
	if f.active < f.standbys {
		f.active++
		return
	}
	f.degraded = true
	f.stats.DegradedToLocal = true
}
