// Package serve is an online inference-serving subsystem over the
// disaggregated GPU pool: a seeded open-loop request generator, an
// admission queue with pluggable batching policies (no-batch, fixed,
// continuous), and a slack-aware placer that maps tenants onto
// compose.System GPUs reached over fabric paths — optionally through the
// fault-tolerant remoting transport so fault schedules apply.
//
// The paper asks whether row-scale slack is tolerable for batch HPC jobs;
// this package asks the same question for the latency-sensitive serving
// load a production pool actually carries, where per-call slack lands on
// every request's critical path instead of being amortized by queue depth.
// Everything is deterministic: arrivals and token lengths come from salted
// math/rand/v2 PCG substreams, execution happens on the sim clock, and a
// sweep renders byte-identically under any worker count.
package serve

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/faults"
	"repro/internal/sim"
)

// Stream salts for seed-derived substreams (see the salt table in
// internal/faults/faults.go): one arrival and one token-length stream per
// tenant index.
const (
	saltArrival uint64 = 0x20000 // + tenant index
	saltTokens  uint64 = 0x21000 // + tenant index
)

// Tenant is one traffic source sharing the pool.
type Tenant struct {
	// Name labels the tenant in reports.
	Name string
	// Rate is the mean request arrival rate in requests/second. Arrivals
	// are open-loop Poisson: the next request is generated regardless of
	// whether earlier ones have completed.
	Rate float64
	// MeanPromptTokens and MeanOutputTokens parameterize the (exponential)
	// token-length draws.
	MeanPromptTokens int
	MeanOutputTokens int
	// SLO is the per-request latency objective; completions within it
	// count toward goodput.
	SLO sim.Duration
	// Priority orders tenants under degraded capacity: when the admission
	// gate must shed, higher values degrade first. Zero (the default) is
	// the most protected class; negative priorities are invalid.
	Priority int
}

func (t Tenant) validate() error {
	if t.Name == "" {
		return fmt.Errorf("serve: tenant with empty name")
	}
	if t.Priority < 0 {
		return fmt.Errorf("serve: tenant %s priority %d must be >= 0", t.Name, t.Priority)
	}
	if !(t.Rate > 0) || math.IsInf(t.Rate, 1) {
		return fmt.Errorf("serve: tenant %s rate %g must be finite and positive", t.Name, t.Rate)
	}
	if t.MeanPromptTokens < 1 || t.MeanOutputTokens < 1 {
		return fmt.Errorf("serve: tenant %s token means must be >= 1", t.Name)
	}
	if t.SLO <= 0 {
		return fmt.Errorf("serve: tenant %s SLO must be positive", t.Name)
	}
	return nil
}

// Request is one inference request in the generated schedule.
type Request struct {
	// ID is the request's position in global arrival order.
	ID int
	// Tenant indexes into the tenant list the schedule was built from.
	Tenant int
	// Arrival is when the request enters the admission queue.
	Arrival sim.Time
	// PromptTokens is the prompt length processed by the prefill pass;
	// OutputTokens is the number of autoregressive decode steps.
	PromptTokens int
	OutputTokens int
}

// Generate builds the open-loop request schedule for a serving window:
// per-tenant Poisson arrivals with exponential token-length draws, each
// tenant on its own pair of salted PCG substreams so adding a tenant (or
// reordering the slice) never perturbs another tenant's schedule. The
// result is in arrival order (ties broken by tenant index, then
// per-tenant sequence) with IDs assigned in that order — the same bytes
// for the same (tenants, window, seed) on every run and worker count.
//
// Each tenant's arrivals are drawn in order, so the schedule is a merge
// of the tenants' streams, one request of lookahead each: the earliest
// lookahead is emitted next, the lowest tenant index on a tie.
func Generate(tenants []Tenant, window sim.Duration, seed int64) ([]Request, error) {
	if window <= 0 {
		return nil, fmt.Errorf("serve: window %v must be positive", window)
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("serve: no tenants")
	}
	if len(tenants) > faults.SaltBlock {
		return nil, fmt.Errorf("serve: %d tenants exceeds the salt block (%d)", len(tenants), faults.SaltBlock)
	}
	var expect float64
	for _, t := range tenants {
		if err := t.validate(); err != nil {
			return nil, err
		}
		expect += t.Rate * float64(window)
	}
	// The schedule size is Poisson with mean expect: four standard
	// deviations and a seat per tenant of headroom make a regrowth rare
	// (capped — a mis-sized config should not reserve gigabytes up front).
	size := expect + 4*math.Sqrt(expect)
	if size > 1<<20 {
		size = 1 << 20
	}
	reqs := make([]Request, 0, int(size)+len(tenants))
	streams := make([]arrivalStream, len(tenants))
	end := sim.Time(0).Add(window)
	for ti := range streams {
		streams[ti].start(tenants[ti], ti, end, seed)
	}
	for {
		next := -1
		for i := range streams {
			if s := &streams[i]; s.more && (next == -1 || s.next.Arrival < streams[next].next.Arrival) {
				next = i
			}
		}
		if next == -1 {
			return reqs, nil
		}
		s := &streams[next]
		r := s.next
		r.ID = len(reqs)
		reqs = append(reqs, r)
		s.advance()
	}
}

// arrivalStream is one tenant's arrivals drawn lazily, one request of
// lookahead at a time, from the tenant's arrival and token substreams.
type arrivalStream struct {
	arrSrc, tokSrc rand.PCG
	arr, tok       rand.Rand

	t   Tenant
	ti  int
	end sim.Time
	// next is the lookahead, valid while more is set; its arrival is the
	// last one drawn (zero before the first).
	next Request
	more bool
}

// start seeds the tenant's substreams and draws its first request.
func (s *arrivalStream) start(t Tenant, ti int, end sim.Time, seed int64) {
	faults.SubstreamIn(&s.arr, &s.arrSrc, seed, saltArrival+uint64(ti))
	faults.SubstreamIn(&s.tok, &s.tokSrc, seed, saltTokens+uint64(ti))
	s.t, s.ti, s.end = t, ti, end
	s.advance()
}

// advance draws the next arrival into the lookahead, clearing more once
// it falls past the window's end.
func (s *arrivalStream) advance() {
	at := s.next.Arrival.Add(sim.Duration(s.arr.ExpFloat64() / s.t.Rate))
	if s.more = at.Sub(s.end) < 0; !s.more {
		return
	}
	s.next = Request{
		Tenant:       s.ti,
		Arrival:      at,
		PromptTokens: drawTokens(s.tok.ExpFloat64(), s.t.MeanPromptTokens),
		OutputTokens: drawTokens(s.tok.ExpFloat64(), s.t.MeanOutputTokens),
	}
}

// drawTokens turns a unit-mean exponential draw into a token count with
// mean roughly the configured mean, floored at one token and capped at
// 4× the mean so a single tail draw cannot dominate a serving window.
func drawTokens(u float64, mean int) int {
	n := 1 + int(u*float64(mean))
	if cap := 4 * mean; n > cap {
		n = cap
	}
	return n
}
