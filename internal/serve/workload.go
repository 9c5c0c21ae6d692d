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
	"sort"

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
	if t.Rate <= 0 {
		return fmt.Errorf("serve: tenant %s rate %g must be positive", t.Name, t.Rate)
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
// result is sorted by arrival time (ties broken by tenant index, then
// per-tenant sequence) with IDs assigned in that order — the same bytes
// for the same (tenants, window, seed) on every run and worker count.
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
	type keyed struct {
		req Request
		seq int
	}
	// Expected schedule size is sum(rate·window); preallocate with a seat
	// per tenant of headroom (capped — a mis-sized config should not
	// reserve gigabytes up front).
	var expect float64
	for _, t := range tenants {
		if t.Rate > 0 {
			expect += t.Rate * float64(window)
		}
	}
	if expect > 1<<20 {
		expect = 1 << 20
	}
	all := make([]keyed, 0, int(expect)+len(tenants))
	end := sim.Time(0).Add(window)
	for ti, t := range tenants {
		if err := t.validate(); err != nil {
			return nil, err
		}
		arr := faults.Substream(seed, saltArrival+uint64(ti))
		tok := faults.Substream(seed, saltTokens+uint64(ti))
		now := sim.Time(0)
		for seq := 0; ; seq++ {
			now = now.Add(sim.Duration(arr.ExpFloat64() / t.Rate))
			if now.Sub(end) >= 0 {
				break
			}
			all = append(all, keyed{
				req: Request{
					Tenant:       ti,
					Arrival:      now,
					PromptTokens: drawTokens(tok.ExpFloat64(), t.MeanPromptTokens),
					OutputTokens: drawTokens(tok.ExpFloat64(), t.MeanOutputTokens),
				},
				seq: seq,
			})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.req.Arrival < b.req.Arrival {
			return true
		}
		if b.req.Arrival < a.req.Arrival {
			return false
		}
		if a.req.Tenant != b.req.Tenant {
			return a.req.Tenant < b.req.Tenant
		}
		return a.seq < b.seq
	})
	reqs := make([]Request, len(all))
	for i, k := range all {
		k.req.ID = i
		reqs[i] = k.req
	}
	return reqs, nil
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
