package serve

import (
	"math"
	"sort"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
)

// generateSorted is the reference generator Generate's merge replaced: it
// draws every tenant's schedule in turn, sorts the lot by (arrival,
// tenant, per-tenant sequence) and numbers it in that order.
func generateSorted(tenants []Tenant, window sim.Duration, seed int64) ([]Request, error) {
	type keyed struct {
		req Request
		seq int
	}
	var all []keyed
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

// TestGenerateMatchesSortedReference: the merged generator emits exactly
// the sorted reference's schedule, field for field, for one, two and five
// tenants over fifty seeds.
func TestGenerateMatchesSortedReference(t *testing.T) {
	five := append(testTenants(),
		Tenant{Name: "extra", Rate: 20, MeanPromptTokens: 16, MeanOutputTokens: 4, SLO: sim.Second},
		Tenant{Name: "burst", Rate: 300, MeanPromptTokens: 8, MeanOutputTokens: 2, SLO: 10 * sim.Millisecond, Priority: 1},
		Tenant{Name: "trickle", Rate: 3, MeanPromptTokens: 128, MeanOutputTokens: 32, SLO: 2 * sim.Second, Priority: 2},
	)
	mixes := [][]Tenant{five[:1], five[:2], five}
	for _, tenants := range mixes {
		for seed := int64(1); seed <= 50; seed++ {
			got, err := Generate(tenants, testWindow, seed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := generateSorted(tenants, testWindow, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d tenants, seed %d: %d requests, reference has %d", len(tenants), seed, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%d tenants, seed %d: request %d = %+v, reference %+v", len(tenants), seed, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGenerateRejectsFirstInvalidTenant: every tenant is validated before
// the first draw, and the error names the first invalid one.
func TestGenerateRejectsFirstInvalidTenant(t *testing.T) {
	tenants := append(testTenants(),
		Tenant{Name: "norate", MeanPromptTokens: 8, MeanOutputTokens: 4, SLO: sim.Second},
		Tenant{Name: "", Rate: 1, MeanPromptTokens: 8, MeanOutputTokens: 4, SLO: sim.Second},
	)
	_, err := Generate(tenants, testWindow, 1)
	_, want := generateSorted(tenants, testWindow, 1)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("Generate error %v, want %v", err, want)
	}
}

// TestGenerateRejectsNonFiniteRate: a NaN rate would end a tenant's
// schedule at its first draw and an infinite one would never advance its
// clock, so both are rejected before any draw.
func TestGenerateRejectsNonFiniteRate(t *testing.T) {
	for _, rate := range []float64{math.NaN(), math.Inf(1)} {
		tenants := []Tenant{{Name: "bad", Rate: rate, MeanPromptTokens: 8, MeanOutputTokens: 4, SLO: sim.Second}}
		if _, err := Generate(tenants, testWindow, 1); err == nil {
			t.Errorf("rate %v accepted", rate)
		}
	}
}

// TestGenerateAllocations: the schedule and the tenants' streams are the
// only allocations — two for the benchmark's two tenants over 5 s.
func TestGenerateAllocations(t *testing.T) {
	tenants := testTenants()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Generate(tenants, 5*sim.Second, 7); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Generate allocates %v times, want at most 2", allocs)
	}
}
