package serve

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/compose"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// Tier is one slice of the disaggregated pool: GPUs reachable at a given
// composition scale.
type Tier struct {
	Scale fabric.Scale
	// Km is the fibre distance for the scale's preset path (0 = preset
	// default).
	Km float64
	// GPUs is how many replicas this tier contributes.
	GPUs int
}

// Replica is one placed GPU serving a set of tenants.
type Replica struct {
	// Name is the compose allocation name.
	Name string
	// Tier and Path describe how the replica is reached; Slack is the
	// per-call slack the composition reports for that path.
	Tier  fabric.Scale
	Path  fabric.Path
	Slack sim.Duration
	// Tenants lists the tenant indices this replica serves.
	Tenants []int
}

// Place maps tenants onto a pool built from the given tiers, slack-aware:
// each tier becomes a compose.System whose GPUs are allocated one per
// replica (the allocation's Slack is the replica's slack), replicas are
// ordered by ascending slack, tenants by ascending SLO, and the
// tightest-SLO tenants are dealt onto the lowest-slack replicas first,
// wrapping round-robin once every replica has a tenant. The whole
// procedure is deterministic: ties break on declaration order.
func Place(tenants []Tenant, tiers []Tier) ([]Replica, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("serve: no tenants to place")
	}
	if len(tiers) == 0 {
		return nil, fmt.Errorf("serve: no pool tiers")
	}
	for _, t := range tenants {
		if err := t.validate(); err != nil {
			return nil, err
		}
	}
	total := 0
	for ti, tier := range tiers {
		if tier.GPUs <= 0 {
			return nil, fmt.Errorf("serve: tier %d (%v) has no GPUs", ti, tier.Scale)
		}
		total += tier.GPUs
	}
	replicas := make([]Replica, 0, total)
	for _, tier := range tiers {
		path := fabric.Preset(tier.Scale, tier.Km)
		sys, err := compose.NewCDI(tier.GPUs, 8, 1, tier.GPUs, path)
		if err != nil {
			return nil, err
		}
		prefix := "serve-" + tier.Scale.String() + "-"
		for g := 0; g < tier.GPUs; g++ {
			// Each replica owns a distinct name; the allocation is the
			// result itself, not transient scratch.
			name := prefix + strconv.Itoa(g)
			a, err := sys.Alloc(compose.Request{Name: name, Cores: 1, GPUs: 1})
			if err != nil {
				return nil, err
			}
			replicas = append(replicas, Replica{
				Name:  name,
				Tier:  tier.Scale,
				Path:  path,
				Slack: a.Slack,
			})
		}
	}
	// Lowest-slack replicas first; declaration order breaks ties.
	sort.SliceStable(replicas, func(i, j int) bool {
		return replicas[i].Slack < replicas[j].Slack
	})
	// Tightest SLOs first; declaration order breaks ties.
	order := make([]int, len(tenants))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return tenants[order[i]].SLO < tenants[order[j]].SLO
	})
	for k, ti := range order {
		r := &replicas[k%len(replicas)]
		r.Tenants = append(r.Tenants, ti)
	}
	return replicas, nil
}

// Rebalance re-deals tenants over the replicas the predicate reports up,
// in place, preserving Place's discipline: surviving replicas keep their
// slack order, tenants re-sort by ascending SLO, and the tightest SLOs
// land on the lowest-slack survivors first, wrapping round-robin. Down
// replicas keep their identity but lose their tenants, so a later
// Rebalance with every replica back up restores the original placement
// exactly. The control plane calls it when the pool registry drains or
// readmits a server.
func Rebalance(replicas []Replica, tenants []Tenant, up func(i int) bool) error {
	live := make([]int, 0, len(replicas))
	for i := range replicas {
		replicas[i].Tenants = replicas[i].Tenants[:0]
		if up(i) {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return fmt.Errorf("serve: rebalance with no live replicas")
	}
	// live is in slice order; Place already sorted the slice by slack, so
	// slack order survives the filter. Tenants re-sort by SLO as in Place.
	order := make([]int, len(tenants))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return tenants[order[i]].SLO < tenants[order[j]].SLO
	})
	for k, ti := range order {
		r := &replicas[live[k%len(live)]]
		r.Tenants = append(r.Tenants, ti)
	}
	return nil
}

// SplitRequests partitions a generated schedule by replica, preserving
// arrival order within each partition. Requests for tenants a replica does
// not serve go to the replica that does.
func SplitRequests(reqs []Request, replicas []Replica) [][]Request {
	owner := map[int]int{}
	for ri, r := range replicas {
		for _, ti := range r.Tenants {
			owner[ti] = ri
		}
	}
	out := make([][]Request, len(replicas))
	for _, q := range reqs {
		ri := owner[q.Tenant]
		out[ri] = append(out[ri], q)
	}
	return out
}
