package cdi

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/health"
	"repro/internal/pool"
	"repro/internal/remoting"
	"repro/internal/serve"
	"repro/internal/sim"
)

// benchTenants is the serving tenant mix the benchmark's serving cells use.
func benchTenants() []serve.Tenant {
	return []serve.Tenant{
		{Name: "chat", Rate: 100, MeanPromptTokens: 32, MeanOutputTokens: 8, SLO: 25 * sim.Millisecond},
		{Name: "batchapi", Rate: 60, MeanPromptTokens: 64, MeanOutputTokens: 12, SLO: 200 * sim.Millisecond},
	}
}

// churnCellStats runs one managed serve-churn cell of the benchmark at
// input seed 1 and returns its engine counters.
func churnCellStats(t *testing.T, sl, gap sim.Duration) sim.Stats {
	t.Helper()
	const window = 500 * sim.Millisecond
	tenants := benchTenants()
	tenants[1].Priority = 1
	reqs, err := serve.Generate(tenants, window, 42)
	if err != nil {
		t.Fatal(err)
	}
	path, err := fabric.PathForSlack(sl)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewEnv()
	defer env.Close()
	const fseed = 7001
	rp, err := remoting.NewResilient(env, gpu.A100(), remoting.ResilientConfig{
		Config: remoting.Config{Path: path, Seed: fseed},
		Faults: faults.Config{Seed: fseed, CrashAfter: gap, CrashFor: 40 * sim.Millisecond},
		Policy: faults.Policy{
			CallTimeout:      100 * sim.Millisecond,
			MaxRetries:       2,
			BreakerThreshold: 2,
			BreakerCooldown:  5 * sim.Millisecond,
		},
		Standbys:             3,
		DisableLocalFallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := health.Start(env, rp, rp.Injector(), health.Config{Seed: fseed, Horizon: 2 * window, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serve.Start(env, serve.NewRemote(rp), serve.Config{
		Policy:    serve.Continuous,
		Tenants:   tenants,
		Admission: serve.Admission{ShedExpired: true, MaxQueue: 64, Capacity: ctl},
	}, reqs); err != nil {
		t.Fatal(err)
	}
	env.Run()
	return env.Stats()
}

// poolCellStats runs the benchmark's first pool-8k cell (first fit, no
// defragmenter) at input seed 1 and returns its engine counters.
func poolCellStats(t *testing.T) sim.Stats {
	t.Helper()
	env := sim.NewEnv()
	defer env.Close()
	if _, err := pool.Start(env, pool.Config{
		Topo:   pool.DefaultTopology(),
		Policy: pool.FirstFit,
		Workload: pool.Workload{
			Seed:      9003,
			Window:    500 * sim.Millisecond,
			Load:      0.95,
			Intensity: 1,
		},
		Serving:     benchTenants(),
		ServingGPUs: 16,
	}); err != nil {
		t.Fatal(err)
	}
	env.Run()
	return env.Stats()
}

// TestEngineStatsPinned pins every engine counter of the benchmark's four
// serve-churn cells (input 0: 2,082 spawns on 12 coroutines) and its first
// pool-8k cell. Reusing Procs, events and remoting attempt states, or
// moving events between the queue's tiers, changes what is allocated,
// never which events are scheduled or delivered, so a host-side engine
// change must keep these counts. Figure 2's switch-heavy cell (box 120, 24
// ranks) is pinned the same way beside lammps.RunPerf, whose Env only a
// test inside that package can reach.
func TestEngineStatsPinned(t *testing.T) {
	churn := []struct {
		slack, gap sim.Duration
		want       sim.Stats
	}{
		{0, 120 * sim.Millisecond, sim.Stats{Scheduled: 26564, Delivered: 25863, Cancelled: 701, Callbacks: 17008,
			Spawns: 706, Goroutines: 3, SelfWakes: 6969, Switches: 1886, PeakPending: 242}},
		{0, 60 * sim.Millisecond, sim.Stats{Scheduled: 24828, Delivered: 24295, Cancelled: 533, Callbacks: 16802,
			Spawns: 541, Goroutines: 3, SelfWakes: 6042, Switches: 1451, PeakPending: 265}},
		{100 * sim.Microsecond, 120 * sim.Millisecond, sim.Stats{Scheduled: 29980, Delivered: 29469, Cancelled: 511, Callbacks: 21961,
			Spawns: 516, Goroutines: 3, SelfWakes: 5188, Switches: 2320, PeakPending: 185}},
		{100 * sim.Microsecond, 60 * sim.Millisecond, sim.Stats{Scheduled: 27020, Delivered: 26710, Cancelled: 310, Callbacks: 20831,
			Spawns: 319, Goroutines: 3, SelfWakes: 4455, Switches: 1424, PeakPending: 136}},
	}
	for _, c := range churn {
		if got := churnCellStats(t, c.slack, c.gap); got != c.want {
			t.Errorf("serve-churn cell slack %v gap %v: %+v, want %+v", c.slack, c.gap, got, c.want)
		}
	}
	want := sim.Stats{Scheduled: 36541, Delivered: 28892, Cancelled: 7649, Callbacks: 10674,
		Spawns: 1, Goroutines: 1, SelfWakes: 18217, Switches: 1, PeakPending: 3149}
	if got := poolCellStats(t); got != want {
		t.Errorf("pool-8k first-fit cell: %+v, want %+v", got, want)
	}
}
