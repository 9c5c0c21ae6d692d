package serve

import (
	"math"
	"testing"

	"repro/internal/cuda"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/remoting"
	"repro/internal/sim"
	"repro/internal/slack"
)

// testTenants is the two-tenant mix the engine tests serve.
func testTenants() []Tenant {
	return []Tenant{
		{Name: "chat", Rate: 100, MeanPromptTokens: 32, MeanOutputTokens: 8, SLO: 25 * sim.Millisecond},
		{Name: "batchapi", Rate: 60, MeanPromptTokens: 64, MeanOutputTokens: 12, SLO: 200 * sim.Millisecond},
	}
}

const testWindow = 500 * sim.Millisecond

func testSchedule(t *testing.T, seed int64) []Request {
	t.Helper()
	reqs, err := Generate(testTenants(), testWindow, seed)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(reqs) == 0 {
		t.Fatal("Generate produced no requests")
	}
	return reqs
}

// runLocal serves the schedule on a node-local A100 with an optional slack
// injector and returns the engine after the sim has drained.
func runLocal(t *testing.T, policy Policy, inj *slack.Injector, reqs []Request) *Engine {
	t.Helper()
	env := sim.NewEnv()
	defer env.Close()
	dev, err := gpu.NewDevice(env, gpu.A100())
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	ctx := cuda.NewContext(dev, cuda.Config{})
	if inj != nil {
		ctx.Interpose(inj)
	}
	e, err := Start(env, NewLocal(ctx), Config{Policy: policy, Tenants: testTenants()}, reqs)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	env.Run()
	if e.Err() != nil {
		t.Fatalf("engine error: %v", e.Err())
	}
	if e.Completed() != len(reqs) {
		t.Fatalf("completed %d of %d requests", e.Completed(), len(reqs))
	}
	return e
}

// TestStartRejectsBadArrivals: an arrival must be a finite, non-negative
// sim time, or the arrival chain could not schedule it.
func TestStartRejectsBadArrivals(t *testing.T) {
	cases := []struct {
		name string
		at   sim.Time
	}{
		{"NaN", sim.Time(math.NaN())},
		{"+Inf", sim.Time(math.Inf(1))},
		{"-Inf", sim.Time(math.Inf(-1))},
		{"negative", sim.Time(-1e-6)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := sim.NewEnv()
			defer env.Close()
			reqs := []Request{
				{ID: 0, Arrival: 0, PromptTokens: 8, OutputTokens: 1},
				{ID: 1, Arrival: c.at, PromptTokens: 8, OutputTokens: 1},
			}
			if _, err := Start(env, nil, Config{Tenants: testTenants()}, reqs); err == nil {
				t.Fatalf("arrival %v accepted", c.at)
			}
		})
	}
}

// TestStartSpawnsOnlyBatcher: arrivals are a callback chain, so an
// engine adds one process, the batcher.
func TestStartSpawnsOnlyBatcher(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	dev, err := gpu.NewDevice(env, gpu.A100())
	if err != nil {
		t.Fatal(err)
	}
	reqs := testSchedule(t, 1)
	before := env.Stats().Spawns
	e, err := Start(env, NewLocal(cuda.NewContext(dev, cuda.Config{})), Config{Policy: Continuous, Tenants: testTenants()}, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if n := env.Stats().Spawns - before; n != 1 {
		t.Fatalf("Start spawned %d processes, want 1", n)
	}
	env.Run()
	if e.Err() != nil || e.Completed() != len(reqs) {
		t.Fatalf("completed %d of %d requests, err %v", e.Completed(), len(reqs), e.Err())
	}
}

func TestGenerateDeterministicAndTenantIndependent(t *testing.T) {
	a := testSchedule(t, 11)
	b := testSchedule(t, 11)
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs across identical Generate calls: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Appending a tenant must not perturb existing tenants' schedules:
	// each tenant draws from its own salted substream.
	three := append(testTenants(), Tenant{Name: "extra", Rate: 20, MeanPromptTokens: 16, MeanOutputTokens: 4, SLO: sim.Second})
	c, err := Generate(three, testWindow, 11)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var kept []Request
	for _, r := range c {
		if r.Tenant < 2 {
			kept = append(kept, r)
		}
	}
	if len(kept) != len(a) {
		t.Fatalf("tenant 0/1 request count changed when tenant 2 was added: %d vs %d", len(kept), len(a))
	}
	for i := range kept {
		got, want := kept[i], a[i]
		// IDs shift when a third tenant interleaves; everything else must
		// be identical.
		got.ID, want.ID = 0, 0
		if got != want {
			t.Fatalf("request %d changed when tenant 2 was added: %+v vs %+v", i, got, want)
		}
	}
	// Different seeds must produce different schedules.
	d := testSchedule(t, 12)
	same := len(a) == len(d)
	if same {
		for i := range a {
			if a[i] != d[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 11 and 12 produced identical schedules")
	}
}

func TestZeroSlackArmEqualsNodeLocalBaseline(t *testing.T) {
	reqs := testSchedule(t, 21)
	for _, policy := range []Policy{NoBatch, FixedBatch, Continuous} {
		baseline := runLocal(t, policy, nil, reqs)
		zero := runLocal(t, policy, slack.New(0), reqs)
		bl, zl := baseline.Metrics().Latencies, zero.Metrics().Latencies
		if len(bl) != len(zl) {
			t.Fatalf("%v: completion counts differ: %d vs %d", policy, len(bl), len(zl))
		}
		for i := range bl {
			if bl[i] != zl[i] {
				t.Fatalf("%v: latency %d differs between zero-slack arm and baseline: %v vs %v",
					policy, i, zl[i], bl[i])
			}
		}
	}
}

func TestServeDeterministicReplay(t *testing.T) {
	reqs := testSchedule(t, 33)
	inj := func() *slack.Injector { return slack.New(100 * sim.Microsecond) }
	a := runLocal(t, Continuous, inj(), reqs)
	b := runLocal(t, Continuous, inj(), reqs)
	am, bm := a.Metrics(), b.Metrics()
	if len(am.Latencies) != len(bm.Latencies) || len(am.BatchSizes) != len(bm.BatchSizes) {
		t.Fatalf("replay shape differs: %d/%d latencies, %d/%d batches",
			len(am.Latencies), len(bm.Latencies), len(am.BatchSizes), len(bm.BatchSizes))
	}
	for i := range am.Latencies {
		if am.Latencies[i] != bm.Latencies[i] {
			t.Fatalf("latency %d differs across replays", i)
		}
	}
	for i := range am.BatchSizes {
		if am.BatchSizes[i] != bm.BatchSizes[i] {
			t.Fatalf("batch size %d differs across replays", i)
		}
	}
}

func TestP99MonotoneInSlack(t *testing.T) {
	reqs := testSchedule(t, 5)
	slacks := []sim.Duration{0, 100 * sim.Microsecond, sim.Millisecond}
	for _, policy := range []Policy{NoBatch, FixedBatch, Continuous} {
		var prev sim.Duration = -1
		for _, s := range slacks {
			e := runLocal(t, policy, slack.New(s), reqs)
			p99 := e.Metrics().Report(testWindow).P99
			if p99 < prev {
				t.Errorf("%v: p99 decreased from %v to %v as slack rose to %v", policy, prev, p99, s)
			}
			prev = p99
		}
	}
}

func TestBatchingRaisesThroughputUnderSlack(t *testing.T) {
	// The amortization argument: at 1 ms of per-call slack, continuous
	// batching must beat serial FCFS on tail latency, because FCFS pays
	// the slack per request per step while the batcher shares it.
	reqs := testSchedule(t, 9)
	nb := runLocal(t, NoBatch, slack.New(sim.Millisecond), reqs)
	ct := runLocal(t, Continuous, slack.New(sim.Millisecond), reqs)
	if nbP, ctP := nb.Metrics().Report(testWindow).P99, ct.Metrics().Report(testWindow).P99; ctP >= nbP {
		t.Errorf("continuous p99 %v not better than nobatch p99 %v under 1ms slack", ctP, nbP)
	}
}

func TestMetricsReport(t *testing.T) {
	reqs := testSchedule(t, 7)
	e := runLocal(t, Continuous, nil, reqs)
	m := e.Metrics()
	rep := m.Report(testWindow)
	if rep.Requests != len(reqs) || rep.Completed != len(reqs) {
		t.Fatalf("report counts %d/%d, want %d", rep.Requests, rep.Completed, len(reqs))
	}
	if !(rep.P50 <= rep.P95 && rep.P95 <= rep.P99 && rep.P99 <= rep.P999) {
		t.Errorf("quantiles not ordered: %v %v %v %v", rep.P50, rep.P95, rep.P99, rep.P999)
	}
	if rep.P50 <= 0 {
		t.Errorf("p50 %v not positive", rep.P50)
	}
	if len(m.Latencies) != len(reqs) {
		t.Errorf("latencies hold %d samples, want %d", len(m.Latencies), len(reqs))
	}
	if rep.SLOAttainment <= 0 || rep.SLOAttainment > 1 {
		t.Errorf("SLO attainment %v out of (0,1]", rep.SLOAttainment)
	}
	if rep.Goodput <= 0 {
		t.Errorf("goodput %v not positive", rep.Goodput)
	}
	if rep.MeanBatch < 1 || rep.MaxBatch > 8 {
		t.Errorf("batch stats out of range: mean %v max %v", rep.MeanBatch, rep.MaxBatch)
	}
}

func TestPlaceSlackAware(t *testing.T) {
	tenants := []Tenant{
		{Name: "t-loose", Rate: 10, MeanPromptTokens: 8, MeanOutputTokens: 4, SLO: sim.Second},
		{Name: "t-tight", Rate: 10, MeanPromptTokens: 8, MeanOutputTokens: 4, SLO: 5 * sim.Millisecond},
		{Name: "t-mid", Rate: 10, MeanPromptTokens: 8, MeanOutputTokens: 4, SLO: 50 * sim.Millisecond},
	}
	tiers := []Tier{
		{Scale: fabric.RowScale, GPUs: 2},
		{Scale: fabric.NodeLocal, GPUs: 1},
	}
	replicas, err := Place(tenants, tiers)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if len(replicas) != 3 {
		t.Fatalf("got %d replicas, want 3", len(replicas))
	}
	// Replicas come back sorted by ascending slack: node-local first.
	if replicas[0].Tier != fabric.NodeLocal || replicas[0].Slack != 0 {
		t.Fatalf("lowest-slack replica is %v with slack %v", replicas[0].Tier, replicas[0].Slack)
	}
	for i := 1; i < len(replicas); i++ {
		if replicas[i].Slack < replicas[i-1].Slack {
			t.Fatalf("replicas not sorted by slack: %v then %v", replicas[i-1].Slack, replicas[i].Slack)
		}
	}
	// The tightest-SLO tenant (index 1) lands on the node-local replica.
	if len(replicas[0].Tenants) != 1 || replicas[0].Tenants[0] != 1 {
		t.Fatalf("node-local replica serves %v, want [1]", replicas[0].Tenants)
	}
	// Every tenant is placed exactly once.
	seen := map[int]int{}
	for _, r := range replicas {
		for _, ti := range r.Tenants {
			seen[ti]++
		}
	}
	for ti := range tenants {
		if seen[ti] != 1 {
			t.Fatalf("tenant %d placed %d times", ti, seen[ti])
		}
	}
	// Row-scale slack matches the preset path's latency.
	rowSlack := fabric.SlackForPath(fabric.Preset(fabric.RowScale, 0))
	for _, r := range replicas[1:] {
		if r.Slack != rowSlack {
			t.Errorf("row replica slack %v, want %v", r.Slack, rowSlack)
		}
	}
}

func TestPoolServesAllTenantsAcrossReplicas(t *testing.T) {
	tenants := testTenants()
	tiers := []Tier{{Scale: fabric.NodeLocal, GPUs: 1}, {Scale: fabric.RowScale, GPUs: 1}}
	replicas, err := Place(tenants, tiers)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	reqs := testSchedule(t, 17)
	owner := map[int]int{}
	for ri, r := range replicas {
		for _, ti := range r.Tenants {
			owner[ti] = ri
		}
	}
	parts := make([][]Request, len(replicas))
	for _, q := range reqs {
		ri := owner[q.Tenant]
		parts[ri] = append(parts[ri], q)
	}
	env := sim.NewEnv()
	defer env.Close()
	engines := make([]*Engine, len(replicas))
	for i, rep := range replicas {
		dev, err := gpu.NewDevice(env, gpu.A100())
		if err != nil {
			t.Fatalf("NewDevice: %v", err)
		}
		ctx := cuda.NewContext(dev, cuda.Config{})
		ctx.Interpose(slack.FromPath(rep.Path))
		engines[i], err = Start(env, NewLocal(ctx), Config{Policy: Continuous, Tenants: tenants}, parts[i])
		if err != nil {
			t.Fatalf("Start replica %d: %v", i, err)
		}
	}
	env.Run()
	completed := 0
	for i, e := range engines {
		if e.Err() != nil {
			t.Fatalf("replica %d error: %v", i, e.Err())
		}
		completed += e.Completed()
	}
	if completed != len(reqs) {
		t.Fatalf("pool completed %d of %d", completed, len(reqs))
	}
}

func TestServeOverResilientTransport(t *testing.T) {
	tenants := []Tenant{{Name: "chat", Rate: 40, MeanPromptTokens: 16, MeanOutputTokens: 4, SLO: 100 * sim.Millisecond}}
	reqs, err := Generate(tenants, 200*sim.Millisecond, 3)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	path, err := fabric.PathForSlack(100 * sim.Microsecond)
	if err != nil {
		t.Fatalf("PathForSlack: %v", err)
	}
	run := func(intensity float64) (*Engine, remoting.Stats) {
		env := sim.NewEnv()
		defer env.Close()
		r, err := remoting.NewResilient(env, gpu.A100(), remoting.ResilientConfig{
			Config:   remoting.Config{Path: path, Seed: 99},
			Faults:   faults.AtIntensity(intensity, 99),
			Policy:   faults.Policy{CallTimeout: 200 * sim.Millisecond},
			Standbys: 1,
		})
		if err != nil {
			t.Fatalf("NewResilient: %v", err)
		}
		e, err := Start(env, NewRemote(r), Config{Policy: Continuous, Tenants: tenants}, reqs)
		if err != nil {
			t.Fatalf("Start: %v", err)
		}
		env.Run()
		if e.Err() != nil {
			t.Fatalf("engine error: %v", e.Err())
		}
		return e, r.Stats()
	}
	clean, cleanStats := run(0)
	if clean.Completed() != len(reqs) {
		t.Fatalf("completed %d of %d over clean resilient transport", clean.Completed(), len(reqs))
	}
	if cleanStats.Retries != 0 || cleanStats.Failovers != 0 {
		t.Fatalf("clean run took policy actions: %+v", cleanStats)
	}
	faulty, faultyStats := run(2)
	if faulty.Completed() != len(reqs) {
		t.Fatalf("completed %d of %d under faults", faulty.Completed(), len(reqs))
	}
	if faultyStats.Retries == 0 {
		t.Error("fault schedule at intensity 2 caused no retries")
	}
	// Faults only add latency.
	if faulty.Metrics().Report(0).P99 < clean.Metrics().Report(0).P99 {
		t.Error("p99 under faults is below the fault-free p99")
	}
	// Determinism: replay the faulty arm and compare latencies exactly.
	again, _ := run(2)
	fl, al := faulty.Metrics().Latencies, again.Metrics().Latencies
	if len(fl) != len(al) {
		t.Fatalf("faulty replay completion counts differ: %d vs %d", len(fl), len(al))
	}
	for i := range fl {
		if fl[i] != al[i] {
			t.Fatalf("faulty replay latency %d differs", i)
		}
	}
}
