package sched

import (
	"testing"

	"repro/internal/compose"
	"repro/internal/sim"
)

func mustTraditional(t *testing.T, nodes, cores, gpus int) *compose.System {
	t.Helper()
	s, err := compose.NewTraditional(nodes, cores, gpus)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustMix(t *testing.T, n, coresPerNode int, seed int64) []Job {
	t.Helper()
	jobs, err := WorkloadMix(n, coresPerNode, seed)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func TestSingleJobRunsImmediately(t *testing.T) {
	s := mustTraditional(t, 2, 24, 2)
	jobs := []Job{{
		Name: "a", Arrival: 0, Duration: 1 * sim.Minute,
		Req: compose.Request{Name: "a", Cores: 24, GPUs: 1},
	}}
	res, err := Run(s, jobs, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Wait != 0 {
		t.Errorf("wait = %v", res.Jobs[0].Wait)
	}
	if res.Makespan != 1*sim.Minute {
		t.Errorf("makespan = %v", res.Makespan)
	}
	if rejected(res) != 0 {
		t.Errorf("rejected = %d", rejected(res))
	}
	if res.GPUEnergyWh <= 0 {
		t.Errorf("energy = %v", res.GPUEnergyWh)
	}
}

func TestQueueingWhenFull(t *testing.T) {
	s := mustTraditional(t, 1, 24, 1)
	req := compose.Request{Cores: 24}
	jobs := []Job{
		{Name: "a", Arrival: 0, Duration: 10 * sim.Minute, Req: named(req, "a")},
		{Name: "b", Arrival: 0, Duration: 10 * sim.Minute, Req: named(req, "b")},
	}
	res, err := Run(s, jobs, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 20*sim.Minute {
		t.Errorf("makespan = %v, want 20m (serialized)", res.Makespan)
	}
	if res.MaxWait != 10*sim.Minute {
		t.Errorf("max wait = %v", res.MaxWait)
	}
	if res.MeanWait != 5*sim.Minute {
		t.Errorf("mean wait = %v", res.MeanWait)
	}
}

func TestFCFSHeadOfLineBlocking(t *testing.T) {
	// Machine: 2 nodes. Job a holds 1 node; job b wants 2 (blocked);
	// job c wants 1 and COULD run, but FCFS keeps it behind b.
	s := mustTraditional(t, 2, 8, 0)
	jobs := []Job{
		{Name: "a", Arrival: 0, Duration: 10 * sim.Minute, Req: compose.Request{Name: "a", Cores: 8}},
		{Name: "b", Arrival: sim.Time(60), Duration: 10 * sim.Minute, Req: compose.Request{Name: "b", Cores: 16}},
		{Name: "c", Arrival: sim.Time(120), Duration: 1 * sim.Minute, Req: compose.Request{Name: "c", Cores: 8}},
	}
	fcfs, err := Run(s, jobs, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	var cF, cB JobStats
	for _, j := range fcfs.Jobs {
		if j.Name == "c" {
			cF = j
		}
	}
	s2 := mustTraditional(t, 2, 8, 0)
	back, err := Run(s2, jobs, Backfill)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range back.Jobs {
		if j.Name == "c" {
			cB = j
		}
	}
	if cB.Started >= cF.Started {
		t.Errorf("backfill did not start c earlier: %v vs %v", cB.Started, cF.Started)
	}
	if back.Makespan > fcfs.Makespan {
		t.Errorf("backfill makespan %v worse than FCFS %v", back.Makespan, fcfs.Makespan)
	}
}

func TestImpossibleJobRejected(t *testing.T) {
	s := mustTraditional(t, 1, 8, 1)
	jobs := []Job{
		{Name: "huge", Arrival: 0, Duration: 1 * sim.Minute, Req: compose.Request{Name: "huge", Cores: 1000}},
		{Name: "ok", Arrival: 0, Duration: 1 * sim.Minute, Req: compose.Request{Name: "ok", Cores: 8}},
	}
	res, err := Run(s, jobs, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if rejected(res) != 1 {
		t.Fatalf("rejected = %d", rejected(res))
	}
	for _, j := range res.Jobs {
		if j.Name == "huge" && !j.Rejected {
			t.Error("huge job not marked rejected")
		}
		if j.Name == "ok" && j.Rejected {
			t.Error("ok job rejected")
		}
	}
}

func TestJobValidation(t *testing.T) {
	s := mustTraditional(t, 1, 8, 0)
	if _, err := Run(s, []Job{{Name: "x", Duration: 0, Req: compose.Request{Name: "x", Cores: 1}}}, FCFS); err == nil {
		t.Error("zero-duration job accepted")
	}
	if _, err := Run(s, []Job{{Name: "x", Arrival: -1, Duration: 1, Req: compose.Request{Name: "x", Cores: 1}}}, FCFS); err == nil {
		t.Error("negative arrival accepted")
	}
}

func TestWorkloadMixDeterministicAndValid(t *testing.T) {
	a := mustMix(t, 30, 24, 7)
	b := mustMix(t, 30, 24, 7)
	if len(a) != 30 {
		t.Fatalf("jobs = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("mix nondeterministic")
		}
		if err := a[i].validate(); err != nil {
			t.Fatal(err)
		}
		if a[i].Req.Cores <= 0 && a[i].Req.GPUs <= 0 {
			t.Fatalf("empty request in mix: %+v", a[i])
		}
	}
}

func TestCompareCDIWinsOnMixedWorkload(t *testing.T) {
	// The paper's system-level claims: composable allocation completes
	// mixed queues sooner and queues jobs for less time, because GPUs are
	// never trapped behind CPU-dominant jobs. Individual job streams are
	// noisy (packing order effects), so assert on the aggregate over
	// several seeds.
	var tradSpan, cdiSpan, tradWait, cdiWait sim.Duration
	for seed := int64(1); seed <= 5; seed++ {
		jobs := mustMix(t, 40, 24, seed)
		cmp, err := Compare(jobs, 8, 24, 2, Backfill)
		if err != nil {
			t.Fatal(err)
		}
		tradSpan += cmp.Traditional.Makespan
		cdiSpan += cmp.CDI.Makespan
		tradWait += cmp.Traditional.MeanWait
		cdiWait += cmp.CDI.MeanWait
		if rejected(cmp.CDI) > rejected(cmp.Traditional) {
			t.Errorf("seed %d: CDI rejected more jobs: %d vs %d",
				seed, rejected(cmp.CDI), rejected(cmp.Traditional))
		}
	}
	if cdiSpan >= tradSpan {
		t.Errorf("aggregate CDI makespan %v not below traditional %v", cdiSpan, tradSpan)
	}
	if cdiWait >= tradWait {
		t.Errorf("aggregate CDI wait %v not below traditional %v", cdiWait, tradWait)
	}
}

func TestEnergyAccountingFavorsCDIUnderPartialLoad(t *testing.T) {
	// One small GPU job on a big machine: traditional pays idle watts on
	// every other GPU for the whole run; CDI powers them off.
	jobs := []Job{{
		Name: "j", Arrival: 0, Duration: 1 * sim.Minute,
		Req: compose.Request{Name: "j", Cores: 4, GPUs: 1},
	}}
	cmp, err := Compare(jobs, 8, 24, 2, FCFS)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.CDI.GPUEnergyWh >= cmp.Traditional.GPUEnergyWh {
		t.Errorf("CDI energy %v not below traditional %v",
			cmp.CDI.GPUEnergyWh, cmp.Traditional.GPUEnergyWh)
	}
}

func TestPolicyString(t *testing.T) {
	if FCFS.String() != "fcfs" || Backfill.String() != "backfill" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy empty")
	}
}

// TestRejectsBadInputs: an unknown policy and a non-positive job count
// are errors, not a silent backfill run or a panic.
func TestRejectsBadInputs(t *testing.T) {
	jobs := mustMix(t, 4, 24, 1)
	cases := []struct {
		name string
		run  func() error
	}{
		{"Run with unknown policy", func() error {
			_, err := Run(mustTraditional(t, 2, 24, 2), jobs, Policy(9))
			return err
		}},
		{"Compare with unknown policy", func() error {
			_, err := Compare(jobs, 2, 24, 2, Policy(-1))
			return err
		}},
		{"WorkloadMix with zero jobs", func() error {
			_, err := WorkloadMix(0, 24, 1)
			return err
		}},
		{"WorkloadMix with negative jobs", func() error {
			_, err := WorkloadMix(-3, 24, 1)
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.run(); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

// TestRunSpawnsOnlyScheduler: arrivals and job timers are callback
// events, so a run of any size spawns one process, the scheduler.
func TestRunSpawnsOnlyScheduler(t *testing.T) {
	var st sim.Stats
	afterRun = func(env *sim.Env) { st = env.Stats() }
	t.Cleanup(func() { afterRun = nil })
	res, err := Run(mustTraditional(t, 6, 24, 2), mustMix(t, 25, 24, 11), Backfill)
	if err != nil {
		t.Fatal(err)
	}
	if rejected(res) == len(res.Jobs) {
		t.Fatal("no job ran")
	}
	if st.Spawns != 1 {
		t.Errorf("Run spawned %d processes, want 1 (the scheduler)", st.Spawns)
	}
}

func TestDeterministicSchedule(t *testing.T) {
	jobs := mustMix(t, 25, 24, 11)
	run := func() Result {
		s := mustTraditional(t, 6, 24, 2)
		r, err := Run(s, jobs, Backfill)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Makespan != b.Makespan || a.MeanWait != b.MeanWait {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func named(r compose.Request, name string) compose.Request {
	r.Name = name
	return r
}

// rejected counts the jobs res rejected.
func rejected(res Result) int {
	n := 0
	for _, j := range res.Jobs {
		if j.Rejected {
			n++
		}
	}
	return n
}
