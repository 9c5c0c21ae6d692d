package pool

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/fabric"
	"repro/internal/serve"
	"repro/internal/sim"
)

// TestFragEdgeCases pins the fragmentation metric's degenerate corners:
// every input produces a finite value in [0, 1], never NaN or a panic.
func TestFragEdgeCases(t *testing.T) {
	cases := []struct {
		name                     string
		totalFree, largest, gang int
		want                     float64
	}{
		{"zero free capacity", 0, 0, 16, 0},
		{"negative free", -3, 0, 16, 0},
		{"zero reference gang", 128, 4, 0, 0},
		{"negative reference gang", 128, 4, -1, 0},
		{"single-GPU pool", 1, 1, 16, 0},
		{"single free fragment", 1, 0, 16, 1},
		{"whole gang fits", 64, 16, 16, 0},
		{"half a gang fits", 64, 8, 16, 0.5},
		{"shattered", 64, 1, 16, 1 - 1.0/16},
		{"largest overshoots denom", 4, 9, 16, 0},
		{"negative largest clamps", 8, -2, 16, 1},
		{"free below gang, block covers it", 5, 5, 16, 0},
	}
	for _, c := range cases {
		got := Fragmentation(c.totalFree, c.largest, c.gang)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("%s: Fragmentation(%d,%d,%d) = %v, want finite",
				c.name, c.totalFree, c.largest, c.gang, got)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: Fragmentation(%d,%d,%d) = %g, want %g",
				c.name, c.totalFree, c.largest, c.gang, got, c.want)
		}
		if got < 0 || got > 1 {
			t.Errorf("%s: metric %g outside [0,1]", c.name, got)
		}
	}
	strandedCases := []struct {
		free, capEff, gang, want int
	}{
		{-1, 16, 16, 0},  // nothing free
		{0, 16, 16, 0},   // exhausted server
		{3, 16, 16, 3},   // trapped fragment
		{15, 16, 16, 15}, // one shy of the gang
		{16, 16, 16, 0},  // whole gang fits
		{40, 16, 16, 0},  // oversized block
		{15, 15, 16, 0},  // fully-free pinned server: small, not stranded
		{14, 15, 16, 14}, // pinned server with one job
		{4, 16, 0, 0},    // no reference demand
	}
	for _, c := range strandedCases {
		if got := strandedContrib(c.free, c.capEff, c.gang); got != c.want {
			t.Errorf("strandedContrib(%d, %d, %d) = %d, want %d",
				c.free, c.capEff, c.gang, got, c.want)
		}
	}
}

// generateJobs draws the whole job schedule for a pool of totalGPUs
// devices from the stream the scheduler pops one job at a time.
func generateJobs(w Workload, totalGPUs int) ([]Job, error) {
	js, err := newJobStream(w, totalGPUs)
	if err != nil {
		return nil, err
	}
	var jobs []Job
	for js.more {
		jobs = append(jobs, js.pop())
	}
	return jobs, nil
}

// TestGenerateJobs checks the schedule generator: deterministic across
// calls, warm cohort covering the load target, arrivals inside the
// window, and the zero-intensity arm frozen (no arrivals, lifetimes past
// the window).
func TestGenerateJobs(t *testing.T) {
	w := Workload{Seed: 1, Window: 100 * sim.Millisecond, Load: 0.75, Intensity: 1}
	a, err := generateJobs(w, 1024)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generateJobs(w, 1024)
	if len(a) != len(b) {
		t.Fatalf("generator not deterministic: %d vs %d jobs", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generator not deterministic at job %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	covered := 0
	for _, j := range a {
		if j.Arrival == 0 {
			covered += j.Gang
		}
		if j.Arrival.Sub(0) >= w.Window {
			t.Fatalf("job %d arrives at %v, beyond the window", j.ID, j.Arrival)
		}
		if j.Gang < 1 || j.Gang > 16 || j.Lifetime <= 0 {
			t.Fatalf("job %d malformed: %+v", j.ID, j)
		}
	}
	if covered < 768 {
		t.Fatalf("warm cohort covers %d GPUs, want >= 768", covered)
	}

	frozen, err := generateJobs(Workload{Seed: 1, Window: 100 * sim.Millisecond, Load: 0.5}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range frozen {
		if j.Arrival != 0 {
			t.Fatalf("zero-intensity workload generated an arrival at %v", j.Arrival)
		}
		if j.Lifetime < 2*w.Window {
			t.Fatalf("zero-intensity lifetime %v inside the window", j.Lifetime)
		}
	}
}

// testTopo is a small pool for unit runs: 2 rows × 2 racks × 4 servers ×
// 8 GPUs = 128 GPUs on 16 servers.
func testTopo() Topology {
	return Topology{Rows: 2, RacksPerRow: 2, ServersPerRack: 4, GPUsPerServer: 8}
}

func runPool(t *testing.T, cfg Config) Stats {
	t.Helper()
	st, _ := runPoolCounted(t, cfg)
	return st
}

// runPoolCounted is runPool that also returns the engine's counters.
func runPoolCounted(t *testing.T, cfg Config) (Stats, sim.Stats) {
	t.Helper()
	env := sim.NewEnv()
	defer env.Close()
	s, err := Start(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	env.Run()
	return s.Stats(), env.Stats()
}

// TestSchedulerSmoke runs a churning pool to completion, with the
// defragmenter off and on, and checks the accounting invariants: every job
// resolves, goodput lands in (0, 1], metrics stay finite. The scheduler is
// the run's only process: job ends and migration copies are callback
// events, one per placement and one per migration. The incremental books
// are recomputed from scratch after every scheduler wake-up.
func TestSchedulerSmoke(t *testing.T) {
	checkEveryWake(t)
	for pol := FirstFit; pol <= TierAware; pol++ {
		for _, defrag := range []bool{false, true} {
			st, es := runPoolCounted(t, Config{
				Topo:   testTopo(),
				Policy: pol,
				Workload: Workload{
					Seed: 7, Window: 50 * sim.Millisecond, Load: 0.7, Intensity: 1,
				},
				Defrag: defrag,
			})
			if st.Jobs == 0 || st.Placed == 0 {
				t.Fatalf("%v defrag=%v: no jobs ran: %+v", pol, defrag, st)
			}
			if st.Placed+st.Killed < st.Jobs {
				t.Fatalf("%v defrag=%v: %d jobs, only %d placed + %d killed", pol, defrag, st.Jobs, st.Placed, st.Killed)
			}
			if st.Goodput <= 0 || st.Goodput > 1 {
				t.Fatalf("%v defrag=%v: goodput %g outside (0, 1]", pol, defrag, st.Goodput)
			}
			if math.IsNaN(st.FragAvg) || st.FragAvg < 0 || st.FragAvg > 1 {
				t.Fatalf("%v defrag=%v: frag average %g", pol, defrag, st.FragAvg)
			}
			if st.StrandedAvg < 0 {
				t.Fatalf("%v defrag=%v: stranded average %g", pol, defrag, st.StrandedAvg)
			}
			if st.PeakConcurrent <= 0 {
				t.Fatalf("%v defrag=%v: peak concurrency %d", pol, defrag, st.PeakConcurrent)
			}
			if defrag && pol == TierAware && st.Migrations == 0 {
				t.Fatalf("%v defrag=%v: no migrations, the copy callbacks went unexercised", pol, defrag)
			}
			if es.Spawns != 1 {
				t.Fatalf("%v defrag=%v: %d processes spawned, want 1 (the scheduler)", pol, defrag, es.Spawns)
			}
			if want := uint64(st.Placed) + uint64(st.Migrations); es.Callbacks != want {
				t.Fatalf("%v defrag=%v: %d callbacks, want %d placed + %d migrations", pol, defrag, es.Callbacks, st.Placed, st.Migrations)
			}
		}
	}
}

// TestSlotTableSizedByLiveJobs: the slot table holds the live jobs, not
// the schedule, so a run four times as long ends with as many slot chunks
// as the short one, every slot back on the free list.
func TestSlotTableSizedByLiveJobs(t *testing.T) {
	checkEveryWake(t)
	type table struct{ jobs, slots, chunks int }
	run := func(window sim.Duration) table {
		env := sim.NewEnv()
		defer env.Close()
		s, err := Start(env, Config{
			Topo:     testTopo(),
			Policy:   TierAware,
			Workload: Workload{Seed: 7, Window: window, Load: 0.8, Intensity: 4},
			Defrag:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		env.Run()
		free := 0
		for n := s.freeHead; n >= 0; n = int(s.slot(n).nextFree) {
			free++
		}
		if free != s.nslots {
			t.Fatalf("window %v: %d of %d slots free after the run", window, free, s.nslots)
		}
		return table{s.Stats().Jobs, s.nslots, len(s.slots)}
	}
	one, four := run(100*sim.Millisecond), run(400*sim.Millisecond)
	if four.jobs < 2*one.jobs {
		t.Fatalf("the 4x window drew %d jobs against %d", four.jobs, one.jobs)
	}
	if four.chunks != one.chunks {
		t.Fatalf("slot table of %d chunks (%d slots) at 4x the window, %d (%d) at 1x",
			four.chunks, four.slots, one.chunks, one.slots)
	}
	if four.slots >= four.jobs/2 {
		t.Fatalf("%d slots for %d jobs: the table is not recycling", four.slots, four.jobs)
	}
}

// warmScheduler starts a 128-GPU scheduler whose one frozen warm job
// (its lifetime twice the 1,000 s window) keeps it waiting on its
// mailbox, and runs its first wake-up.
func warmScheduler(t *testing.T) (*sim.Env, *Scheduler) {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	s, err := Start(env, Config{
		Topo:     testTopo(),
		Policy:   BestFit,
		Workload: Workload{Seed: 1, Window: 1000 * sim.Second, Load: 1.0 / 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	env.Step()
	if s.runningJobs != 1 {
		t.Fatalf("%d jobs running after the first wake-up, want the one warm job", s.runningJobs)
	}
	return env, s
}

// TestWarmPlacementAllocatesNothing: once warm, admitting a job, placing
// it, firing its end timer and retiring it through the mailbox reuses the
// slot, its slice buffer, its bound callback and the engine's events.
func TestWarmPlacementAllocatesNothing(t *testing.T) {
	env, s := warmScheduler(t)
	// Twice a server's GPUs, so the slot's buffer holds two slices.
	j := Job{Shape: LammpsShape, Gang: 16, Lifetime: sim.Microsecond}
	cycle := func() {
		s.admit(env.Now(), j)
		env.Step() // the end timer posts msgDone
		env.Step() // the scheduler retires the job and frees its slot
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("a warm place-complete cycle allocates %v times", got)
	}
	if st := s.Stats(); st.Placed != 103 || s.runningJobs != 1 || s.nslots != 2 {
		t.Fatalf("%d placed, %d running, %d slots; want 103, 1 and 2", st.Placed, s.runningJobs, s.nslots)
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmMoveAllocatesNothing: a defrag move and its copy callback,
// delivered through the mailbox, allocate nothing once warm.
func TestWarmMoveAllocatesNothing(t *testing.T) {
	env, s := warmScheduler(t)
	s.admit(env.Now(), Job{Shape: CosmoFlowShape, Gang: 2, Lifetime: 1000 * sim.Second})
	n := s.nslots - 1
	from, to := s.slot(n).slices[0].server, -1
	for sv, f := range s.free {
		if sv != from && f >= 2 {
			to = sv
			break
		}
	}
	step := func(a, b int) {
		s.executeMove(env.Now(), move{slot: n, from: a, to: b})
		env.Step() // the copy callback posts msgMigrated
		env.Step() // the scheduler consumes it
	}
	cycle := func() {
		step(from, to)
		step(to, from)
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("a warm defrag move allocates %v times", got)
	}
	if st := s.Stats(); st.Migrations != 204 || s.sweepOutstanding != 0 {
		t.Fatalf("%d migrations, %d copies outstanding; want 204 and 0", st.Migrations, s.sweepOutstanding)
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBadInputsRejected: every unusable workload or config field is an
// error from Start, never a panic.
func TestBadInputsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	good := func() Config {
		return Config{
			Topo:     testTopo(),
			Policy:   TierAware,
			Workload: Workload{Seed: 3, Window: 20 * sim.Millisecond, Load: 0.5, Intensity: 1},
			Defrag:   true,
		}
	}
	// want, when set, is a substring the error must carry, for inputs a
	// later check would otherwise reject for the wrong reason.
	cases := []struct {
		name string
		mut  func(c *Config)
		want string
	}{
		{"window NaN", func(c *Config) { c.Workload.Window = sim.Duration(nan) }, ""},
		{"window +Inf", func(c *Config) { c.Workload.Window = sim.Duration(inf) }, ""},
		{"load NaN", func(c *Config) { c.Workload.Load = nan }, ""},
		{"intensity +Inf", func(c *Config) { c.Workload.Intensity = inf }, ""},
		{"policy 99", func(c *Config) { c.Policy = Policy(99) }, "unknown policy"},
		{"serving GPUs -1", func(c *Config) { c.ServingGPUs = -1 }, "serving reservation -1 outside"},
		{"serving GPUs the whole pool", func(c *Config) { c.ServingGPUs = c.Topo.GPUs() }, "serving reservation 128 outside"},
		{"topology 2^48 GPUs", func(c *Config) { c.Topo = Topology{1 << 16, 1 << 16, 1 << 16, 1} }, "topology"},
		{"topology GPU count overflows int", func(c *Config) { c.Topo = Topology{1 << 31, 1 << 31, 2, 1} }, "topology"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := good()
			c.mut(&cfg)
			env := sim.NewEnv()
			defer env.Close()
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Start panicked: %v", r)
					}
				}()
				_, err = Start(env, cfg)
			}()
			if err == nil {
				t.Fatalf("Start accepted %+v", cfg)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Start rejected %+v with %q, want an error about %q", cfg, err, c.want)
			}
		})
	}
	// The good base config itself runs.
	env := sim.NewEnv()
	defer env.Close()
	if _, err := Start(env, good()); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
}

// TestSchedulerDeterminism: same config, two private envs, identical
// stats, with the books checked after every wake-up.
func TestSchedulerDeterminism(t *testing.T) {
	checkEveryWake(t)
	cfg := Config{
		Topo:   testTopo(),
		Policy: TierAware,
		Workload: Workload{
			Seed: 11, Window: 50 * sim.Millisecond, Load: 0.8, Intensity: 1,
		},
		Defrag: true,
	}
	a := runPool(t, cfg)
	b := runPool(t, cfg)
	if a != b {
		t.Fatalf("runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestZeroChurnFrozen: the intensity-0 arm places once and never
// migrates, with or without the defragmenter.
func TestZeroChurnFrozen(t *testing.T) {
	base := Config{
		Topo:   testTopo(),
		Policy: BestFit,
		Workload: Workload{
			Seed: 3, Window: 50 * sim.Millisecond, Load: 0.75,
		},
	}
	off := runPool(t, base)
	on := base
	on.Defrag = true
	got := runPool(t, on)
	if got.Migrations != 0 {
		t.Fatalf("zero-churn defrag arm migrated %d times", got.Migrations)
	}
	if got != off {
		t.Fatalf("defrag changed the zero-churn run:\noff %+v\non  %+v", off, got)
	}
	if off.Blocked != 0 || off.Killed != 0 {
		t.Fatalf("zero-churn arm blocked %d / killed %d jobs", off.Blocked, off.Killed)
	}
}

// TestTierAwareGate: on a pool whose every server is too small for the
// big gangs, the tier-aware policy must still only accept spreads above
// each shape's efficiency floor — so its average efficiency (goodput per
// delivered GPU-second) beats first-fit's on the same schedule.
func TestTierAwareGate(t *testing.T) {
	cfg := Config{
		Topo: Topology{Rows: 2, RacksPerRow: 2, ServersPerRack: 4, GPUsPerServer: 4},
		Workload: Workload{
			Seed: 5, Window: 50 * sim.Millisecond, Load: 0.8, Intensity: 1,
		},
	}
	cfg.Policy = FirstFit
	ff := runPool(t, cfg)
	cfg.Policy = TierAware
	ta := runPool(t, cfg)
	if ta.Goodput <= 0 || ff.Goodput <= 0 {
		t.Fatalf("degenerate goodput: firstfit %g tieraware %g", ff.Goodput, ta.Goodput)
	}
	effFF := ff.GoodputGPUs * cfg.Workload.Window.Seconds()
	effTA := ta.GoodputGPUs * cfg.Workload.Window.Seconds()
	if effTA <= 0 || effFF <= 0 {
		t.Fatalf("no delivered GPU-seconds: firstfit %g tieraware %g", effFF, effTA)
	}
}

// TestServingReservation: the serving slice is placed through the serve
// placer, pinned ahead of batch placement, and reported with its slack.
func TestServingReservation(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	s, err := Start(env, Config{
		Topo:   testTopo(),
		Policy: BestFit,
		Workload: Workload{
			Seed: 1, Window: 10 * sim.Millisecond, Load: 0.5,
		},
		Serving: []serve.Tenant{
			{Name: "chat", Rate: 100, MeanPromptTokens: 32, MeanOutputTokens: 8,
				SLO: 25 * sim.Millisecond},
		},
		ServingGPUs: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	env.Run()
	st := s.Stats()
	if st.ServingReplicas != 4 {
		t.Fatalf("serving replicas %d, want 4", st.ServingReplicas)
	}
	if st.ServingSlackMean <= 0 {
		t.Fatalf("serving slack %v, want > 0 at row scale", st.ServingSlackMean)
	}
	if st.Goodput <= 0 {
		t.Fatalf("batch goodput %g alongside the reservation", st.Goodput)
	}
}

// TestEfficiencyTable pins the penalty-model pricing the policies gate
// on.
func TestEfficiencyTable(t *testing.T) {
	cases := []struct {
		shape Shape
		scale fabric.Scale
		want  float64
	}{
		{LammpsShape, fabric.NodeLocal, 1},
		{LammpsShape, fabric.RackScale, 0.955},
		{LammpsShape, fabric.RowScale, 0.813},
		{CosmoFlowShape, fabric.RowScale, 0.977},
		{CosmoFlowShape, fabric.ClusterScale, 0.930},
	}
	for _, c := range cases {
		got := EfficiencyAt(c.shape, c.scale)
		if math.Abs(got-c.want) > 0.005 {
			t.Errorf("EfficiencyAt(%v, %v) = %.3f, want ~%.3f", c.shape, c.scale, got, c.want)
		}
		if c.scale > fabric.NodeLocal && got >= 1 {
			t.Errorf("EfficiencyAt(%v, %v) = %g, spread must cost something", c.shape, c.scale, got)
		}
	}
}

// TestTopology pins the index arithmetic.
func TestTopology(t *testing.T) {
	topo := DefaultTopology()
	if topo.GPUs() != 8192 || topo.Servers() != 512 || topo.Racks() != 64 {
		t.Fatalf("default topology: %d GPUs, %d servers, %d racks", topo.GPUs(), topo.Servers(), topo.Racks())
	}
	if topo.RackOf(0) != 0 || topo.RackOf(8) != 1 || topo.RowOf(63) != 0 || topo.RowOf(64) != 1 {
		t.Fatal("rack/row indexing broken")
	}
	cases := []struct {
		a, b int
		want fabric.Scale
	}{
		{0, 0, fabric.NodeLocal},
		{0, 7, fabric.RackScale},
		{0, 8, fabric.RowScale},
		{0, 63, fabric.RowScale},
		{0, 64, fabric.ClusterScale},
	}
	for _, c := range cases {
		if got := topo.CrossingScale(c.a, c.b); got != c.want {
			t.Errorf("CrossingScale(%d, %d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestDrainReadmit drives the health.Pool surface from a process: drain a
// pinned server and a batch server mid-run, readmit both (one twice, the
// second a no-op), and post an out-of-range drain the scheduler ignores.
// The books are recomputed from scratch after every scheduler wake-up.
func TestDrainReadmit(t *testing.T) {
	checkEveryWake(t)
	env := sim.NewEnv()
	defer env.Close()
	s, err := Start(env, Config{
		Topo:   testTopo(),
		Policy: TierAware,
		Workload: Workload{
			Seed: 7, Window: 50 * sim.Millisecond, Load: 0.7, Intensity: 1,
		},
		Defrag: true,
		Serving: []serve.Tenant{
			{Name: "chat", Rate: 100, MeanPromptTokens: 32, MeanOutputTokens: 8,
				SLO: 25 * sim.Millisecond},
		},
		ServingGPUs: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	pinned, batch := -1, -1
	for sv, n := range s.pinned {
		if n > 0 && pinned < 0 {
			pinned = sv
		}
		if n == 0 && batch < 0 {
			batch = sv
		}
	}
	if pinned < 0 || batch < 0 {
		t.Fatalf("want a pinned and an unpinned server, pinned counts %v", s.pinned)
	}
	env.Spawn("ctl", func(p *sim.Proc) {
		p.Sleep(10 * sim.Millisecond)
		for _, sv := range []int{pinned, batch, s.Servers()} {
			if err := s.Drain(p, sv); err != nil {
				t.Errorf("drain %d: %v", sv, err)
			}
		}
		p.Sleep(10 * sim.Millisecond)
		for _, sv := range []int{batch, batch, pinned} {
			if err := s.Readmit(sv); err != nil {
				t.Errorf("readmit %d: %v", sv, err)
			}
		}
	})
	env.Run()
	st := s.Stats()
	if st.Drains != 2 || st.Readmissions != 2 {
		t.Fatalf("%d drains and %d readmissions applied, want 2 and 2", st.Drains, st.Readmissions)
	}
	if st.DrainMigrations == 0 {
		t.Fatal("no job re-placed off a drained server")
	}
	if st.Placed+st.Killed < st.Jobs {
		t.Fatalf("%d jobs, only %d placed + %d killed", st.Jobs, st.Placed, st.Killed)
	}
	for sv := range s.live {
		if !s.Live(sv) {
			t.Fatalf("server %d still out of rotation after its readmission", sv)
		}
	}
}

// The linear scans the indexed queries replaced, kept as FuzzPoolOps's
// reference.

// refFirstFit takes free GPUs in global server order until the gang is
// covered.
func (s *Scheduler) refFirstFit(gang int) []slice {
	if s.totalFree < gang {
		return nil
	}
	s.scratchSl = s.scratchSl[:0]
	need := gang
	for sv := 0; sv < len(s.free) && need > 0; sv++ {
		if !s.live[sv] || s.free[sv] == 0 {
			continue
		}
		take := s.free[sv]
		if take > need {
			take = need
		}
		s.scratchSl = append(s.scratchSl, slice{sv, take})
		need -= take
	}
	if need > 0 {
		return nil
	}
	return s.scratchSl
}

// refBestServer returns the live server with the smallest free block that
// still fits the gang, lowest index on ties, or -1.
func (s *Scheduler) refBestServer(gang int) int {
	best, bestFree := -1, 0
	for sv, f := range s.free {
		if !s.live[sv] || f < gang {
			continue
		}
		if best < 0 || f < bestFree {
			best, bestFree = sv, f
		}
	}
	return best
}

// refPickVictim returns the live, unpinned server with the smallest
// nonzero batch occupancy whose every allocation is single-server
// (multi-server gangs and serving replicas do not migrate), or -1.
func (s *Scheduler) refPickVictim() int {
	best, bestOcc := -1, 0
	for sv := range s.free {
		if !s.live[sv] || s.pinned[sv] > 0 {
			continue
		}
		occ := s.topo.GPUsPerServer - s.free[sv]
		if occ <= 0 || (best >= 0 && occ >= bestOcc) {
			continue
		}
		movable := true
		for _, n := range s.jobsOn[sv] {
			if len(s.slot(n).slices) != 1 {
				movable = false
				break
			}
		}
		if movable {
			best, bestOcc = sv, occ
		}
	}
	return best
}

// fuzzTopo has 80 servers, so every server bitset spans two words: 2 rows
// × 4 racks × 10 servers × 8 GPUs.
func fuzzTopo() Topology {
	return Topology{Rows: 2, RacksPerRow: 4, ServersPerRack: 10, GPUsPerServer: 8}
}

// FuzzPoolOps applies random operation programs to a scheduler directly,
// without running its process, and after every operation recomputes the
// books from scratch and checks each indexed query against its linear
// scan. The first byte picks the policy; after it, each byte is one
// operation. Its low three bits pick admit (0-2), end timer (3), drain
// (4), readmit (5), sweep (6) or retry the queue (7). For an admission
// the high bits pick the gang (1-16) and shape; for an end timer they
// pick where to start looking for a slot whose timer is in flight, a
// running job's below 16 and a killed job's tombstone from 16 up, and
// its message is delivered through the mailbox; drain and readmit take
// the next byte as the server. Jobs that do not fit queue, so sweeps see
// a waiting queue too. Four serving replicas pin servers 0, 20, 40 and
// 60. The harness tracks every end timer in flight, as the engine would
// deliver it, and requires its slot to still hold the job it was set
// for: a recycled slot must never receive a stale timer.
func FuzzPoolOps(f *testing.F) {
	place := func(gang int) byte { return byte(gang-1) << 3 }
	const staleTimer = 16<<3 | 3
	rep := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	// Seeds: drain a pinned server with jobs on it and readmit it; drain
	// a server in the second bitset word and readmit it twice; fill the
	// pinned servers' 7-free bucket and then the whole-server bucket to
	// empty, complete and sweep; a mixed program of multi-server gangs,
	// drains, completions and sweeps under each policy; and fill the pool,
	// kill jobs by draining a server with no room left, complete one, admit
	// new jobs into the recycled slots, then fire the killed jobs' stale
	// end timers.
	f.Add([]byte{1, place(7), place(1), 4, 0, 3, 5, 0, 6, place(8)})
	f.Add(slices.Concat([]byte{0}, rep(70, place(8)), []byte{4, 70, 5, 70, 5, 70, 6}))
	f.Add(slices.Concat([]byte{2}, rep(4, place(7)), rep(76, place(8)),
		[]byte{place(8), 3, 11, 19, 6, 7, 6}))
	for pol := byte(0); pol < 3; pol++ {
		f.Add([]byte{pol, place(12), place(3), place(16), place(5), 4, 3,
			place(2), 3, 6, 4, 66, place(9), 11, 6, 5, 3, 7, 5, 66, 6})
	}
	f.Add(slices.Concat([]byte{0}, rep(79, place(8)), []byte{place(4), 4, 70, 3,
		place(8), place(1), staleTimer, place(2), staleTimer, 5, 70, place(8), 3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The reference scans and the checker are linear in servers and
		// jobs per step; cap the program so inputs stay fast to minimize.
		if len(data) > 512 {
			data = data[:512]
		}
		if len(data) == 0 {
			return
		}
		env := sim.NewEnv()
		defer env.Close()
		s, err := Start(env, Config{
			Topo:     fuzzTopo(),
			Policy:   Policy(data[0] % 3),
			Workload: Workload{Seed: 1, Window: 10 * sim.Millisecond, Load: 0.5},
			Defrag:   true,
			Serving: []serve.Tenant{
				{Name: "chat", Rate: 100, MeanPromptTokens: 32, MeanOutputTokens: 8,
					SLO: 25 * sim.Millisecond},
			},
			ServingGPUs: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The program brings its own jobs; the workload's schedule is
		// never drawn, since the scheduler process never runs.
		timers := map[int]int{} // job ID → slot, per end timer in flight
		servers, jobs := len(s.free), 0
		for step := 1; step < len(data); step++ {
			b := data[step]
			arg := int(b >> 3)
			now := sim.Time(0).Add(sim.Duration(step) * sim.Microsecond)
			server := func() int {
				if step+1 < len(data) {
					step++
					return int(data[step]) % servers
				}
				return arg
			}
			switch op := b & 7; op {
			case 0, 1, 2:
				s.admit(now, Job{ID: jobs, Shape: Shape(arg >> 4), Gang: arg&15 + 1, Arrival: now, Lifetime: sim.Millisecond})
				jobs++
			case 3:
				want := allocPlaced
				if arg >= 16 {
					want = allocKilled
				}
				for k := 0; k < s.nslots; k++ {
					if n := (arg + k) % s.nslots; s.slot(n).state == want {
						delete(timers, s.slot(n).job.ID)
						s.post(msgDone, n)
						s.drainMail(now)
						break
					}
				}
			case 4:
				s.drainServer(server(), now)
			case 5:
				s.readmitServer(server())
			case 6:
				s.sweep(now)
			case 7:
				s.tryQueue(now)
			}
			if err := s.checkInvariants(); err != nil {
				t.Fatalf("step %d (byte %d): %v", step, b, err)
			}
			for n := 0; n < s.nslots; n++ {
				a := s.slot(n)
				if _, ok := timers[a.job.ID]; !ok && a.state == allocPlaced {
					timers[a.job.ID] = n // placed this step: its timer started
				}
			}
			for id, n := range timers {
				if a := s.slot(n); a.job.ID != id || (a.state != allocPlaced && a.state != allocKilled) {
					t.Fatalf("step %d: slot %d, whose end timer for job %d is in flight, holds job %d in state %d",
						step, n, id, a.job.ID, a.state)
				}
			}
			for g := 1; g <= 2*s.topo.GPUsPerServer; g++ {
				if got, want := s.bestServer(g), s.refBestServer(g); got != want {
					t.Fatalf("step %d: bestServer(%d) = %d, linear scan %d", step, g, got, want)
				}
				// Both return the scratch buffer, so keep a copy of the
				// first before the second overwrites it.
				if got, want := slices.Clone(s.firstFit(g)), s.refFirstFit(g); !slices.Equal(got, want) {
					t.Fatalf("step %d: firstFit(%d) = %v, linear scan %v", step, g, got, want)
				}
			}
			if got, want := s.pickVictim(), s.refPickVictim(); got != want {
				t.Fatalf("step %d: pickVictim() = %d, linear scan %d", step, got, want)
			}
		}
	})
}

// A slot holds no field that nothing reads: it stays 104 bytes, so a
// 64-slot chunk fits the 6,784-byte size class.
func TestSlotFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n > 104 {
		t.Fatalf("slot is %d bytes, want at most 104", n)
	}
}
