package health

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/gpu"
	"repro/internal/remoting"
	"repro/internal/sim"
)

func TestDetectorPhi(t *testing.T) {
	d := NewDetector(8, 100*sim.Microsecond)
	if phi := d.Phi(sim.Time(0)); phi != 0 {
		t.Errorf("phi before any beat = %g, want 0", phi)
	}
	// Regular 100 µs beats.
	at := sim.Time(0)
	for i := 0; i < 12; i++ {
		d.Observe(at)
		at = at.Add(100 * sim.Microsecond)
	}
	if m := d.Mean(); math.Abs(float64(m)-float64(100*sim.Microsecond)) > 1e-12 {
		t.Errorf("windowed mean = %v, want 100µs", m)
	}
	// φ = Δ/(mean·ln10): one mean of silence is φ≈0.434, ten means φ≈4.34.
	last, _ := d.Last()
	phi1 := d.Phi(last.Add(100 * sim.Microsecond))
	if math.Abs(phi1-1/math.Ln10) > 1e-9 {
		t.Errorf("phi at one mean = %g, want %g", phi1, 1/math.Ln10)
	}
	phi10 := d.Phi(last.Add(1000 * sim.Microsecond))
	if math.Abs(phi10-10/math.Ln10) > 1e-9 {
		t.Errorf("phi at ten means = %g, want %g", phi10, 10/math.Ln10)
	}
	if phi10 <= phi1 {
		t.Error("phi is not increasing in the silence length")
	}
	// Duplicate and out-of-order observations are ignored.
	d.Observe(last)
	d.Observe(last.Add(-50 * sim.Microsecond))
	if m := d.Mean(); math.Abs(float64(m)-float64(100*sim.Microsecond)) > 1e-12 {
		t.Errorf("mean perturbed by non-monotonic observations: %v", m)
	}
	// Reset falls back to the prior and forgets the clock.
	d.Reset()
	if _, ok := d.Last(); ok {
		t.Error("reset detector still remembers a beat")
	}
	if d.Phi(at) != 0 {
		t.Error("reset detector is suspicious with no beats")
	}
	if d.Mean() != 100*sim.Microsecond {
		t.Errorf("reset detector mean = %v, want the prior", d.Mean())
	}
}

func TestDetectorWindowSlides(t *testing.T) {
	d := NewDetector(4, sim.Millisecond)
	at := sim.Time(0)
	d.Observe(at)
	// Four slow beats, then four fast ones: the window must forget the
	// slow regime entirely.
	for i := 0; i < 4; i++ {
		at = at.Add(sim.Millisecond)
		d.Observe(at)
	}
	for i := 0; i < 4; i++ {
		at = at.Add(100 * sim.Microsecond)
		d.Observe(at)
	}
	if m := d.Mean(); math.Abs(float64(m)-float64(100*sim.Microsecond)) > 1e-12 {
		t.Errorf("mean after window slide = %v, want 100µs", m)
	}
}

func testPath(t *testing.T) fabric.Path {
	t.Helper()
	path, err := fabric.PathForSlack(10 * sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// testPool builds a Resilient pool under the given fault schedule, with
// no workload attached — the control plane is the only actor.
func testPool(t *testing.T, env *sim.Env, fc faults.Config, standbys int) *remoting.Resilient {
	t.Helper()
	r, err := remoting.NewResilient(env, gpu.A100(), remoting.ResilientConfig{
		Config:   remoting.Config{Path: testPath(t), Seed: fc.Seed},
		Faults:   fc,
		Standbys: standbys, DisableLocalFallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDetectorAllocFree: once the ring has wrapped, a heartbeat Observe
// plus a Phi evaluation allocates nothing — the controller runs this pair
// on every beat of every server.
func TestDetectorAllocFree(t *testing.T) {
	d := NewDetector(16, 250*sim.Microsecond)
	now := sim.Time(0)
	cycle := func() {
		now = now.Add(250 * sim.Microsecond)
		d.Observe(now)
		if d.Phi(now.Add(100*sim.Microsecond)) < 0 {
			t.Fatal("negative phi")
		}
	}
	for i := 0; i < 64; i++ { // warm-up: prime the clock and wrap the ring
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs > 0 {
		t.Fatalf("steady-state Observe+Phi allocates %.1f objects/op, want 0", allocs)
	}
}

func TestConfigValidate(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	pool := testPool(t, env, faults.Config{Seed: 1}, 1)
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Config{
		{},                                  // no horizon
		{Horizon: sim.Second, Interval: -1}, // negative interval survives defaults
		{Horizon: sim.Second, DropProbability: 1},
		{Horizon: sim.Second, Interval: sim.Duration(nan)},
		{Horizon: sim.Second, Interval: sim.Duration(inf)},
		{Horizon: sim.Duration(nan)},
		{Horizon: sim.Duration(inf)},           // the beats would never stop
		{Horizon: sim.Second, JitterFrac: 1.5}, // a period could go negative
		{Horizon: sim.Second, JitterFrac: 1},   // a period could be zero
		{Horizon: sim.Second, JitterFrac: nan},
		{Horizon: sim.Second, DropProbability: nan},
	}
	for i, cfg := range bad {
		if _, err := Start(env, pool, pool.Injector(), cfg); err == nil {
			t.Errorf("config %d (%+v): invalid config accepted", i, cfg)
		}
	}
}

// TestStartRejectsPoolPastSaltBlock: server 4,096's jitter stream would
// be server 0's loss stream, so a pool that large is an error.
func TestStartRejectsPoolPastSaltBlock(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	_, err := Start(env, newFakePool(env, 4097, 0), nil, Config{Horizon: 10 * sim.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "salt block") {
		t.Fatalf("Start with 4097 servers: err = %v, want a salt-block error", err)
	}
}

// TestStartSpawnsOnlyEvaluator: the heartbeats are callback chains, so
// the control plane adds one process, the evaluator, whatever the pool
// size.
func TestStartSpawnsOnlyEvaluator(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	before := env.Stats().Spawns
	if _, err := Start(env, newFakePool(env, 4, 0), nil, Config{Horizon: 10 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if n := env.Stats().Spawns - before; n != 1 {
		t.Fatalf("Start over 4 servers spawned %d processes, want 1", n)
	}
	env.Run()
}

// TestBeatsCostNoGoroutineSwitch: in a fault-free run the evaluator is
// the only process, so the spawn, self-wake and switch counts do not
// depend on the pool size; only the callback count grows with it.
func TestBeatsCostNoGoroutineSwitch(t *testing.T) {
	var first sim.Stats
	var lastCallbacks uint64
	for k, n := range []int{1, 4, 16} {
		env := sim.NewEnv()
		if _, err := Start(env, newFakePool(env, n, 0), nil, Config{Seed: 5, Horizon: 20 * sim.Millisecond}); err != nil {
			t.Fatal(err)
		}
		env.Run()
		st := env.Stats()
		env.Close()
		if k == 0 {
			first = st
		} else if st.Spawns != first.Spawns || st.SelfWakes != first.SelfWakes || st.Switches != first.Switches {
			t.Errorf("%d servers: spawns/self-wakes/switches %d/%d/%d, 1 server %d/%d/%d",
				n, st.Spawns, st.SelfWakes, st.Switches, first.Spawns, first.SelfWakes, first.Switches)
		}
		if st.Callbacks <= lastCallbacks {
			t.Errorf("%d servers: %d callbacks, not above %d", n, st.Callbacks, lastCallbacks)
		}
		lastCallbacks = st.Callbacks
	}
}

// TestHeartbeatsAllocFree: once warmed, a millisecond of fault-free
// monitoring — beats, detector updates and evaluator ticks — allocates
// nothing.
func TestHeartbeatsAllocFree(t *testing.T) {
	for _, n := range []int{1, 4, 16} {
		env := sim.NewEnv()
		if _, err := Start(env, newFakePool(env, n, 0), nil, Config{Seed: 5, Horizon: sim.Second}); err != nil {
			t.Fatal(err)
		}
		now := env.RunUntil(sim.Time(0).Add(10 * sim.Millisecond))
		allocs := testing.AllocsPerRun(100, func() {
			now = env.RunUntil(now.Add(sim.Millisecond))
		})
		env.Close()
		if allocs > 0 {
			t.Errorf("%d servers: 1 ms of monitoring allocates %.1f objects, want 0", n, allocs)
		}
	}
}

func TestZeroFaultNoOp(t *testing.T) {
	// With no fault schedule the control plane observes steady beats and
	// takes no action at all: no suspicion, no drain, no registry churn.
	env := sim.NewEnv()
	defer env.Close()
	pool := testPool(t, env, faults.Config{Seed: 7}, 1)
	c, err := Start(env, pool, pool.Injector(), Config{Seed: 7, Horizon: 50 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c.Registry().KeepLog()
	env.Run()
	st := c.Stats()
	if st.Beats == 0 {
		t.Fatal("no heartbeats delivered")
	}
	if st.DroppedBeats != 0 || st.Suspicions != 0 || st.Drains != 0 || st.Deaths != 0 {
		t.Errorf("fault-free run took control action: %+v", st)
	}
	if len(c.Registry().Log()) != 0 {
		t.Errorf("fault-free run logged %d transitions", len(c.Registry().Log()))
	}
	if c.Degraded() {
		t.Error("fault-free pool reports degraded")
	}
	for i := 0; i < pool.Servers(); i++ {
		if c.Registry().StateOf(i) != Healthy || !pool.Live(i) {
			t.Errorf("server %d: state %v live %v after fault-free run",
				i, c.Registry().StateOf(i), pool.Live(i))
		}
	}
}

// churnConfig is a schedule with recurring 5 ms outages every ~20 ms on
// each of the pool's servers.
func churnConfig(seed int64) faults.Config {
	return faults.Config{Seed: seed, CrashAfter: 20 * sim.Millisecond, CrashFor: 5 * sim.Millisecond}
}

func TestDetectsDrainsAndReadmits(t *testing.T) {
	checkEveryTick(t)
	env := sim.NewEnv()
	defer env.Close()
	pool := testPool(t, env, churnConfig(11), 1)
	c, err := Start(env, pool, pool.Injector(), Config{Seed: 11, Horizon: 100 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c.Registry().KeepLog()
	env.Run()
	st := c.Stats()
	if st.Suspicions == 0 || st.Deaths == 0 || st.Recoveries == 0 {
		t.Fatalf("churn run saw no full detect/recover cycle: %+v", st)
	}
	if st.DetectionCount == 0 {
		t.Fatal("no true-positive detections scored")
	}
	// φ reaches the suspect threshold after ~1.5·mean·ln10 ≈ 0.9 ms of
	// silence; with evaluator granularity that bounds detection latency
	// well under 2.5 ms.
	if st.MeanDetection() <= 0 || st.MeanDetection() > 2500*sim.Microsecond {
		t.Errorf("mean detection latency %v outside (0, 2.5ms]", st.MeanDetection())
	}
	if st.DetectionMax > 5*sim.Millisecond {
		t.Errorf("max detection latency %v exceeds the outage length", st.DetectionMax)
	}
	if st.Readmissions == 0 {
		t.Error("no server was readmitted after recovery")
	}
	ps := pool.Stats()
	if ps.Migrations == 0 {
		t.Error("no drain migration rode the DMA-replay path")
	}
	// The log must contain a full Healthy→…→Healthy cycle for some server.
	var cycled bool
	for _, tr := range c.Registry().Log() {
		if tr.To == Healthy {
			cycled = true
			break
		}
	}
	if !cycled {
		t.Error("no server completed a recovery cycle back to Healthy")
	}
}

func TestHeartbeatLossTolerance(t *testing.T) {
	// A lossy link drops beats but the detector's windowed mean absorbs
	// the gaps: with p=0.2 a false suspicion needs ~3 consecutive losses
	// right when the window is tight.
	env := sim.NewEnv()
	defer env.Close()
	pool := testPool(t, env, faults.Config{Seed: 3, DropProbability: 0.2}, 1)
	c, err := Start(env, pool, pool.Injector(), Config{Seed: 3, Horizon: 50 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	env.Run()
	st := c.Stats()
	if st.DroppedBeats == 0 {
		t.Fatal("lossy run dropped no beats (drop probability not inherited?)")
	}
	if st.Beats == 0 {
		t.Fatal("lossy run delivered no beats")
	}
	if st.Suspicions != st.FalseSuspicions {
		t.Errorf("suspicions %d != false suspicions %d with no crash schedule",
			st.Suspicions, st.FalseSuspicions)
	}
}

func TestControllerDeterminism(t *testing.T) {
	checkEveryTick(t)
	run := func() (Stats, []Transition) {
		env := sim.NewEnv()
		defer env.Close()
		pool := testPool(t, env, churnConfig(19), 1)
		c, err := Start(env, pool, pool.Injector(), Config{Seed: 19, Horizon: 80 * sim.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		c.Registry().KeepLog()
		env.Run()
		return c.Stats(), c.Registry().Log()
	}
	s1, l1 := run()
	s2, l2 := run()
	if s1 != s2 {
		t.Errorf("stats differ across identical runs:\n%+v\n%+v", s1, s2)
	}
	if len(l1) != len(l2) {
		t.Fatalf("transition logs differ in length: %d vs %d", len(l1), len(l2))
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Errorf("transition %d differs: %+v vs %+v", i, l1[i], l2[i])
		}
	}
	if len(l1) == 0 {
		t.Error("churn run produced no transitions at all")
	}
}

// checkInvariants recomputes the registry's derived books from scratch:
// the degraded count from the states, and, when the log is kept, the
// transition log as a chain per server that starts Healthy, where each
// From is the previous To, no transition leaves a state for itself, time
// never runs backwards, and the last To is the current state. A registry
// that does not keep its log must hold none.
func (r *Registry) checkInvariants() error {
	degraded := 0
	for _, s := range r.states {
		if s != Healthy {
			degraded++
		}
	}
	if degraded != r.degraded {
		return fmt.Errorf("degraded count %d, states say %d", r.degraded, degraded)
	}
	if !r.keep {
		if len(r.log) != 0 {
			return fmt.Errorf("%d transitions logged with the log off", len(r.log))
		}
		return nil
	}
	cur := make([]State, len(r.states))
	var at sim.Time
	for k, tr := range r.log {
		if tr.To == cur[tr.Server] {
			return fmt.Errorf("transition %d %+v is a self-loop", k, tr)
		}
		if tr.At < at {
			return fmt.Errorf("transition %d %+v before the previous one at %v", k, tr, at)
		}
		cur[tr.Server], at = tr.To, tr.At
	}
	for i, s := range r.states {
		if cur[i] != s {
			return fmt.Errorf("server %d is %v, its log ends at %v", i, s, cur[i])
		}
	}
	return nil
}

// checkEveryTick runs checkInvariants at the end of every evaluator tick
// for the rest of the test, failing it on the first violation.
func checkEveryTick(t *testing.T) {
	t.Helper()
	failed := false
	afterTick = func(c *Controller) {
		if failed {
			return
		}
		if err := c.reg.checkInvariants(); err != nil {
			failed = true
			t.Errorf("at %v: %v", c.env.Now(), err)
		}
	}
	t.Cleanup(func() { afterTick = nil })
}
