package faults

import (
	"strings"
	"testing"

	"repro/internal/cuda"
	"repro/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{DropProbability: -0.1},
		{DropProbability: 1},
		{FlapEvery: -sim.Millisecond},
		{FlapEvery: sim.Millisecond}, // zero outage
		{StallEvery: sim.Millisecond},
		{DegradeEvery: sim.Millisecond, DegradeFor: sim.Microsecond, DegradeFactor: 1.5},
		{DegradeEvery: sim.Millisecond, DegradeFor: sim.Microsecond},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d (%+v) accepted", i, c)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	if (Config{}).Enabled() {
		t.Error("zero config reports Enabled")
	}
	if !AtIntensity(1, 7).Enabled() {
		t.Error("intensity 1 reports disabled")
	}
	if err := AtIntensity(3, 7).Validate(); err != nil {
		t.Errorf("AtIntensity(3) invalid: %v", err)
	}
	if AtIntensity(0, 7).Enabled() {
		t.Error("intensity 0 injects faults")
	}
}

func TestSubstreamIsolation(t *testing.T) {
	// Draw heavily from one substream; its sibling must be unaffected.
	a1, b1 := Substream(42, 1), Substream(42, 2)
	for i := 0; i < 100; i++ {
		a1.Float64()
	}
	tail := []float64{b1.Float64(), b1.Float64(), b1.Float64()}

	b2 := Substream(42, 2)
	for i, want := range tail {
		if got := b2.Float64(); got != want {
			t.Fatalf("draw %d: %v != %v — sibling stream was perturbed", i, got, want)
		}
	}
	if Substream(42, 1).Float64() == Substream(42, 2).Float64() {
		t.Error("different salts produced identical first draws")
	}
	if SubSeed(42, 1) < 0 || SubSeed(42, 1) != SubSeed(42, 1) {
		t.Error("SubSeed not deterministic and non-negative")
	}
}

func TestWindowsSchedule(t *testing.T) {
	w := newWindows(Substream(7, saltFlap), 10*sim.Millisecond, sim.Millisecond)
	// Replay the same schedule with a fresh generator: decisions must
	// agree at every probe.
	w2 := newWindows(Substream(7, saltFlap), 10*sim.Millisecond, sim.Millisecond)
	downs := 0
	var t0 sim.Time
	for i := 0; i < 10000; i++ {
		t0 = t0.Add(37 * sim.Microsecond)
		d1, u1 := w.at(t0)
		d2, u2 := w2.at(t0)
		if d1 != d2 || u1 != u2 {
			t.Fatalf("probe %d at %v: (%v,%v) != (%v,%v)", i, t0, d1, u1, d2, u2)
		}
		if d1 {
			downs++
			if u1.Sub(t0) > sim.Millisecond {
				t.Fatalf("outage end %v more than one window beyond probe %v", u1, t0)
			}
		}
	}
	// ≈370ms of probes against a ~11ms cycle: expect roughly 1/11 down.
	if downs == 0 || downs == 10000 {
		t.Fatalf("degenerate schedule: %d/10000 probes down", downs)
	}
}

func TestServerScheduleIsolation(t *testing.T) {
	// Server 0's schedule must not depend on whether server 1 exists.
	cfg := Config{Seed: 3, StallEvery: 5 * sim.Millisecond, StallFor: 500 * sim.Microsecond, CrashAfter: sim.Second}
	solo, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pair.Server(1) // materialize the standby first
	var at sim.Time
	for i := 0; i < 2000; i++ {
		at = at.Add(113 * sim.Microsecond)
		s1, u1 := solo.Server(0).StateAt(at)
		s2, u2 := pair.Server(0).StateAt(at)
		if s1 != s2 || u1 != u2 {
			t.Fatalf("probe at %v: (%v,%v) != (%v,%v)", at, s1, u1, s2, u2)
		}
	}
	c0, ok0 := solo.Server(0).crashAt, solo.Server(0).crashes
	c1, ok1 := pair.Server(1).crashAt, pair.Server(1).crashes
	if !ok0 || !ok1 {
		t.Fatal("CrashAfter set but no crash time drawn")
	}
	if c0 == c1 {
		t.Error("primary and standby drew the same crash time")
	}
}

func TestInjectorCountersAndDrops(t *testing.T) {
	cfg := Config{Seed: 9, DropProbability: 0.5}
	in, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drops := 0
	for i := 0; i < 1000; i++ {
		if in.DropsMessage() {
			drops++
		}
	}
	if drops < 400 || drops > 600 {
		t.Fatalf("drops = %d", drops)
	}
	// Disabled loss must not drop anything.
	off, _ := NewInjector(Config{Seed: 9})
	for i := 0; i < 10; i++ {
		if off.DropsMessage() {
			t.Fatal("fault-free injector dropped a message")
		}
	}
}

// runCallInjector drives n link-crossing calls through a CallInjector on
// a fresh simulation and returns the total virtual time consumed.
func runCallInjector(t *testing.T, ci *CallInjector, n int) sim.Duration {
	t.Helper()
	env := sim.NewEnv()
	defer env.Close()
	var total sim.Duration
	env.Spawn("host", func(p *sim.Proc) {
		info := cuda.CallInfo{Name: "cudaLaunchKernelSync:k", Class: cuda.ClassLaunch}
		start := p.Now()
		for i := 0; i < n; i++ {
			if ci != nil {
				ci.Before(p, info)
			}
			p.Sleep(10 * sim.Microsecond) // the call body
			if ci != nil {
				ci.After(p, info)
			}
		}
		total = p.Now().Sub(start)
	})
	env.Run()
	return total
}

func TestCallInjectorZeroIntensityAddsNothing(t *testing.T) {
	ci, err := NewCallInjector(AtIntensity(0, 5), Policy{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := runCallInjector(t, ci, 50)
	if want := runCallInjector(t, nil, 50); got != want {
		t.Fatalf("fault-free run took %v, want exactly %v (the bare loop)", got, want)
	}
	if s := ci.Stats(); s != (CallStats{}) {
		t.Fatalf("fault-free stats = %+v", s)
	}
}

func TestCallInjectorRetriesThenDegrades(t *testing.T) {
	// A near-certain loss rate forces timeouts, retries, breaker trips,
	// failover through the single standby, and finally local degradation.
	cfg := Config{Seed: 11, DropProbability: 0.95}
	ci, err := NewCallInjector(cfg, Policy{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	d1 := runCallInjector(t, ci, 20)
	s := ci.Stats()
	if s.Timeouts == 0 || s.Retries == 0 {
		t.Fatalf("no retries under 95%% loss: %+v", s)
	}
	if s.Failovers < 2 || !s.DegradedToLocal {
		t.Fatalf("expected failover through standby then degradation: %+v", s)
	}
	if d1 <= 20*10*sim.Microsecond {
		t.Fatalf("fault delay unaccounted: total %v, stats %+v", d1, s)
	}

	// Byte-determinism: an identical schedule replays identically.
	ci2, _ := NewCallInjector(cfg, Policy{}, 1)
	if d2 := runCallInjector(t, ci2, 20); d2 != d1 {
		t.Fatalf("replay diverged: %v != %v", d2, d1)
	}
	if s2 := ci2.Stats(); s2 != s {
		t.Fatalf("replay stats diverged: %+v != %+v", s2, s)
	}
}

func TestPolicyBackoffGrowsAndJitters(t *testing.T) {
	p := Policy{}.WithDefaults()
	if p.Backoff(2, nil) <= p.Backoff(1, nil) {
		t.Error("backoff not growing")
	}
	j1, j2 := Substream(1, 1), Substream(1, 1)
	if p.Backoff(1, j1) != p.Backoff(1, j2) {
		t.Error("jittered backoff not deterministic for equal streams")
	}
	if p.Backoff(1, j1) == p.Backoff(1, nil) {
		t.Error("jitter had no effect")
	}
}

func TestCrashChurnWindows(t *testing.T) {
	if err := (Config{CrashFor: sim.Millisecond}).Validate(); err == nil {
		t.Error("CrashFor without CrashAfter accepted")
	}
	cfg := Config{Seed: 11, CrashAfter: 20 * sim.Millisecond, CrashFor: 2 * sim.Millisecond}
	in, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := in.Server(0)
	if srv.crashes {
		t.Error("churn crashes report a permanent crash time")
	}
	// Replay the schedule: churn crashes must recur (down then up again)
	// and OutageAt must bracket every down probe.
	probe, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	psrv := probe.Server(0)
	var at sim.Time
	transitions, downs := 0, 0
	wasDown := false
	for i := 0; i < 20000; i++ {
		at = at.Add(53 * sim.Microsecond)
		state, until := srv.StateAt(at)
		start, end, down := psrv.OutageAt(at)
		if (state == Crashed) != down {
			t.Fatalf("at %v: StateAt=%v but OutageAt down=%v", at, state, down)
		}
		if down {
			downs++
			if at < start || at >= end || end != until {
				t.Fatalf("at %v: outage [%v,%v) does not bracket probe (until %v)", at, start, end, until)
			}
			if d := end.Sub(start) - cfg.CrashFor; d > sim.Nanosecond || d < -sim.Nanosecond {
				t.Fatalf("outage length %v != CrashFor %v", end.Sub(start), cfg.CrashFor)
			}
		}
		if down != wasDown {
			transitions++
			wasDown = down
		}
	}
	if transitions < 4 {
		t.Fatalf("churn crashes did not recur: %d transitions, %d down probes", transitions, downs)
	}
}

func TestPermanentCrashOutageAt(t *testing.T) {
	cfg := Config{Seed: 5, CrashAfter: 10 * sim.Millisecond}
	in, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := in.Server(0)
	crashAt, ok := srv.crashAt, srv.crashes
	if !ok {
		t.Fatal("no crash drawn")
	}
	if _, _, down := srv.OutageAt(crashAt.Add(-sim.Microsecond)); down {
		t.Error("down before the crash instant")
	}
	start, end, down := srv.OutageAt(crashAt.Add(sim.Microsecond))
	if !down || start != crashAt || end != 0 {
		t.Errorf("permanent outage = (%v, %v, %v); want (%v, 0, true)", start, end, down, crashAt)
	}
}

func TestDescribeMatchesInjector(t *testing.T) {
	cfg := Config{
		Seed:            21,
		DropProbability: 0.1,
		FlapEvery:       8 * sim.Millisecond, FlapOutage: 300 * sim.Microsecond,
		StallEvery: 6 * sim.Millisecond, StallFor: 200 * sim.Microsecond,
		CrashAfter: 15 * sim.Millisecond, CrashFor: 2 * sim.Millisecond,
		DegradeEvery: 10 * sim.Millisecond, DegradeFor: 400 * sim.Microsecond,
		DegradeFactor: 0.5,
	}
	horizon := 50 * sim.Millisecond
	out := cfg.Describe(2, horizon)
	for _, want := range []string{"drop", "link flaps", "degraded bandwidth", "server 0", "server 1", "crash outages"} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe output missing %q:\n%s", want, out)
		}
	}
	if out != cfg.Describe(2, horizon) {
		t.Error("Describe is not deterministic")
	}
	// Describing must not perturb a live injector: a fresh injector probed
	// after Describe agrees with one probed without it.
	in, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = cfg.Describe(2, horizon)
	ref, err := NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var at sim.Time
	for i := 0; i < 3000; i++ {
		at = at.Add(71 * sim.Microsecond)
		d1, u1 := in.LinkDown(at)
		d2, u2 := ref.LinkDown(at)
		if d1 != d2 || u1 != u2 {
			t.Fatalf("at %v: described injector diverged", at)
		}
	}
	// Permanent-crash rendering names the crash instant.
	perm := Config{Seed: 4, CrashAfter: sim.Millisecond}
	if !strings.Contains(perm.Describe(1, sim.Second), "permanent") {
		t.Error("permanent crash not described")
	}
	if !strings.Contains((Config{}).Describe(1, sim.Second), "fault-free") {
		t.Error("fault-free schedule not described")
	}
}
