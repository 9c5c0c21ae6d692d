package serve

import (
	"testing"

	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/sim"
)

// stubSignal is a fixed CapacitySignal.
type stubSignal bool

func (s stubSignal) Degraded() bool { return bool(s) }

// runAdmission serves a hand-built schedule on a node-local A100 under
// the given admission config and returns the engine.
func runAdmission(t *testing.T, policy Policy, tenants []Tenant, adm Admission, reqs []Request) *Engine {
	t.Helper()
	return runAdmissionCfg(t, Config{Policy: policy, Tenants: tenants, Admission: adm}, reqs)
}

func runAdmissionCfg(t *testing.T, cfg Config, reqs []Request) *Engine {
	t.Helper()
	env := sim.NewEnv()
	defer env.Close()
	dev, err := gpu.NewDevice(env, gpu.A100())
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	e, err := Start(env, NewLocal(cuda.NewContext(dev, cuda.Config{})), cfg, reqs)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	env.Run()
	if e.Err() != nil {
		t.Fatalf("engine error: %v", e.Err())
	}
	return e
}

func TestShedExpiredRequests(t *testing.T) {
	// One long request holds the device while four more queue up; their
	// 1 ms SLO expires in the queue, so an armed gate sheds all four —
	// counted shed, not failed, and none bills device time.
	tenants := []Tenant{{Name: "tight", Rate: 1, MeanPromptTokens: 8, MeanOutputTokens: 8, SLO: sim.Millisecond}}
	reqs := []Request{
		{ID: 0, Arrival: 0, PromptTokens: 8, OutputTokens: 500},
	}
	for i := 1; i < 5; i++ {
		reqs = append(reqs, Request{ID: i, Arrival: sim.Time(0).Add(100 * sim.Microsecond), PromptTokens: 8, OutputTokens: 1})
	}
	e := runAdmission(t, NoBatch, tenants, Admission{ShedExpired: true}, reqs)
	m := e.Metrics()
	if m.Completed != 1 || m.Shed != 4 {
		t.Fatalf("completed/shed = %d/%d, want 1/4", m.Completed, m.Shed)
	}
	if got := m.ShedByTenant[0]; got != 4 {
		t.Errorf("ShedByTenant[0] = %d, want 4", got)
	}
	rep := m.Report(testWindow)
	if rep.Failed != 0 {
		t.Errorf("report counts %d failed; shed requests are not failures", rep.Failed)
	}
	if rep.Shed != 4 || rep.ShedRate != 0.8 {
		t.Errorf("report shed/rate = %d/%g, want 4/0.8", rep.Shed, rep.ShedRate)
	}
}

func TestShedDisarmedWithoutDegradation(t *testing.T) {
	// The same overload with a healthy capacity signal sheds nothing: the
	// gate is armed only while the pool is degraded.
	tenants := []Tenant{{Name: "tight", Rate: 1, MeanPromptTokens: 8, MeanOutputTokens: 8, SLO: sim.Millisecond}}
	reqs := []Request{{ID: 0, Arrival: 0, PromptTokens: 8, OutputTokens: 500}}
	for i := 1; i < 5; i++ {
		reqs = append(reqs, Request{ID: i, Arrival: sim.Time(0).Add(100 * sim.Microsecond), PromptTokens: 8, OutputTokens: 1})
	}
	e := runAdmission(t, NoBatch, tenants,
		Admission{ShedExpired: true, MaxQueue: 2, Capacity: stubSignal(false)}, reqs)
	m := e.Metrics()
	if m.Completed != 5 || m.Shed != 0 {
		t.Fatalf("completed/shed = %d/%d, want 5/0", m.Completed, m.Shed)
	}
}

func TestBackpressureShedsLowestPriorityFirst(t *testing.T) {
	// Queue cap 2 while a long request occupies the device. Arrival order:
	// A1, B1 fill the queue; A2 overflows it and evicts B1 (priority 1 >
	// priority 0, latest such arrival); B2 overflows and sheds itself
	// (nothing queued ranks below priority 1). The protected tenant A
	// loses nothing.
	tenants := []Tenant{
		{Name: "protected", Rate: 1, MeanPromptTokens: 8, MeanOutputTokens: 8, SLO: sim.Second, Priority: 0},
		{Name: "besteffort", Rate: 1, MeanPromptTokens: 8, MeanOutputTokens: 8, SLO: sim.Second, Priority: 1},
	}
	at := func(us int) sim.Time { return sim.Time(0).Add(sim.Duration(us) * sim.Microsecond) }
	reqs := []Request{
		{ID: 0, Tenant: 0, Arrival: 0, PromptTokens: 8, OutputTokens: 200},
		{ID: 1, Tenant: 0, Arrival: at(100), PromptTokens: 8, OutputTokens: 1}, // A1
		{ID: 2, Tenant: 1, Arrival: at(110), PromptTokens: 8, OutputTokens: 1}, // B1: evicted
		{ID: 3, Tenant: 0, Arrival: at(120), PromptTokens: 8, OutputTokens: 1}, // A2
		{ID: 4, Tenant: 1, Arrival: at(130), PromptTokens: 8, OutputTokens: 1}, // B2: self-shed
	}
	e := runAdmission(t, NoBatch, tenants, Admission{MaxQueue: 2}, reqs)
	m := e.Metrics()
	if m.Completed != 3 || m.Shed != 2 {
		t.Fatalf("completed/shed = %d/%d, want 3/2", m.Completed, m.Shed)
	}
	if m.ShedByTenant[0] != 0 || m.ShedByTenant[1] != 2 {
		t.Errorf("shed by tenant = %v, want [0 2]", m.ShedByTenant)
	}
}

func TestBackpressureTieShedsIncoming(t *testing.T) {
	// With only equal-priority requests queued, the incoming request
	// sheds itself: queued work is older and closer to its deadline, so
	// displacing it would waste the wait already paid.
	tenants := []Tenant{{Name: "only", Rate: 1, MeanPromptTokens: 8, MeanOutputTokens: 8, SLO: sim.Second}}
	at := func(us int) sim.Time { return sim.Time(0).Add(sim.Duration(us) * sim.Microsecond) }
	reqs := []Request{
		{ID: 0, Arrival: 0, PromptTokens: 8, OutputTokens: 200},
		{ID: 1, Arrival: at(100), PromptTokens: 8, OutputTokens: 1},
		{ID: 2, Arrival: at(110), PromptTokens: 8, OutputTokens: 1},
		{ID: 3, Arrival: at(120), PromptTokens: 8, OutputTokens: 1}, // self-shed
	}
	e := runAdmission(t, NoBatch, tenants, Admission{MaxQueue: 2}, reqs)
	m := e.Metrics()
	if m.Completed != 3 || m.Shed != 1 {
		t.Fatalf("completed/shed = %d/%d, want 3/1", m.Completed, m.Shed)
	}
	// The completed set is exactly {0,1,2}: three latencies recorded.
	if len(m.Latencies) != 3 {
		t.Errorf("recorded %d latencies, want 3", len(m.Latencies))
	}
}

func TestShedEverythingStillTerminates(t *testing.T) {
	// Every queued request expires while one long request runs, including
	// the final arrival — the engine must notice completion via the shed
	// count, not hang waiting for more work.
	tenants := []Tenant{{Name: "tight", Rate: 1, MeanPromptTokens: 8, MeanOutputTokens: 8, SLO: sim.Millisecond}}
	reqs := []Request{{ID: 0, Arrival: 0, PromptTokens: 8, OutputTokens: 500}}
	for i := 1; i < 4; i++ {
		reqs = append(reqs, Request{ID: i, Arrival: sim.Time(0).Add(sim.Duration(i) * sim.Millisecond), PromptTokens: 8, OutputTokens: 1})
	}
	for _, policy := range []Policy{NoBatch, FixedBatch, Continuous} {
		// MaxBatch 1 keeps continuous batching from absorbing the queue
		// into the active batch before the waits expire.
		e := runAdmissionCfg(t, Config{Policy: policy, MaxBatch: 1, Tenants: tenants,
			Admission: Admission{ShedExpired: true}}, reqs)
		m := e.Metrics()
		if m.Completed+m.Shed != len(reqs) {
			t.Errorf("%v: completed %d + shed %d != %d offered", policy, m.Completed, m.Shed, len(reqs))
		}
		if m.Shed == 0 {
			t.Errorf("%v: expected expired requests to be shed", policy)
		}
	}
}

func TestAdmissionMergeAndPriorityValidation(t *testing.T) {
	bad := Tenant{Name: "x", Rate: 1, MeanPromptTokens: 1, MeanOutputTokens: 1, SLO: sim.Second, Priority: -1}
	if err := bad.validate(); err == nil {
		t.Error("negative tenant priority accepted")
	}
}
