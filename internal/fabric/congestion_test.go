package fabric

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestSharedLinkUncontendedMatchesNominal(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	link, err := NewSharedLink(env, 10*sim.Microsecond, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	var got sim.Duration
	env.Spawn("host", func(p *sim.Proc) {
		got = link.Transfer(p, 1_000_000) // 10µs + 1ms
	})
	env.Run()
	want := 10*sim.Microsecond + 1*sim.Millisecond
	if math.Abs(float64(got-want)) > 1e-12 {
		t.Errorf("transfer = %v, want %v", got, want)
	}
	if link.MeanQueueing() != 0 {
		t.Errorf("queueing = %v on idle link", link.MeanQueueing())
	}
	if link.Transfers() != 1 {
		t.Errorf("transfers = %d", link.Transfers())
	}
}

func TestSharedLinkSerializesContenders(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	link, err := NewSharedLink(env, 0, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		env.Spawn("host", func(p *sim.Proc) {
			link.Transfer(p, 1_000_000) // 1ms each
		})
	}
	end := env.Run()
	if math.Abs(float64(end)-3e-3) > 1e-12 {
		t.Errorf("3 transfers finished at %v, want 3ms (serialized)", end)
	}
	if link.MeanQueueing() <= 0 {
		t.Error("no queueing recorded under contention")
	}
	if u := link.Utilization(); math.Abs(u-1.0) > 1e-9 {
		t.Errorf("utilization = %v, want 1.0", u)
	}
}

func TestSharedLinkValidation(t *testing.T) {
	if _, err := NewSharedLink(sim.NewEnv(), 0, 0); err == nil {
		t.Fatal("invalid link accepted")
	}
	if _, err := NewSharedLink(sim.NewEnv(), -sim.Microsecond, 1e9); err == nil {
		t.Fatal("negative latency accepted")
	}
}

func TestCongestionSweepInflatesWithLoad(t *testing.T) {
	pts, err := CongestionSweep(
		[]int{1, 4, 16},
		1<<20,             // 1 MiB messages
		1*sim.Millisecond, // think time
		1*sim.Microsecond, // latency
		23e9,              // HDR-class bandwidth
		30,                // transfers per host
		0,                 // jobs
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// One host: the paper's assumption holds exactly.
	if pts[0].SlackInflation > 1.0001 {
		t.Errorf("single-host inflation = %v, want ≈ 1", pts[0].SlackInflation)
	}
	// Inflation and utilization must grow with host count.
	for i := 1; i < len(pts); i++ {
		if pts[i].SlackInflation < pts[i-1].SlackInflation {
			t.Errorf("inflation not monotone: %+v", pts)
		}
		if pts[i].Utilization < pts[i-1].Utilization {
			t.Errorf("utilization not monotone: %+v", pts)
		}
	}
	// 16 hosts × (1MiB / 23GB/s ≈ 46µs) per ~1ms cycle ≈ 70% utilization:
	// queueing must be visible by then.
	if pts[2].SlackInflation < 1.05 {
		t.Errorf("16-host inflation = %v, want noticeable queueing", pts[2].SlackInflation)
	}
}

func TestCongestionSweepValidation(t *testing.T) {
	if _, err := CongestionSweep([]int{1}, 0, 0, 0, 1e9, 1, 0); err == nil {
		t.Error("zero message size accepted")
	}
	if _, err := CongestionSweep([]int{0}, 1, 0, 0, 1e9, 1, 0); err == nil {
		t.Error("zero hosts accepted")
	}
}
