package core

import (
	"testing"

	"repro/internal/cosmoflow"
	"repro/internal/lammps"
	"repro/internal/proxy"
	"repro/internal/sim"
)

// fastStudy builds a study with a reduced sweep so tests stay quick.
func fastStudy(t *testing.T) *Study {
	t.Helper()
	s, err := NewStudy(StudyConfig{
		Sizes:   []int{1 << 9, 1 << 11, 1 << 13},
		Threads: []int{1, 4, 8},
		Iters:   15,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewStudyBuildsSurface(t *testing.T) {
	s := fastStudy(t)
	if s.Surface == nil {
		t.Fatal("study missing surface")
	}
	// Every power-of-two byte count up to 1 TiB rounds up to some surface
	// size, and each size's footprint is one of them: the rounded-up bins
	// name exactly the surface's sizes.
	var bytes []float64
	for e := 0; e <= 40; e++ {
		bytes = append(bytes, float64(int64(1)<<e))
	}
	if sizes := s.Surface.BinTransferSizes(bytes).RoundedUp; len(sizes) != 3 {
		t.Fatalf("surface sizes = %v", sizes)
	}
}

func TestProfileAndPredictLAMMPS(t *testing.T) {
	s := fastStudy(t)
	w := LAMMPSWorkload{Config: lammps.PerfConfig{BoxSize: 60, Procs: 8, Steps: 15}}
	app, tr, err := s.Profile(w)
	if err != nil {
		t.Fatal(err)
	}
	if app.Label != "lammps" || tr == nil {
		t.Fatalf("profile = %+v", app)
	}
	if app.Parallelism != 8 {
		t.Errorf("parallelism = %d", app.Parallelism)
	}
	if len(app.KernelDurations) == 0 || len(app.TransferBytes) == 0 {
		t.Fatal("empty characteristics")
	}
	preds, err := s.Predict(app)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 5 {
		t.Fatalf("predictions = %d", len(preds))
	}
	// Penalties grow (weakly) with slack and lower ≤ upper throughout.
	for i, p := range preds {
		if p.Lower > p.Upper+1e-12 {
			t.Errorf("lower > upper at %v", p.Slack)
		}
		if i > 0 && p.Upper < preds[i-1].Upper-1e-9 {
			t.Errorf("upper not monotone at %v", p.Slack)
		}
	}
}

func TestHeadlineVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-workload study")
	}
	s := fastStudy(t)
	lm := LAMMPSWorkload{Config: lammps.PerfConfig{BoxSize: 120, Procs: 8, Steps: 15}}
	cf := CosmoFlowWorkload{Config: cosmoflow.PerfConfig{
		Epochs: 1, TrainSamples: 16, ValSamples: 8, InputSide: 128,
	}}
	for _, w := range []Workload{lm, cf} {
		app, _, err := s.Profile(w)
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.Assess(app)
		if err != nil {
			t.Fatal(err)
		}
		if v.Slack != 100*sim.Microsecond {
			t.Errorf("verdict slack = %v", v.Slack)
		}
		if v.ReachKm != 20 {
			t.Errorf("reach = %v km, want 20", v.ReachKm)
		}
		// The paper's headline: both applications pessimistically under
		// 1% at 100 µs.
		if !v.Viable {
			t.Errorf("%s not viable at 100µs: %+v", v.App, v.Prediction)
		}
	}
}

func TestProxySelfProfile(t *testing.T) {
	s := fastStudy(t)
	w := ProxyWorkload{Config: proxy.Config{MatrixSize: 1 << 11, Threads: 1, Iters: 15}}
	app, _, err := s.Profile(w)
	if err != nil {
		t.Fatal(err)
	}
	if app.Parallelism != 1 {
		t.Errorf("parallelism = %d", app.Parallelism)
	}
	if w.Name() != "proxy-n2048-t1" {
		t.Errorf("name = %q", w.Name())
	}
}

func TestMaxTolerableSlack(t *testing.T) {
	s := fastStudy(t)
	w := LAMMPSWorkload{Config: lammps.PerfConfig{BoxSize: 60, Procs: 8, Steps: 10}}
	app, _, err := s.Profile(w)
	if err != nil {
		t.Fatal(err)
	}
	slack, km, err := s.MaxTolerableSlack(app, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if slack < 1*sim.Microsecond {
		t.Errorf("tolerable slack = %v, want ≥ 1µs", slack)
	}
	if km <= 0 {
		t.Errorf("reach = %v km", km)
	}
	// A generous budget tolerates at least as much slack as a tight one.
	loose, _, err := s.MaxTolerableSlack(app, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if loose < slack {
		t.Errorf("loose budget slack %v < tight %v", loose, slack)
	}
	if _, _, err := s.MaxTolerableSlack(app, 0); err == nil {
		t.Error("zero budget accepted")
	}
}
