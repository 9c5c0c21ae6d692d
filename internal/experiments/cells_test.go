package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cosmoflow"
	"repro/internal/model"
	"repro/internal/proxy"
	"repro/internal/sim"
)

// checkCells holds one section's cells to their contract; the section is
// the last element of the (sub)test's name. Every key starts with the
// section's name and is unique within it. The cells run as one serial
// sweep; then fresh, an independently built list of the same cells, runs
// each cell alone, last first, and each result must equal its row of the
// sweep. A cell that read state a neighbour left behind (a reused
// coroutine, a free list, the event queue's far tier, the pool's slot
// chunks) would differ.
func checkCells[R any](t *testing.T, cells, fresh []cell[R]) {
	t.Helper()
	section := t.Name()[strings.LastIndex(t.Name(), "/")+1:]
	if len(cells) == 0 || len(fresh) != len(cells) {
		t.Fatalf("%d cells, %d rebuilt", len(cells), len(fresh))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if !strings.HasPrefix(c.key, section+"/") {
			t.Errorf("key %q is outside section %q", c.key, section)
		}
		if seen[c.key] {
			t.Errorf("key %q names two cells", c.key)
		}
		seen[c.key] = true
	}
	rows, err := sweep(1, cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(fresh) - 1; i >= 0; i-- {
		got, err := fresh[i].run()
		if err != nil {
			t.Fatalf("%s alone: %v", fresh[i].key, err)
		}
		if !reflect.DeepEqual(got, rows[i]) {
			t.Errorf("%s alone:\n%+v\nin its sweep:\n%+v", fresh[i].key, got, rows[i])
		}
	}
}

// TestCellAloneMatchesSweep runs every section's cells through
// checkCells at quick parameters, the ones all.golden records.
func TestCellAloneMatchesSweep(t *testing.T) {
	o := Quick()
	tr, err := CollectTraces(o)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := Figure3(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	study, err := Calibrate(pts)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("table1", func(t *testing.T) { checkCells(t, table1Cells(o), table1Cells(o)) })
	t.Run("figure2", func(t *testing.T) { checkCells(t, figure2Cells(o), figure2Cells(o)) })
	t.Run("threads", func(t *testing.T) { checkCells(t, threadCells(o), threadCells(o)) })
	t.Run("cfcpu", func(t *testing.T) { checkCells(t, cfcpuCells(o), cfcpuCells(o)) })
	t.Run("table2", func(t *testing.T) { checkCells(t, table2Cells(o), table2Cells(o)) })
	t.Run("figure3", func(t *testing.T) { checkCells(t, figure3Cells(o, nil), figure3Cells(o, nil)) })
	t.Run("table4", func(t *testing.T) { checkCells(t, table4Cells(study, tr), table4Cells(study, tr)) })
	t.Run("appvalidate", func(t *testing.T) {
		cells, err := appValidationCells(o, study, tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := appValidationCells(o, study, tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkCells(t, cells, fresh)
	})
	t.Run("scales", func(t *testing.T) { checkCells(t, scalesCells(o), scalesCells(o)) })
	t.Run("congestion", func(t *testing.T) { checkCells(t, congestionCells(), congestionCells()) })
	t.Run("remoting", func(t *testing.T) { checkCells(t, remotingCells(o), remotingCells(o)) })
	t.Run("resilience", func(t *testing.T) {
		cells, err := resilienceCells(o)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := resilienceCells(o)
		if err != nil {
			t.Fatal(err)
		}
		checkCells(t, cells, fresh)
	})
	t.Run("weak", func(t *testing.T) { checkCells(t, weakCells(o), weakCells(o)) })
	t.Run("coupling", func(t *testing.T) { checkCells(t, couplingCells(o), couplingCells(o)) })
	t.Run("throughput", func(t *testing.T) { checkCells(t, throughputCells(), throughputCells()) })
	t.Run("reach", func(t *testing.T) { checkCells(t, reachCells(study, tr), reachCells(study, tr)) })
	t.Run("serving", func(t *testing.T) { checkCells(t, servingCells(o), servingCells(o)) })
	t.Run("churn", func(t *testing.T) { checkCells(t, churnCells(o), churnCells(o)) })
	t.Run("pool", func(t *testing.T) { checkCells(t, poolCells(o), poolCells(o)) })
}

// TestFailingCellNamesItself: a sweep's error names the failing cell,
// and with several failing cells it is the lowest-index one at every
// worker count. That holds for the traces' two cells too.
func TestFailingCellNamesItself(t *testing.T) {
	// The traces run at quick sizes, so the CosmoFlow cell that -j 2 runs
	// beside the failing LAMMPS one stays cheap.
	badTraces := Quick()
	badTraces.LAMMPSSteps = -1
	for _, c := range []struct {
		name, want string
		run        func(jobs int) error
	}{
		{"Table1", "table1/box20: lammps: invalid run shape", func(jobs int) error {
			_, err := Table1(Options{LAMMPSSteps: -1, Jobs: jobs})
			return err
		}},
		{"CollectTraces", "traces/lammps: lammps: invalid run shape", func(jobs int) error {
			o := badTraces
			o.Jobs = jobs
			_, err := CollectTraces(o)
			return err
		}},
	} {
		var msgs []string
		for _, jobs := range []int{1, 2} {
			err := c.run(jobs)
			if err == nil {
				t.Fatalf("%s -j %d: a negative step count ran", c.name, jobs)
			}
			msgs = append(msgs, err.Error())
		}
		if msgs[0] != msgs[1] {
			t.Errorf("%s: -j 1 and -j 2 report different errors:\n%s\n%s", c.name, msgs[0], msgs[1])
		}
		if !strings.HasPrefix(msgs[0], c.want) {
			t.Errorf("%s: error %q does not start with %q", c.name, msgs[0], c.want)
		}
	}
}

// TestProxyGridIsSharedOnce holds the premise that lets Figure 3's sweep
// stand in for the calibration and self-validation sweeps: the points
// Calibrate keeps are the calibration grid's own sweep, and Validate's
// measurement is the two runs it used to make itself.
func TestProxyGridIsSharedOnce(t *testing.T) {
	o := Quick()
	pts, err := Figure3(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := proxy.Sweep([]int{1 << 9, 1 << 11, 1 << 13}, []int{1, 4, 8}, model.PaperSlacks(), o.ProxyIters)
	if err != nil {
		t.Fatal(err)
	}
	if got := calibrationPoints(pts); !reflect.DeepEqual(got, want) {
		t.Errorf("calibration points of Figure 3 (%d) differ from the calibration sweep (%d)", len(got), len(want))
	}

	v, err := Validate(o)
	if err != nil {
		t.Fatal(err)
	}
	base, err := proxy.Run(proxy.Config{MatrixSize: 1 << 11, Threads: 1, Iters: o.ProxyIters})
	if err != nil {
		t.Fatal(err)
	}
	run, err := proxy.Run(proxy.Config{MatrixSize: 1 << 11, Threads: 1, Iters: o.ProxyIters, Slack: sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if want := proxy.Penalty(base, run); v.Measured != want {
		t.Errorf("Validate measured %v, two direct runs give %v", v.Measured, want)
	}

	twoThreads, err := Figure3(o, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Calibrate(twoThreads); err == nil {
		t.Error("Calibrate built a study from a sweep with no calibration point")
	}
	if _, err := ValidateFromSweep(o, twoThreads); err == nil {
		t.Error("ValidateFromSweep ran without its 2^11, 1-thread, 1ms point")
	}
}

// TestCosmoFlowBaselineIsTheTrace holds the premise that lets the in-situ
// validation read CosmoFlow's zero-slack baseline from the traces: the
// recorded profiling run takes exactly as long as an unrecorded one, and
// a fresh recorded run profiles as tr.profiles() does. A recorder that
// perturbed the run would fail here before any golden does.
func TestCosmoFlowBaselineIsTheTrace(t *testing.T) {
	o := Quick()
	tr, err := CollectTraces(o)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := cosmoflow.RunPerf(cosmoflowConfig(o))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.CosmoFlow.Runtime(); got != plain.Runtime {
		t.Errorf("recorded runtime %v, unrecorded %v", got, plain.Runtime)
	}
	cfg := cosmoflowConfig(o)
	cfg.Record = true
	rec, err := cosmoflow.RunPerf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, profiles := tr.profiles()
	if got := model.ProfileFromTrace(rec.Trace, cosmoflow.ProfileParallelism); !reflect.DeepEqual(got, profiles[1]) {
		t.Errorf("a fresh recorded run profiles as\n%+v\nthe traces' CosmoFlow entry is\n%+v", got, profiles[1])
	}
}
