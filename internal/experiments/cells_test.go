package experiments

import (
	"reflect"
	"strings"
	"testing"
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
	study, err := Calibrate(o)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("table1", func(t *testing.T) { checkCells(t, table1Cells(o), table1Cells(o)) })
	t.Run("figure2", func(t *testing.T) { checkCells(t, figure2Cells(o), figure2Cells(o)) })
	t.Run("threads", func(t *testing.T) { checkCells(t, threadCells(o), threadCells(o)) })
	t.Run("cfcpu", func(t *testing.T) { checkCells(t, cfcpuCells(o), cfcpuCells(o)) })
	t.Run("table2", func(t *testing.T) { checkCells(t, table2Cells(o), table2Cells(o)) })
	t.Run("figure3", func(t *testing.T) { checkCells(t, figure3Cells(o, nil), figure3Cells(o, nil)) })
	t.Run("calib", func(t *testing.T) {
		threads := []int{1, 4, 8}
		checkCells(t, calibrationCells(o, "calib", threads), calibrationCells(o, "calib", threads))
	})
	t.Run("validate", func(t *testing.T) {
		threads := []int{1}
		checkCells(t, calibrationCells(o, "validate", threads), calibrationCells(o, "validate", threads))
	})
	t.Run("table4", func(t *testing.T) { checkCells(t, table4Cells(study, tr), table4Cells(study, tr)) })
	t.Run("appvalidate", func(t *testing.T) {
		cells, err := appValidationCells(o, study, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := appValidationCells(o, study, nil)
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
// worker count.
func TestFailingCellNamesItself(t *testing.T) {
	var msgs []string
	for _, jobs := range []int{1, 2} {
		_, err := Table1(Options{LAMMPSSteps: -1, Jobs: jobs})
		if err == nil {
			t.Fatalf("-j %d: a negative step count ran", jobs)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Errorf("-j 1 and -j 2 report different errors:\n%s\n%s", msgs[0], msgs[1])
	}
	if !strings.HasPrefix(msgs[0], "table1/box20: lammps: invalid run shape") {
		t.Errorf("error %q does not name cell table1/box20 ahead of lammps' error", msgs[0])
	}
}
