package experiments

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/proxy"
	"repro/internal/runner"
	"repro/internal/sim"
)

// cell is one addressable point of a sweep. Its key names it by section
// and coordinates ("table1/box20", "calib/2^11/t4",
// "serving/continuous/load1/100µs"), and run computes it in a private
// simulation from the values the closure captured, so a cell gives the
// same result alone as inside its sweep.
type cell[R any] struct {
	key string
	run func() (R, error)
}

// sweep runs cells on a pool of jobs workers (Options.Jobs: non-positive
// selects GOMAXPROCS, 1 the exact serial path) and returns their results
// in cell order. A failing cell's error is prefixed with its key; with
// several failures it is the lowest-index one's, at every worker count.
func sweep[R any](jobs int, cells []cell[R]) ([]R, error) {
	return runner.Map(jobs, len(cells), func(i int) (R, error) {
		r, err := cells[i].run()
		if err != nil {
			return r, fmt.Errorf("%s: %w", cells[i].key, err)
		}
		return r, nil
	})
}

// proxyCells returns one proxy.Series cell per (size, threads)
// combination of a grid, in grid order, keyed section/2^k/tN.
func proxyCells(section string, sizes, threads []int, slacks []sim.Duration, iters int) []cell[[]proxy.SweepPoint] {
	var cells []cell[[]proxy.SweepPoint]
	for _, n := range sizes {
		for _, t := range threads {
			cells = append(cells, cell[[]proxy.SweepPoint]{fmt.Sprintf("%s/2^%d/t%d", section, log2(n), t),
				func() ([]proxy.SweepPoint, error) { return proxy.Series(n, t, slacks, iters) }})
		}
	}
	return cells
}

// proxySweep runs proxy cells and returns their points in grid order, as
// proxy.Sweep does.
func proxySweep(jobs int, cells []cell[[]proxy.SweepPoint]) ([]proxy.SweepPoint, error) {
	series, err := sweep(jobs, cells)
	return slices.Concat(series...), err
}

// calibrationCells is a calibration's proxy grid: the sizes 2^9, 2^11
// and 2^13 at the given thread counts over the paper's Table IV slacks.
func calibrationCells(o Options, section string, threads []int) []cell[[]proxy.SweepPoint] {
	return proxyCells(section, []int{1 << 9, 1 << 11, 1 << 13}, threads, model.PaperSlacks(), o.ProxyIters)
}

// Calibrate sweeps the calibration grid at 1, 4 and 8 threads and builds
// the study that Table IV, the distance budget and the in-situ validation
// predict from. cmd/reproduce calibrates once and hands the study to all
// three.
func Calibrate(o Options) (*core.Study, error) {
	pts, err := proxySweep(o.Jobs, calibrationCells(o, "calib", []int{1, 4, 8}))
	if err != nil {
		return nil, err
	}
	return core.NewStudyFromSweep(pts, nil)
}
