package experiments

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/proxy"
	"repro/internal/runner"
)

// cell is one addressable point of a sweep. Its key names it by section
// and coordinates ("table1/box20", "figure3/2^11/t4",
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

// The calibration grid is the part of Figure 3's grid the proxy surface
// is built from: the sizes up to 2^13 at 1, 4 and 8 threads, over the
// paper's Table IV slacks.
var calibrationThreads = []int{1, 4, 8}

const calibrationMaxSize = 1 << 13

// calibrationPoints returns the points of a Figure 3 sweep that lie on
// the calibration grid, in sweep order.
func calibrationPoints(pts []proxy.SweepPoint) []proxy.SweepPoint {
	out := make([]proxy.SweepPoint, 0, len(pts))
	for _, pt := range pts {
		if pt.MatrixSize <= calibrationMaxSize && slices.Contains(calibrationThreads, pt.Threads) {
			out = append(out, pt)
		}
	}
	return out
}

// Calibrate builds the study that Table IV, the distance budget and the
// in-situ validation predict from, out of a Figure 3 sweep's calibration
// points. cmd/reproduce sweeps Figure 3 once and calibrates all three
// from it. A sweep with no calibration point is an error.
func Calibrate(pts []proxy.SweepPoint) (*core.Study, error) {
	return core.NewStudyFromSweep(calibrationPoints(pts), nil)
}
