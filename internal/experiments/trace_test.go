package experiments

import (
	"testing"

	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestTracingDoesNotPerturb runs the cells -trace writes, at the
// writers' coordinates, with and without a recorder and demands equal
// results field for field: recording a window must not move one event of
// the run it records. The untraced cells, which the sweeps run, return no
// spans.
func TestTracingDoesNotPerturb(t *testing.T) {
	window := Quick().ServeWindow
	const sl = 100 * sim.Microsecond

	plain, none, err := servingCell(serve.Continuous, sl, servingLoads[1], window, servingSeed(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, spans, err := servingCell(serve.Continuous, sl, servingLoads[1], window, servingSeed(1), trace.NewRecorder("serving"))
	if err != nil {
		t.Fatal(err)
	}
	if traced != plain {
		t.Errorf("tracing perturbs the serving cell:\ntraced:   %+v\nuntraced: %+v", traced, plain)
	}
	if none != nil || len(spans) == 0 {
		t.Errorf("serving cell spans: %d untraced, %d traced; want none, then some", len(none), len(spans))
	}

	const loadIdx, intIdx = 1, 2
	plainRow, none, err := churnCell(sl, servingLoads[loadIdx], churnIntensities[intIdx], window, loadIdx, intIdx, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	tracedRow, spans, err := churnCell(sl, servingLoads[loadIdx], churnIntensities[intIdx], window, loadIdx, intIdx, true, trace.NewRecorder("churn"))
	if err != nil {
		t.Fatal(err)
	}
	if tracedRow != plainRow {
		t.Errorf("tracing perturbs the managed churn cell:\ntraced:   %+v\nuntraced: %+v", tracedRow, plainRow)
	}
	if plainRow.Failovers+plainRow.Migrations+plainRow.Readmissions == 0 || plainRow.Detection <= 0 {
		t.Errorf("managed churn cell exercised no control plane: %+v", plainRow)
	}
	if none != nil || len(spans) == 0 {
		t.Errorf("churn cell spans: %d untraced, %d traced; want none, then some", len(none), len(spans))
	}
}
