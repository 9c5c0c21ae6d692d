package experiments

// End-to-end determinism regression: the property every cdivet analyzer
// exists to protect. Rendering the same experiments twice from fresh
// simulation state must produce byte-identical text — the in-process
// equivalent of running `reproduce -exp table4` and `-exp compose` twice
// with the same seed. Any wall-clock read, global-rand draw, or map-order
// dependence anywhere under CollectTraces/Table4/Compose breaks this.

import (
	"strings"
	"testing"
)

func renderTable4Once(t *testing.T) string {
	t.Helper()
	o := Quick()
	traces, err := CollectTraces(o)
	if err != nil {
		t.Fatal(err)
	}
	blocks, _, err := Table4(o, traces)
	if err != nil {
		t.Fatal(err)
	}
	return RenderTable4(blocks)
}

func TestTable4ByteIdentical(t *testing.T) {
	first := renderTable4Once(t)
	second := renderTable4Once(t)
	if first != second {
		t.Fatalf("two identically seeded table4 runs diverged\nfirst:\n%s\nsecond:\n%s", first, second)
	}
	if first == "" {
		t.Fatal("table4 rendered empty")
	}
}

// renderParallelSuite renders a representative slice of the reproduction —
// a table (cells over boxes), a figure (cells over a 2-D grid), the proxy
// slack sweep (one cell per size × threads) and the congestion extension
// (one cell per host count) — at one worker-pool width.
func renderParallelSuite(t *testing.T, jobs int) string {
	t.Helper()
	o := tiny()
	o.Jobs = jobs
	var b strings.Builder
	rows, err := Table1(o)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderTable1(rows))
	series, err := Figure2(o)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderFigure2(series))
	pts, err := Figure3(o, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderFigure3(pts))
	cong, err := Congestion(o)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(RenderCongestion(cong))
	return b.String()
}

// TestParallelSweepByteIdentical is the contract the -j flag advertises:
// the worker-pool width is invisible in the output. Each sweep point owns a
// private sim.Env and results merge in input order, so -j 1 (the exact
// serial path) and -j 8 must render byte-identically.
func TestParallelSweepByteIdentical(t *testing.T) {
	serial := renderParallelSuite(t, 1)
	parallel := renderParallelSuite(t, 8)
	if serial != parallel {
		t.Fatalf("-j 1 and -j 8 diverged\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
	if serial == "" {
		t.Fatal("suite rendered empty")
	}
}

func TestComposeByteIdentical(t *testing.T) {
	render := func() string {
		c, err := Compose()
		if err != nil {
			t.Fatal(err)
		}
		return RenderCompose(c)
	}
	first := render()
	second := render()
	if first != second {
		t.Fatalf("two compose runs diverged\nfirst:\n%s\nsecond:\n%s", first, second)
	}
	if first == "" {
		t.Fatal("compose rendered empty")
	}
}
