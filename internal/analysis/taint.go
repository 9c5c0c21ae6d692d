package analysis

// Taint is the module-wide nondeterminism dataflow rule. Values originating
// from map iteration order, the wall clock, or unseeded global randomness
// are propagated through assignments, returns, and cross-package calls, and
// reported only where they reach a result-emitting sink: a print/write/
// encode call, a channel send, or sim event scheduling. This closes both
// gaps of per-file checking: a map-order value returned from one package
// and emitted in another is caught, while a map range whose output is
// sorted before use stays silent. A sink inside a map-range body is
// reported even when its value is deterministic: the loop emits once per
// key, in map order.
var Taint = &Analyzer{
	Name:      "taint",
	RunModule: runTaint,
}

func runTaint(mp *ModulePass) {
	g := buildCallGraph(mp.Module)

	// Summary fixpoint: re-derive (returnsTaint, retParams, sinkParams) for
	// every function until stable. Convergence is fast in practice; the
	// round cap is a guard against pathological reason-string oscillation.
	for round := 0; round < 10; round++ {
		changed := false
		for _, n := range g.nodes {
			returns, retParams, sinkBits := analyzeFunc(g, n, nil)
			sinkParams := bitsToBools(sinkBits, len(n.sinkParams))
			if returns != n.returnsTaint || retParams != n.retParams || !equalBools(sinkParams, n.sinkParams) {
				changed = true
			}
			n.returnsTaint, n.retParams = returns, retParams
			n.sinkParams = sinkParams
		}
		if !changed {
			break
		}
	}

	// Reporting pass with converged summaries.
	for _, n := range g.nodes {
		analyzeFunc(g, n, mp.Reportf)
	}
}

func bitsToBools(bits uint64, n int) []bool {
	out := make([]bool, n)
	for i := 0; i < n && i < 64; i++ {
		out[i] = bits&(1<<uint(i)) != 0
	}
	return out
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
