package cdi

// The repo-wide determinism lint gate and the suite's only entry point:
// running the cdivet suite is part of tier-1 testing, so `go test ./...`
// fails the moment any package breaks a determinism invariant (wall-clock
// reads, global rand, bare goroutines, exact float comparison, dropped
// errors, or a nondeterministic value or map-range loop reaching a
// result-emitting sink), and the moment an exported name in internal/ is
// used only by tests. To check one scratch package, run
// `go test -run TestDeterminismInvariants .` with it in the tree.
//
// There is no findings baseline: every finding fails the test, and an
// intentional exception must carry an inline `//cdivet:allow <rule>
// <reason>` directive at the line it excuses. A directive that suppresses
// nothing fails the test too.

import (
	"testing"

	"repro/internal/analysis"
)

func TestDeterminismInvariants(t *testing.T) {
	findings, err := analysis.Run(analysis.Config{})
	if err != nil {
		t.Fatalf("cdivet suite failed to run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Logf("fix the violation or, if the pattern is intentionally safe, add `//cdivet:allow <rule> <reason>` on or above the line")
	}
}
