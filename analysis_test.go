package cdi

// The repo-wide determinism lint gate: running the cdivet suite is part of
// tier-1 testing, so `go test ./...` fails the moment any package breaks a
// determinism invariant (wall-clock reads, global rand, bare goroutines,
// order-dependent map iteration, exact float comparison, dropped errors,
// shard ownership). The same suite is available interactively as
// `go run ./cmd/cdivet ./...`.
//
// There is no findings baseline: every finding fails the test, and an
// intentional exception must carry an inline `//cdivet:allow <rule>
// <reason>` directive at the line it excuses.

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
