// Package analysis is a stdlib-only static-analysis framework (go/parser +
// go/ast + go/types, no external dependencies) that machine-checks the
// determinism invariants the reproduction rests on.
//
// DESIGN.md's "Numbers vs shapes" argument only holds if every table and
// figure regenerates byte-identically from a seed: the discrete-event engine
// in internal/sim hands control to exactly one process at a time, all
// randomness flows from explicit rand.New(rand.NewSource(seed)) streams, and
// no result-emitting path depends on Go map iteration order. Nothing in the
// compiler enforces any of that — a single time.Now(), global rand.Intn, or
// unsorted map range silently corrupts every regenerated artifact. The
// analyzers in this package turn those conventions into build-breaking
// checks:
//
//	walltime    wall-clock time in simulated code
//	seededrand  global math/rand instead of an explicit seeded stream
//	barego      go statements outside the sim engine
//	floateq     exact float ==/!= outside internal/stats helpers
//	errdrop     silently discarded error returns in internal and cmd
//	taint       nondeterministic value, or map iteration order, reaching a
//	            result-emitting sink
//	testonly    exported API in internal packages that only tests use, or a
//	            struct field that only tests read
//
// The first five are per-file syntactic/type checks. testonly reads the
// uses of every package at once (testonly.go). taint runs on a
// module-wide dataflow layer (dataflow.go, callgraph.go): it propagates
// nondeterminism through assignments, returns, and cross-package calls and
// reports only at sinks, so the sorted-keys idiom stays silent while a
// map-order value laundered through a helper in another package is still
// caught. A sink inside a map-range body is reported even for a
// deterministic value, because the loop emits it once per key in map order.
//
// Intentional exceptions are suppressed in source with a justified
// directive on, or immediately above, the offending line:
//
//	//cdivet:allow <rule> <reason...>
//
// A directive without a reason, naming an unknown rule, or matching no
// finding is itself reported (rule "directive"), so the suppressions stay
// honest.
//
// The one entry point is the repo-wide test gate (analysis_test.go at the
// module root): `go test ./...` fails on any finding or stale directive.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation (or directive problem) at a position.
type Finding struct {
	Rule    string
	Pos     token.Position
	File    string
	Line    int
	Col     int
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Rule, f.Message)
}

// Analyzer is one determinism check. Per-package analyzers set Run, which
// inspects the files of one Pass; module-wide analyzers set RunModule
// instead and see every package of the module at once (the dataflow rules
// need cross-package call summaries). Exactly one of the two is non-nil.
type Analyzer struct {
	Name      string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// Pass presents one type-checked package variant (base files, in-package
// test files, or external test package) to an analyzer. Findings are only
// reported for positions inside Files — the loader arranges for each source
// file to appear in exactly one pass, so nothing is double-reported.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the files this pass owns for reporting purposes.
	Files []*ast.File
	// Path is the package import path, e.g. "repro/internal/sim". Test
	// variants share the base package's path.
	Path string
	Pkg  *types.Package
	Info *types.Info

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, newFinding(p.Fset, p.Analyzer.Name, pos, format, args...))
}

func newFinding(fset *token.FileSet, rule string, pos token.Pos, format string, args ...any) Finding {
	position := fset.Position(pos)
	return Finding{
		Rule:    rule,
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	}
}

// ModulePass presents the whole loaded module to a module-wide analyzer.
// Test files are outside the dataflow rules' scope: summaries and findings
// cover base files only (tests assert on nondeterministic artifacts — their
// own output — by design, and are gated by the determinism regression tests
// instead).
type ModulePass struct {
	Analyzer *Analyzer
	Module   *Module

	findings *[]Finding
}

// Reportf records a finding at pos.
func (mp *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*mp.findings = append(*mp.findings, newFinding(mp.Module.Fset, mp.Analyzer.Name, pos, format, args...))
}

// IsTestFile reports whether f is a _test.go file.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		WallTime,
		SeededRand,
		BareGo,
		FloatEq,
		ErrDrop,
		Taint,
		TestOnly,
	}
}

// sortFindings orders findings by file, line, column, rule, message so
// output is stable across runs regardless of analyzer scheduling.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}
