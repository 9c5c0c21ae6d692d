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
// unsorted map range silently corrupts every regenerated artifact. The six
// analyzers in this package turn those conventions into build-breaking
// checks:
//
//	walltime    wall-clock time in simulated code
//	seededrand  global math/rand instead of an explicit seeded stream
//	barego      go statements outside the sim engine
//	maporder    map iteration with order-dependent effects
//	floateq     exact float ==/!= outside internal/stats helpers
//	errdrop     silently discarded error returns in internal, cmd, examples
//	taint       nondeterministic value reaching a result-emitting sink
//	simunits    unitless literals / float64 round-trips in sim.Duration math
//	waitlock    sync.Mutex held across a simulated wait point
//	shardsafety cross-shard write to shard-owned state without a wait edge
//	waitgraph   sim.Signal deadlock / lost-wake / unbound-use patterns
//
// The first six are per-file syntactic/type checks. The rest run on a
// module-wide dataflow layer (dataflow.go, callgraph.go): taint propagates
// nondeterminism through assignments, returns, and cross-package calls and
// reports only at sinks, so the sorted-keys idiom stays silent while a
// map-order value laundered through a helper in another package is still
// caught; and shardsafety and waitgraph reason over the shard-affinity
// context (shardctx.go) — which proc runs on which event domain, and how
// sim.Signal wait/fire edges order them.
//
// Intentional exceptions are suppressed in source with a justified
// directive on, or immediately above, the offending line:
//
//	//cdivet:allow <rule> <reason...>
//
// A directive without a reason, naming an unknown rule, or matching no
// finding is itself reported (rule "directive"), so the suppression
// inventory stays honest.
//
// The suite is exposed two ways: the cdivet command (cmd/cdivet) and a
// repo-wide test gate (analysis_test.go at the module root) that makes
// `go test ./...` fail on any new violation.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation (or directive problem) at a position. A
// finding may carry a machine-applicable Fix (`cdivet -fix`).
type Finding struct {
	Rule    string         `json:"rule"`
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Message string         `json:"message"`
	Fix     *Fix           `json:"fix,omitempty"`
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
	Doc       string
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
	*p.findings = append(*p.findings, newFinding(p.Fset, p.Analyzer.Name, pos, nil, format, args...))
}

// ReportFixf records a finding at pos carrying a machine-applicable fix.
func (p *Pass) ReportFixf(pos token.Pos, fix *Fix, format string, args ...any) {
	*p.findings = append(*p.findings, newFinding(p.Fset, p.Analyzer.Name, pos, fix, format, args...))
}

func newFinding(fset *token.FileSet, rule string, pos token.Pos, fix *Fix, format string, args ...any) Finding {
	position := fset.Position(pos)
	return Finding{
		Rule:    rule,
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
		Fix:     fix,
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
	*mp.findings = append(*mp.findings, newFinding(mp.Module.Fset, mp.Analyzer.Name, pos, nil, format, args...))
}

// ReportFixf records a finding at pos carrying a machine-applicable fix.
func (mp *ModulePass) ReportFixf(pos token.Pos, fix *Fix, format string, args ...any) {
	*mp.findings = append(*mp.findings, newFinding(mp.Module.Fset, mp.Analyzer.Name, pos, fix, format, args...))
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
		MapOrder,
		FloatEq,
		ErrDrop,
		Taint,
		SimUnits,
		WaitLock,
		ShardSafety,
		WaitGraph,
	}
}

// ByName resolves a comma-separated rule list against the full suite.
func ByName(names string) ([]*Analyzer, error) {
	index := map[string]*Analyzer{}
	for _, a := range All() {
		index[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := index[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown rule %q", n)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("analysis: empty rule list %q", names)
	}
	return out, nil
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
