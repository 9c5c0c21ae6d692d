package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// BareGo flags go statements in simulation packages outside internal/sim.
// The engine's determinism rests on single-owner handoff: exactly one
// process runs at a time, and only the sim scheduler may create goroutines
// (sim.Env.SpawnAt) because only it sequences their wake-ups through the
// event heap. Work that never blocks needs no goroutine at all:
// sim.Env.After sequences a callback through the same heap. A bare
// goroutine anywhere else in the model reintroduces real concurrency — and
// with it scheduling nondeterminism — behind the engine's back. Package main and test files may use goroutines; they sit
// outside the simulated world.
//
// One shape is exempt: a structured sync.WaitGroup worker pool. A
// `go func() { ... }()` whose literal calls Done on a sync.WaitGroup that
// the enclosing function Waits on after the go statement cannot outlive its
// caller, so any nondeterminism it could introduce is confined to the span
// before the join — the shape internal/runner uses to fan sweeps out while
// keeping results ordered. Pools built from named functions (the Done call
// is out of sight) or whose Wait is missing or on a different WaitGroup are
// still flagged.
var BareGo = &Analyzer{
	Name: "barego",
	Run:  runBareGo,
}

func runBareGo(pass *Pass) {
	if pass.Pkg.Name() == "main" {
		return
	}
	if pass.Path == "repro/internal/sim" || strings.HasSuffix(pass.Path, "/internal/sim") {
		return
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		// Track the enclosing-node stack so a go statement can find the
		// function body it must be joined in.
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if g, ok := n.(*ast.GoStmt); ok && !structuredPool(pass, g, stack) {
				pass.Reportf(g.Pos(), "bare goroutine outside internal/sim; spawn simulated processes via sim.Env, or join the goroutine through a sync.WaitGroup Done/Wait pair in the spawning function")
			}
			return true
		})
	}
}

// structuredPool reports whether g is a sync.WaitGroup-joined pool worker:
// a function literal that calls Done on a sync.WaitGroup which the nearest
// enclosing function Waits on after the go statement. stack is the
// ancestor chain ending at g.
func structuredPool(pass *Pass, g *ast.GoStmt, stack []ast.Node) bool {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		// go worker(&wg): the Done call is in another function, so the
		// join is not locally checkable; stay conservative.
		return false
	}
	wg := doneTarget(pass, lit)
	if wg == nil {
		return false
	}
	// The literal itself is a child of g, so walking ancestors from just
	// below g finds the true enclosing function.
	for i := len(stack) - 2; i >= 0; i-- {
		var body *ast.BlockStmt
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		default:
			continue
		}
		return waitsAfter(pass, body, g, wg)
	}
	return false
}

// doneTarget returns the object of the sync.WaitGroup a pool worker calls
// Done on (deferred or not), or nil if the literal has no such call.
func doneTarget(pass *Pass, lit *ast.FuncLit) types.Object {
	var wg types.Object
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if wg != nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if obj := syncWaitGroupRecv(pass, call, "Done"); obj != nil {
				wg = obj
				return false
			}
		}
		return true
	})
	return wg
}

// waitsAfter reports whether body calls Wait on wg at a position after the
// go statement — the join that bounds the worker's lifetime.
func waitsAfter(pass *Pass, body *ast.BlockStmt, g *ast.GoStmt, wg types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < g.End() {
			return true
		}
		if syncWaitGroupRecv(pass, call, "Wait") == wg {
			found = true
			return false
		}
		return true
	})
	return found
}

// syncWaitGroupRecv returns the receiver variable's object when call is
// `x.name()` with x an identifier whose method resolves to package sync —
// which distinguishes sync.WaitGroup from the simulated sim.WaitGroup.
// Non-identifier receivers (fields, calls) return nil: the analyzer stays
// conservative where it cannot match Done and Wait to the same variable.
func syncWaitGroupRecv(pass *Pass, call *ast.CallExpr, name string) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return nil
	}
	s, ok := pass.Info.Selections[sel]
	if !ok {
		return nil
	}
	if pkg := s.Obj().Pkg(); pkg == nil || pkg.Path() != "sync" {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.Info.Uses[id]
}
