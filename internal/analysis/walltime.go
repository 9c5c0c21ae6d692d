package analysis

import (
	"go/ast"
	"go/types"
)

// wallClockFuncs are the package time functions that read or wait on the
// host's real clock. Pure conversions and constants (time.Duration,
// time.Millisecond, ...) remain legal.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// WallTime flags wall-clock reads in simulated code. Every instant a
// simulation package observes must be virtual time from internal/sim —
// sim.Time carries the paper's Equations 1–3; a time.Now() sneaking into a
// model makes the regenerated tables depend on host speed. Package main
// (cmd/reproduce and the bench harness) is exempt: progress output there
// wraps the simulation rather than feeding it. Test files are exempt for
// the same reason.
var WallTime = &Analyzer{
	Name: "walltime",
	Run:  runWallTime,
}

func runWallTime(pass *Pass) {
	if pass.Pkg.Name() == "main" {
		return
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn := pkgLevelFunc(pass.Info, sel)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if wallClockFuncs[fn.Name()] {
				pass.Reportf(sel.Pos(), "wall-clock time.%s in simulated code; use internal/sim virtual time", fn.Name())
			}
			return true
		})
	}
}

// pkgLevelFunc resolves sel to a package-level function (receiver-less
// *types.Func), or nil when sel is a method call, field access, or
// unresolved.
func pkgLevelFunc(info *types.Info, sel *ast.SelectorExpr) *types.Func {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	if _, isPkg := info.Uses[id].(*types.PkgName); !isPkg {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() != nil {
		return nil
	}
	return fn
}
