package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDrop flags statement-position calls in internal and cmd packages
// whose error result vanishes. A swallowed error in a persistence
// or rendering path turns a failed write into a silently truncated artifact
// — worse than a crash for a reproduction whose whole output is regenerated
// files; in a cmd/ entry point it additionally turns a failed run into exit
// status 0. The rule covers plain expression statements only: `_ =` is
// visible intent, and `defer f.Close()` is conventional cleanup. Calls to
// fmt's print family and to the never-failing bytes.Buffer /
// strings.Builder writers are exempt.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Run:  runErrDrop,
}

func runErrDrop(pass *Pass) {
	p := pass.Path + "/"
	if !strings.Contains(p, "/internal/") && !strings.Contains(p, "/cmd/") {
		return
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, drops := dropsError(pass.Info, call); drops {
				pass.Reportf(call.Pos(), "%s returns an error that is silently discarded; handle it or assign to _ explicitly", name)
			}
			return true
		})
	}
}

// dropsError reports whether call discards an error-typed result, naming
// the callee for the diagnostic.
func dropsError(info *types.Info, call *ast.CallExpr) (string, bool) {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return "", false
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return "", false
	}
	res := sig.Results()
	if res.Len() == 0 {
		return "", false
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	if !ok || named.Obj().Pkg() != nil || named.Obj().Name() != "error" {
		return "", false
	}

	name := "call"
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
		if fn, ok := info.Uses[fun].(*types.Func); ok && exemptErrDrop(fn) {
			return "", false
		}
	case *ast.SelectorExpr:
		name = fun.Sel.Name
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if exemptErrDrop(fn) {
				return "", false
			}
			name = fn.FullName()
		}
	}
	return name, true
}

// exemptErrDrop lists callees whose dropped error is conventional: fmt's
// print family (errors only on broken writers, and the repo's uses target
// stdout) and the in-memory writers that document they never fail.
func exemptErrDrop(fn *types.Func) bool {
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fn.Type().(*types.Signature).Recv() == nil {
		n := fn.Name()
		return strings.HasPrefix(n, "Print") || strings.HasPrefix(n, "Fprint")
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type().String()
		return strings.Contains(t, "strings.Builder") || strings.Contains(t, "bytes.Buffer")
	}
	return false
}
