package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// FloatEq flags == and != between floating-point operands. Exact float
// comparison is almost always a latent bug in model code: two
// mathematically equal quantities computed along different paths differ in
// the last ulp, so the comparison's outcome depends on evaluation order —
// which refactors silently change. Use the epsilon helpers in
// internal/stats (ApproxEqual / WithinTol) or an explicit tolerance.
//
// Two escapes keep the rule precise rather than noisy: comparison against
// a compile-time constant (0, 1, a named threshold) is legal — the usual
// division guards and sentinel checks are deterministic — and
// internal/stats itself is exempt as the approved home of the comparison
// helpers. Test files are exempt: asserting exact values is how
// determinism tests work.
var FloatEq = &Analyzer{
	Name: "floateq",
	Run:  runFloatEq,
}

func runFloatEq(pass *Pass) {
	if pass.Path == "repro/internal/stats" || strings.HasSuffix(pass.Path, "/internal/stats") {
		return
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			if !isFloat(pass.Info, bin.X) || !isFloat(pass.Info, bin.Y) {
				return true
			}
			if isExactConst(pass.Info, bin.X) || isExactConst(pass.Info, bin.Y) {
				return true
			}
			pass.Reportf(bin.OpPos, "exact floating-point %s comparison; use stats.ApproxEqual or an explicit tolerance", bin.Op)
			return true
		})
	}
}

// isFloat reports whether e has floating-point (or untyped float) type.
func isFloat(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isExactConst reports whether e is a compile-time constant — comparing
// against a literal like 0 or 1 (or a named constant) is exact by
// construction and routinely guards division by zero.
func isExactConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil && tv.Value.Kind() != constant.Unknown
}
