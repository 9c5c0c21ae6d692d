package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the module-wide dataflow layer under the taint analyzer.
//
// The abstraction is deliberately coarse — one taint value per named object,
// flow-sensitivity approximated by replaying each body in source order —
// because the property being checked is coarse too: does a value whose
// identity depends on map iteration order, the wall clock, or unseeded
// randomness ever reach a result-emitting sink? One order check needs no
// value at all: a sink inside a map-range body runs once per key in map
// order, so it is reported whatever it emits. Appends are not such sinks;
// the appended slice carries the order taint to wherever it is emitted.
// Three engineering choices keep the rule quiet on correct code:
//
//   - Sorting launders order taint: sort.Strings(keys) (and friends) erases
//     the taint a map range put on keys, so the repo's collect-sort-range
//     idiom is clean by construction rather than by suppression.
//   - Commutative accumulation is exempt: integer `+=` over a map range is
//     order-independent. Float accumulation is NOT exempt — float addition
//     does not associate, so summing map values in map order genuinely
//     changes the last ulp from run to run.
//   - Map writes are exempt: m2[k] = v inside a map range produces the same
//     map contents in any order.
//
// Error values never carry taint: error paths are fail-stop, not
// result-emitting, and exempting them keeps fmt.Errorf wrapping quiet.

// taintVal tracks why a value is nondeterministic (reason) and which of the
// enclosing function's parameters flow into it (a bitset, used to compute
// transitive sink parameters and param-to-return flow).
type taintVal struct {
	reason string
	params uint64
}

func (t taintVal) empty() bool { return t.reason == "" && t.params == 0 }

func mergeTaint(a, b taintVal) taintVal {
	out := a
	if out.reason == "" {
		out.reason = b.reason
	}
	out.params |= b.params
	return out
}

// funcState is the per-function abstract state during one analysis pass.
type funcState struct {
	g     *callGraph
	node  *funcNode
	info  *types.Info
	taint map[types.Object]taintVal

	// Set during summary passes:
	returnsTaint string
	retParams    uint64
	sinkParams   uint64

	// Non-nil only during the reporting pass.
	report func(pos token.Pos, format string, args ...any)
	// mapBodies are the map-range bodies seen so far in the reporting pass.
	mapBodies []*ast.BlockStmt
}

// analyzeFunc replays the function body (twice, to pick up loop-carried
// taint) and returns the updated summary triple.
func analyzeFunc(g *callGraph, n *funcNode, report func(pos token.Pos, format string, args ...any)) (string, uint64, uint64) {
	st := &funcState{g: g, node: n, info: n.pkg.Info, taint: map[types.Object]taintVal{}}
	if sig, ok := n.obj.Type().(*types.Signature); ok && sig.Params() != nil {
		params := sig.Params()
		for i := 0; i < params.Len() && i < 64; i++ {
			st.taint[params.At(i)] = taintVal{params: 1 << i}
		}
	}
	st.walk()
	if report != nil {
		st.report = report
		st.walk()
	} else {
		st.walk()
	}
	return st.returnsTaint, st.retParams, st.sinkParams
}

// walk replays the body in source order, updating the taint map and (in the
// reporting pass) emitting sink findings.
func (st *funcState) walk() {
	ast.Inspect(st.node.decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.AssignStmt:
			st.assign(node)
		case *ast.GenDecl:
			st.genDecl(node)
		case *ast.RangeStmt:
			st.rangeStmt(node)
		case *ast.ExprStmt:
			if call, ok := node.X.(*ast.CallExpr); ok {
				st.killIfSorted(call)
			}
		case *ast.ReturnStmt:
			for _, r := range node.Results {
				t := st.exprTaint(r)
				if t.reason != "" && st.returnsTaint == "" {
					st.returnsTaint = t.reason
				}
				st.retParams |= t.params
			}
		case *ast.CallExpr:
			st.checkSink(node)
		case *ast.SendStmt:
			t := st.exprTaint(node.Value)
			st.sinkParams |= t.params
			st.reportSink(node.Arrow, t.reason, "channel send")
		}
		return true
	})
}

// assign propagates taint across one assignment statement.
func (st *funcState) assign(a *ast.AssignStmt) {
	if a.Tok != token.ASSIGN && a.Tok != token.DEFINE {
		// Compound assignment (+=, *=, ...): commutative over integers, so
		// integer accumulation in a map range stays clean; float and string
		// accumulation keep taint (non-associative rounding, concatenation
		// order).
		if len(a.Lhs) != 1 || len(a.Rhs) != 1 {
			return
		}
		if isIntegerOrBool(st.info, a.Lhs[0]) {
			return
		}
		t := st.exprTaint(a.Rhs[0])
		if !t.empty() {
			st.taintLHS(a.Lhs[0], t, false)
		}
		return
	}
	if len(a.Lhs) == len(a.Rhs) {
		for i, lhs := range a.Lhs {
			st.taintLHS(lhs, st.exprTaint(a.Rhs[i]), true)
		}
		return
	}
	// x, y := f(): every lhs inherits the call's taint.
	if len(a.Rhs) == 1 {
		t := st.exprTaint(a.Rhs[0])
		for _, lhs := range a.Lhs {
			st.taintLHS(lhs, t, true)
		}
	}
}

func (st *funcState) genDecl(d *ast.GenDecl) {
	if d.Tok != token.VAR {
		return
	}
	for _, spec := range d.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || len(vs.Values) == 0 {
			continue
		}
		for i, name := range vs.Names {
			var t taintVal
			if len(vs.Values) == len(vs.Names) {
				t = st.exprTaint(vs.Values[i])
			} else {
				t = st.exprTaint(vs.Values[0])
			}
			if obj := st.info.Defs[name]; obj != nil && !t.empty() {
				st.taint[obj] = mergeTaint(st.taint[obj], t)
			}
		}
	}
}

// taintLHS writes taint into an assignment target. Plain identifier targets
// take a strong update (assigning a clean value clears old taint); writes
// through fields, slice indices, and pointers taint the root object weakly.
// Map-index writes are exempt: filling a map under map-range iteration
// yields identical contents in any order.
func (st *funcState) taintLHS(lhs ast.Expr, t taintVal, strong bool) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		obj := st.info.Defs[lhs]
		if obj == nil {
			obj = st.info.Uses[lhs]
		}
		if obj == nil {
			return
		}
		if isErrorType(st.info, lhs) {
			return
		}
		if strong {
			if t.empty() {
				delete(st.taint, obj)
			} else {
				st.taint[obj] = t
			}
		} else if !t.empty() {
			st.taint[obj] = mergeTaint(st.taint[obj], t)
		}
	case *ast.IndexExpr:
		tv, ok := st.info.Types[lhs.X]
		if ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				return
			}
		}
		t = mergeTaint(t, st.exprTaint(lhs.Index))
		if !t.empty() {
			st.weakTaintRoot(lhs.X, t)
		}
	case *ast.SelectorExpr:
		if !t.empty() {
			st.weakTaintRoot(lhs.X, t)
		}
	case *ast.StarExpr:
		if !t.empty() {
			st.weakTaintRoot(lhs.X, t)
		}
	}
}

// weakTaintRoot merges taint into the root identifier of an lvalue chain.
func (st *funcState) weakTaintRoot(e ast.Expr, t taintVal) {
	if obj := rootObject(st.info, e); obj != nil {
		st.taint[obj] = mergeTaint(st.taint[obj], t)
	}
}

// rootObject strips selectors, indexing, derefs, and parens down to the
// base identifier's object.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// rangeStmt taints the iteration variables of a map range with the order
// reason; ranging a tainted slice passes that taint to the element.
func (st *funcState) rangeStmt(r *ast.RangeStmt) {
	tv, ok := st.info.Types[r.X]
	if !ok {
		return
	}
	xt := st.exprTaint(r.X)
	if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
		xt = mergeTaint(taintVal{reason: "map iteration order"}, xt)
		if st.report != nil {
			st.mapBodies = append(st.mapBodies, r.Body)
		}
	} else if xt.empty() {
		return
	}
	if r.Tok == token.DEFINE || r.Tok == token.ASSIGN {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			st.taintLHS(r.Key, xt, false)
		}
		if r.Value != nil {
			st.taintLHS(r.Value, xt, false)
		}
		// For a tainted non-map, only the element (Value) is data-derived;
		// the integer index stays clean.
	}
}

// killIfSorted erases taint from the argument of an in-place sort: after
// sort.Strings(keys) the slice's order no longer encodes map order.
func (st *funcState) killIfSorted(call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	fn := pkgLevelFunc(st.info, sel)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "sort":
		switch fn.Name() {
		case "Strings", "Ints", "Float64s", "Sort", "Stable", "Slice", "SliceStable":
		default:
			return
		}
	case "slices":
		if !strings.HasPrefix(fn.Name(), "Sort") {
			return
		}
	default:
		return
	}
	if obj := rootObject(st.info, call.Args[0]); obj != nil {
		delete(st.taint, obj)
	}
}

// exprTaint evaluates the taint of an expression bottom-up.
func (st *funcState) exprTaint(e ast.Expr) taintVal {
	if e == nil {
		return taintVal{}
	}
	if isErrorType(st.info, e) {
		return taintVal{}
	}
	switch e := e.(type) {
	case *ast.Ident:
		if obj := st.info.Uses[e]; obj != nil {
			return st.taint[obj]
		}
		return taintVal{}
	case *ast.ParenExpr:
		return st.exprTaint(e.X)
	case *ast.CallExpr:
		return st.callTaint(e)
	case *ast.BinaryExpr:
		return mergeTaint(st.exprTaint(e.X), st.exprTaint(e.Y))
	case *ast.UnaryExpr:
		return st.exprTaint(e.X)
	case *ast.StarExpr:
		return st.exprTaint(e.X)
	case *ast.IndexExpr:
		return mergeTaint(st.exprTaint(e.X), st.exprTaint(e.Index))
	case *ast.SliceExpr:
		return st.exprTaint(e.X)
	case *ast.SelectorExpr:
		// Package-qualified names carry no local taint.
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := st.info.Uses[id].(*types.PkgName); isPkg {
				return taintVal{}
			}
		}
		return st.exprTaint(e.X)
	case *ast.TypeAssertExpr:
		return st.exprTaint(e.X)
	case *ast.CompositeLit:
		var t taintVal
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			t = mergeTaint(t, st.exprTaint(el))
		}
		return t
	}
	return taintVal{}
}

// callTaint evaluates a call: sources (wall clock, global rand), summarized
// module callees, laundering sorts, and data-through propagation for
// everything else.
func (st *funcState) callTaint(call *ast.CallExpr) taintVal {
	// Type conversion: taint of the operand.
	if tv, ok := st.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return st.exprTaint(call.Args[0])
		}
		return taintVal{}
	}

	argsTaint := func() taintVal {
		var t taintVal
		for _, a := range call.Args {
			t = mergeTaint(t, st.exprTaint(a))
		}
		return t
	}

	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		// Builtins: len/cap/make/new never carry order; append and the
		// rest pass data through.
		if obj := st.info.Uses[fun]; obj != nil {
			if _, isBuiltin := obj.(*types.Builtin); isBuiltin {
				switch fun.Name {
				case "len", "cap", "make", "new":
					return taintVal{}
				default:
					return argsTaint()
				}
			}
		}
	case *ast.SelectorExpr:
		if fn := pkgLevelFunc(st.info, fun); fn != nil && fn.Pkg() != nil {
			if reason := intrinsicSource(fn); reason != "" {
				return taintVal{reason: reason}
			}
			// slices.Sorted / slices.Compact etc. that return a sorted copy
			// launder order taint.
			if fn.Pkg().Path() == "slices" && strings.HasPrefix(fn.Name(), "Sorted") {
				return taintVal{}
			}
		}
	}

	// Module-internal callee with a summary: trust it.
	if callee := st.g.calleeOf(st.info, call); callee != nil {
		t := taintVal{}
		if callee.returnsTaint != "" {
			reason := callee.returnsTaint
			if !strings.Contains(reason, "via ") {
				reason += " (via " + callee.obj.Pkg().Name() + "." + callee.obj.Name() + ")"
			}
			t.reason = reason
		}
		// Param-to-return flow: args feeding returned params pass taint.
		for i, a := range call.Args {
			if i < 64 && callee.retParamBit(i) {
				t = mergeTaint(t, st.exprTaint(a))
			}
		}
		return t
	}

	// Unknown (stdlib or dynamic) call: conservative data-through, including
	// the receiver of a method call (t.Unix() is as tainted as t).
	t := argsTaint()
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		t = mergeTaint(t, st.exprTaint(sel.X))
	}
	return t
}

// checkSink reports (in the reporting pass) a tainted argument reaching a
// result-emitting sink, or an order sink inside a map-range body, and
// accumulates sink parameters during summary passes.
func (st *funcState) checkSink(call *ast.CallExpr) {
	if sink, argAt := sinkOf(st.g, st.info, call); sink != "" {
		for i, a := range call.Args {
			if argAt != nil && !argAt(i) {
				continue
			}
			t := st.exprTaint(a)
			if t.reason != "" {
				st.reportSink(call.Pos(), t.reason, sink)
				return
			}
			st.sinkParams |= t.params
		}
	}
	st.reportSink(call.Pos(), "", orderSink(call))
}

// reportSink reports, in the reporting pass, a sink reached by a value
// tainted for reason, or an untainted sink inside a map-range body.
func (st *funcState) reportSink(pos token.Pos, reason, sink string) {
	switch {
	case st.report == nil || sink == "":
	case reason != "":
		st.report(pos, "value derived from %s reaches result-emitting sink %s; make the value deterministic (sort keys, use seeded streams, use sim virtual time) before it is emitted", reason, sink)
	case st.inMapRange(pos):
		st.report(pos, "%s runs once per key in map iteration order; range over the sorted keys instead", sink)
	}
}

// inMapRange reports whether pos lies inside a map-range body.
func (st *funcState) inMapRange(pos token.Pos) bool {
	for _, b := range st.mapBodies {
		if b.Pos() < pos && pos < b.End() {
			return true
		}
	}
	return false
}

// orderSink names a call that makes map iteration order observable when it
// runs inside a map-range body, whatever its arguments: output (print,
// write, encode) or simulator events (spawn, callback, fire, launch,
// schedule). It matches by method name, so any receiver's Write or Fire
// counts. After must take two arguments, the shape of sim.Env.After, so
// time.After and time.Time.After comparisons stay clean.
func orderSink(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch name := sel.Sel.Name; {
	case strings.HasPrefix(name, "Print"), strings.HasPrefix(name, "Fprint"),
		strings.HasPrefix(name, "Write"), strings.HasPrefix(name, "Encode"):
		return name + " (output)"
	case name == "Spawn", name == "SpawnAt", name == "Fire", name == "Launch", name == "schedule",
		name == "After" && len(call.Args) == 2:
		return name + " (simulator event)"
	}
	return ""
}

// sinkOf classifies a call as a result-emitting sink. The returned argAt
// filter restricts which argument positions count (nil = all).
func sinkOf(g *callGraph, info *types.Info, call *ast.CallExpr) (string, func(int) bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if callee := g.calleeOf(info, call); callee != nil {
			return moduleSink(callee)
		}
	case *ast.SelectorExpr:
		if fn := pkgLevelFunc(info, fun); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			n := fn.Name()
			if strings.HasPrefix(n, "Print") || strings.HasPrefix(n, "Fprint") {
				return "fmt." + n, nil
			}
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				name := fn.Name()
				if strings.HasPrefix(name, "Write") || strings.HasPrefix(name, "Encode") ||
					strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") {
					return "method " + name, nil
				}
				if pkg := fn.Pkg(); pkg != nil && strings.HasSuffix(pkg.Path(), "/internal/sim") {
					switch name {
					case "Spawn", "SpawnAt", "After", "Sleep":
						return "sim event scheduling (" + name + ")", nil
					}
				}
			}
		}
		if callee := g.calleeOf(info, call); callee != nil {
			return moduleSink(callee)
		}
	}
	return "", nil
}

// moduleSink exposes a module function's sink parameters as a sink.
func moduleSink(callee *funcNode) (string, func(int) bool) {
	any := false
	for _, s := range callee.sinkParams {
		if s {
			any = true
			break
		}
	}
	if !any {
		return "", nil
	}
	name := callee.obj.Pkg().Name() + "." + callee.obj.Name()
	return name + " (emits its argument)", func(i int) bool {
		return i < len(callee.sinkParams) && callee.sinkParams[i]
	}
}

// retParamBit reports whether parameter i flows to the callee's return.
func (n *funcNode) retParamBit(i int) bool {
	return n.retParams&(1<<uint(i)) != 0
}

// intrinsicSource classifies stdlib calls that mint nondeterminism.
func intrinsicSource(fn *types.Func) string {
	switch fn.Pkg().Path() {
	case "time":
		if wallClockFuncs[fn.Name()] {
			return "wall-clock time"
		}
	case "math/rand", "math/rand/v2":
		if !seededRandAllowed[fn.Name()] {
			return "unseeded global randomness"
		}
	}
	return ""
}

func isIntegerOrBool(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsBoolean) != 0
}

func isErrorType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := tv.Type.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
