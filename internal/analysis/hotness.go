package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file computes the hot-function set shared by the hotpath and escape
// analyzers: every function transitively reachable from a hot root. Roots
// are (a) Benchmark* functions in test files, (b) the per-iteration methods
// named in hotRootConfig — the steady-state loops the roadmap benchmarks
// measure — and (c) any function carrying a //cdivet:hotpath directive in
// its doc comment.
//
// Besides reachability the propagation tracks a per-function "looped" bit:
// whether the function can be entered from inside an application-level loop
// (a call site lexically inside a for/range statement, or a caller that is
// itself looped). Allocation findings require loop context — either the
// site sits in a lexical loop of its own function, or the whole function is
// looped — so one-time setup reachable from a benchmark stays silent.
// Benchmark harness loops (`for i := 0; i < b.N; i++`, `for b.Loop()`) are
// deliberately NOT loop context: every benchmark wraps a complete run in
// one, and treating it as a loop would mark the entire module hot+looped.

// hotRootConfig names the per-iteration methods that anchor the hot set,
// matched by package-path suffix so corpus packages loaded under a
// synthetic path (testdata/hotpath/internal/serve -> ".../internal/serve")
// resolve the same roots as the real module. recv is the receiver type
// name ("" for plain functions).
var hotRootConfig = []struct {
	pkgSuffix string
	recv      string
	name      string
}{
	{"internal/serve", "Engine", "batcher"},
	{"internal/proxy", "", "threadLoop"},
	{"internal/lammps", "", "RunPerf"},
	{"internal/cosmoflow", "", "RunPerf"},
	{"internal/sim", "Env", "RunUntil"},
	// The engine's per-event core: the baton dispatch a yielding process
	// runs, the yield that enters it, and the schedule path that feeds the
	// event heap. Rooting them keeps the heap and the handoff
	// allocation-clean even if a future caller stops being a root itself.
	{"internal/sim", "Env", "dispatch"},
	{"internal/sim", "Env", "schedule"},
	{"internal/sim", "Proc", "yield"},
}

// hotpathDirective marks a function as an extra hot root when it appears in
// the FuncDecl's doc comment. (suppress.go's //cdivet:allow parser requires
// a space after the prefix, so this directive never collides with it.)
const hotpathDirective = "//cdivet:hotpath"

// loopInfo is one application-level loop statement in a function body.
type loopInfo struct {
	node ast.Node // *ast.ForStmt or *ast.RangeStmt
	body *ast.BlockStmt
}

// hotFunc is the hotness record for one call-graph node.
type hotFunc struct {
	root   string // which root made it hot (for finding attribution)
	looped bool   // reachable via a call site inside an application loop
	loops  []loopInfo
}

// hotness is the computed hot set over a call graph.
type hotness struct {
	g   *callGraph
	fns map[*funcNode]*hotFunc
}

// funcKey is a pointer-free identity for a function: package path, receiver
// type name, function name. Test variants of a package re-type-check base
// files into fresh *types.Func objects, so benchmark-root resolution must
// go through this key rather than object identity.
func funcKey(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = strings.TrimSuffix(fn.Pkg().Path(), "_test")
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = recvTypeName(sig.Recv().Type())
	}
	return pkg + "|" + recv + "|" + fn.Name()
}

// recvTypeName extracts the bare receiver type name from a receiver type,
// unwrapping pointers.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// matchRoot reports whether node matches a hotRootConfig entry, returning
// the root label.
func matchRoot(n *funcNode) (string, bool) {
	name := n.obj.Name()
	recv := ""
	if sig, ok := n.obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = recvTypeName(sig.Recv().Type())
	}
	pkgPath := n.pkg.Path
	for _, r := range hotRootConfig {
		if r.name != name || r.recv != recv {
			continue
		}
		if pkgPath == r.pkgSuffix || strings.HasSuffix(pkgPath, "/"+r.pkgSuffix) {
			return describeFunc(n), true
		}
	}
	return "", false
}

// hasHotpathDirective reports whether the declaration's doc comment carries
// //cdivet:hotpath.
func hasHotpathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(c.Text)
		if text == hotpathDirective || strings.HasPrefix(text, hotpathDirective+" ") {
			return true
		}
	}
	return false
}

// describeFunc renders a node as pkg.Func or pkg.(Recv).Func for messages.
func describeFunc(n *funcNode) string {
	short := n.pkg.Path
	if i := strings.LastIndexByte(short, '/'); i >= 0 {
		short = short[i+1:]
	}
	if sig, ok := n.obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		return short + ".(" + recvTypeName(sig.Recv().Type()) + ")." + n.obj.Name()
	}
	return short + "." + n.obj.Name()
}

// computeHotness builds the hot set: seeds config/directive roots, walks
// benchmark bodies in test files, then propagates reachability and the
// looped bit over static call edges to fixpoint.
func computeHotness(g *callGraph) *hotness {
	h := &hotness{g: g, fns: map[*funcNode]*hotFunc{}}
	byKey := map[string]*funcNode{}
	for _, n := range g.nodes {
		byKey[funcKey(n.obj)] = n
	}

	// Worklist entries: a node becoming hot, or becoming looped.
	type workItem struct {
		n      *funcNode
		root   string
		looped bool
	}
	var work []workItem
	add := func(n *funcNode, root string, looped bool) {
		work = append(work, workItem{n, root, looped})
	}

	// Config and directive roots first so attribution prefers the named
	// steady-state loop over "reachable from BenchmarkX".
	for _, n := range g.nodes {
		if root, ok := matchRoot(n); ok {
			add(n, root, false)
		} else if hasHotpathDirective(n.decl) {
			add(n, describeFunc(n)+" (//cdivet:hotpath)", false)
		}
	}

	// Benchmark roots: scan test files, resolve called functions back into
	// the base graph by funcKey, walking test-file helper bodies
	// transitively (the helpers themselves are not graph nodes).
	for _, p := range g.module.Packages {
		for _, variant := range []struct {
			files []*ast.File
			info  *types.Info
		}{
			{p.TestFiles, p.TestInfo},
			{p.XTestFiles, p.XInfo},
		} {
			if variant.info == nil {
				continue
			}
			helpers := map[*types.Func]*ast.FuncDecl{}
			var benches []*ast.FuncDecl
			for _, f := range variant.files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					if obj, ok := variant.info.Defs[fd.Name].(*types.Func); ok {
						helpers[obj] = fd
					}
					if isBenchmark(fd, variant.info) {
						benches = append(benches, fd)
					}
				}
			}
			for _, fd := range benches {
				root := "Benchmark root " + fd.Name.Name
				visited := map[*ast.FuncDecl]bool{}
				markBenchCallees(fd, root, variant.info, byKey, helpers, visited, add)
			}
		}
	}

	// Fixpoint: a callee inherits hotness; looped |= caller.looped or a
	// call site lexically inside one of the caller's application loops.
	for len(work) > 0 {
		item := work[0]
		work = work[1:]
		hf := h.fns[item.n]
		if hf == nil {
			hf = &hotFunc{root: item.root}
			hf.loops = collectLoops(harnessFor(item.n), item.n.decl.Body)
			h.fns[item.n] = hf
		} else if hf.looped || !item.looped {
			continue // nothing new
		}
		if item.looped {
			hf.looped = true
		}
		// Propagate to callees with the loop context of each call site.
		info := item.n.pkg.Info
		ast.Inspect(item.n.decl.Body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := h.g.calleeOf(info, call)
			if callee == nil {
				return true
			}
			looped := hf.looped || inLoop(hf.loops, call.Pos())
			if cur := h.fns[callee]; cur == nil || (looped && !cur.looped) {
				add(callee, hf.root, looped)
			}
			return true
		})
	}
	return h
}

// markBenchCallees marks the base-graph functions a benchmark body calls as
// hot, walking test-file helper bodies transitively. Calls resolved into
// the base graph enter with looped=false unless the call site sits inside a
// genuine application loop of the benchmark (harness b.N / b.Loop() loops
// are excluded).
func markBenchCallees(fd *ast.FuncDecl, root string, info *types.Info,
	byKey map[string]*funcNode, helpers map[*types.Func]*ast.FuncDecl,
	visited map[*ast.FuncDecl]bool, add func(*funcNode, string, bool)) {
	if visited[fd] {
		return
	}
	visited[fd] = true
	loops := collectLoops(info, fd.Body)
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		var obj types.Object
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			obj = info.Uses[fun]
		case *ast.SelectorExpr:
			obj = info.Uses[fun.Sel]
		}
		fn, ok := obj.(*types.Func)
		if !ok {
			return true
		}
		looped := inLoop(loops, call.Pos())
		if n := byKey[funcKey(fn)]; n != nil {
			add(n, root, looped)
			return true
		}
		if helper, ok := helpers[fn]; ok && helper.Body != nil {
			markBenchCallees(helper, root, info, byKey, helpers, visited, add)
		}
		return true
	})
}

// harnessFor returns the type info used to recognize benchmark harness
// loops in a node's body; base-graph functions never contain harness loops
// but test-aware corpora might, so this stays info-driven.
func harnessFor(n *funcNode) *types.Info { return n.pkg.Info }

// collectLoops returns the application-level loop statements in body,
// excluding benchmark harness loops when info is available to identify
// them.
func collectLoops(info *types.Info, body *ast.BlockStmt) []loopInfo {
	var loops []loopInfo
	ast.Inspect(body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.ForStmt:
			if !benchHarnessLoop(info, node) {
				loops = append(loops, loopInfo{node: node, body: node.Body})
			}
		case *ast.RangeStmt:
			loops = append(loops, loopInfo{node: node, body: node.Body})
		case *ast.FuncLit:
			return false // closure bodies get their own loop context
		}
		return true
	})
	return loops
}

// inLoop reports whether pos falls inside the body of any collected loop.
func inLoop(loops []loopInfo, pos token.Pos) bool {
	for _, l := range loops {
		if l.body.Pos() <= pos && pos <= l.body.End() {
			return true
		}
	}
	return false
}

// benchHarnessLoop recognizes the two benchmark harness loop shapes —
// `for i := 0; i < b.N; i++` and `for b.Loop()` — where b is a *testing.B.
func benchHarnessLoop(info *types.Info, f *ast.ForStmt) bool {
	if info == nil || f.Cond == nil {
		return false
	}
	found := false
	ast.Inspect(f.Cond, func(node ast.Node) bool {
		sel, ok := node.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if sel.Sel.Name != "N" && sel.Sel.Name != "Loop" {
			return true
		}
		if tv, ok := info.Types[sel.X]; ok && isTestingBPtr(tv.Type) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isTestingBPtr reports whether t is *testing.B.
func isTestingBPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "B" && obj.Pkg() != nil && obj.Pkg().Path() == "testing"
}

// posRange is a half-open source span used for cold-zone suppression.
type posRange struct{ lo, hi token.Pos }

func inRanges(rs []posRange, pos token.Pos) bool {
	for _, r := range rs {
		if r.lo <= pos && pos <= r.hi {
			return true
		}
	}
	return false
}

// returnRanges collects the spans of return statements: an allocation that
// only happens on the way out of a function (a `return fmt.Errorf(...)`
// failure path) is not steady-state work.
func returnRanges(body *ast.BlockStmt) []posRange {
	var rs []posRange
	ast.Inspect(body, func(node ast.Node) bool {
		if ret, ok := node.(*ast.ReturnStmt); ok {
			rs = append(rs, posRange{ret.Pos(), ret.End()})
		}
		return true
	})
	return rs
}

// panicArgRanges collects the argument spans of panic calls: a message
// built for a panic never runs in steady state.
func panicArgRanges(info *types.Info, body *ast.BlockStmt) []posRange {
	var rs []posRange
	ast.Inspect(body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if bi, ok := info.Uses[id].(*types.Builtin); ok && bi.Name() == "panic" {
			rs = append(rs, posRange{call.Args[0].Pos(), call.Args[len(call.Args)-1].End()})
		}
		return true
	})
	return rs
}

// analysisExempt reports whether a node belongs to the analysis package
// itself. cdivet is a batch tool — its loader and driver run once per
// invocation, and BenchmarkCdivetModule measures whole-suite latency, not a
// steady-state iteration — so per-iteration allocation discipline does not
// apply (mirroring waitlock's internal/sim exemption).
func analysisExempt(n *funcNode) bool {
	return strings.HasSuffix(n.pkg.Path, "internal/analysis")
}

// isBenchmark reports whether fd is a Benchmark* function taking *testing.B.
func isBenchmark(fd *ast.FuncDecl, info *types.Info) bool {
	if fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "Benchmark") {
		return false
	}
	obj, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	return sig.Params().Len() == 1 && isTestingBPtr(sig.Params().At(0).Type())
}
