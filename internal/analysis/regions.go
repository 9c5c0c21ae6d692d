package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file builds the process-region model the waitgraph analyzer reasons
// over: every declared function body and every function literal is a
// region, linked to the regions it calls directly and to the literals
// nested in it, and every Env.Spawn/SpawnAt call is resolved to the region
// the new process runs.
//
// Calls through interfaces or function values contribute no edge, so a
// region only reachable dynamically is left out of the per-process
// reachability sets rather than wrongly attributed to a process.

// region is one unit of the model: a declared function's body or a
// function literal's body (nested literals are their own regions).
type region struct {
	node *funcNode    // non-nil for declared functions
	lit  *ast.FuncLit // non-nil for literals
	encl *region      // lexically enclosing region, nil for declared functions
	pkg  *Package
	body *ast.BlockStmt

	// Edges, precomputed in deterministic order: direct callees (excluding
	// calls inside nested literals), and lexically nested literal regions
	// that are not spawn arguments (they may run on the enclosing process).
	callees  []*region
	children []*region
}

// describe renders the region for messages: a declared function as
// pkg.(Recv).Name, a literal by the enclosing function it is defined in.
func (r *region) describe() string {
	if r.node != nil {
		return describeFunc(r.node)
	}
	root := r.encl
	for root != nil && root.node == nil {
		root = root.encl
	}
	if root != nil {
		return "func literal in " + describeFunc(root.node)
	}
	return "func literal"
}

// inSimPackage reports whether the region belongs to internal/sim itself,
// which implements the machinery the rules reason about.
func (r *region) inSimPackage() bool {
	return strings.HasSuffix(r.pkg.Path, "/internal/sim")
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

// spawnSite is one Env.Spawn/SpawnAt call.
type spawnSite struct {
	region  *region // region containing the call
	call    *ast.CallExpr
	spawnee *region // nil when the fn argument is not statically known
}

// regionGraph is the computed region model for one module.
type regionGraph struct {
	module  *Module
	g       *callGraph
	regions []*region
	byNode  map[*funcNode]*region
	byLit   map[*ast.FuncLit]*region
	spawns  []spawnSite
}

// regionGraphFor returns the module's region graph, built once.
func regionGraphFor(m *Module) *regionGraph {
	if m.regions == nil {
		m.regions = buildRegionGraph(m)
	}
	return m.regions
}

// buildRegionGraph builds regions over the call graph, resolves spawn
// sites, and links the edges.
func buildRegionGraph(m *Module) *regionGraph {
	rg := &regionGraph{
		module: m,
		g:      callGraphFor(m),
		byNode: map[*funcNode]*region{},
		byLit:  map[*ast.FuncLit]*region{},
	}
	for _, n := range rg.g.nodes {
		r := &region{node: n, pkg: n.pkg, body: n.decl.Body}
		rg.regions = append(rg.regions, r)
		rg.byNode[n] = r
		rg.buildLitRegions(r, n.decl.Body)
	}

	spawnArg := map[*ast.FuncLit]bool{}
	for _, r := range rg.regions {
		rg.resolveSpawns(r, spawnArg)
	}
	for _, r := range rg.regions {
		rg.linkEdges(r, spawnArg)
	}
	return rg
}

// buildLitRegions creates a region for every function literal nested in
// body, excluding literals inside deeper literals (those belong to their own
// parent region, built recursively).
func (rg *regionGraph) buildLitRegions(parent *region, body *ast.BlockStmt) {
	inspectRegion(body, func(node ast.Node) bool {
		lit, ok := node.(*ast.FuncLit)
		if !ok {
			return true
		}
		r := &region{lit: lit, encl: parent, pkg: parent.pkg, body: lit.Body}
		rg.regions = append(rg.regions, r)
		rg.byLit[lit] = r
		rg.buildLitRegions(r, lit.Body)
		return false
	})
}

// inspectRegion walks the statements a region directly owns: the traversal
// descends into everything except nested function literals, which fn may
// observe (it is called on the literal) but whose bodies are skipped.
func inspectRegion(body *ast.BlockStmt, fn func(ast.Node) bool) {
	ast.Inspect(body, func(node ast.Node) bool {
		if !fn(node) {
			return false
		}
		if _, isLit := node.(*ast.FuncLit); isLit {
			return false
		}
		return true
	})
}

// isSimType reports whether t is the named type internal/sim.<name>.
func isSimType(t types.Type, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "/internal/sim")
}

// simMethod resolves call to a method of internal/sim with the given
// receiver type name, returning the method name and receiver expression.
func simMethod(info *types.Info, call *ast.CallExpr, recvName string) (string, ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", nil, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", nil, false
	}
	if pkg := fn.Pkg(); pkg == nil || !strings.HasSuffix(pkg.Path(), "/internal/sim") {
		return "", nil, false
	}
	if recvTypeName(sig.Recv().Type()) != recvName {
		return "", nil, false
	}
	return fn.Name(), sel.X, true
}

// resolveSpawns finds the Env.Spawn/SpawnAt calls a region directly owns
// and resolves each one's spawnee.
func (rg *regionGraph) resolveSpawns(r *region, spawnArg map[*ast.FuncLit]bool) {
	inspectRegion(r.body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, _, ok := simMethod(r.pkg.Info, call, "Env")
		if !ok || (name != "Spawn" && name != "SpawnAt") {
			return true
		}
		site := spawnSite{region: r, call: call, spawnee: rg.spawnedRegion(r, call, name)}
		if site.spawnee != nil && site.spawnee.lit != nil {
			spawnArg[site.spawnee.lit] = true
		}
		rg.spawns = append(rg.spawns, site)
		return true
	})
}

// spawnedRegion resolves the fn argument of a spawn call to its region: a
// function literal's own region, or the region of a statically named
// function or method value.
func (rg *regionGraph) spawnedRegion(r *region, call *ast.CallExpr, method string) *region {
	idx := 1
	if method == "SpawnAt" {
		idx = 2
	}
	if len(call.Args) <= idx {
		return nil
	}
	arg := ast.Unparen(call.Args[idx])
	if lit, ok := arg.(*ast.FuncLit); ok {
		return rg.byLit[lit]
	}
	var obj types.Object
	switch arg := arg.(type) {
	case *ast.Ident:
		obj = r.pkg.Info.Uses[arg]
	case *ast.SelectorExpr:
		obj = r.pkg.Info.Uses[arg.Sel]
	}
	if fn, ok := obj.(*types.Func); ok {
		if n := rg.g.byObj[fn]; n != nil {
			return rg.byNode[n]
		}
	}
	return nil
}

// linkEdges precomputes a region's callee and nested-literal edges.
func (rg *regionGraph) linkEdges(r *region, spawnArg map[*ast.FuncLit]bool) {
	info := r.pkg.Info
	seen := map[*region]bool{}
	inspectRegion(r.body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			if callee := rg.g.calleeOf(info, node); callee != nil {
				if cr := rg.byNode[callee]; cr != nil && !seen[cr] {
					seen[cr] = true
					r.callees = append(r.callees, cr)
				}
			}
		case *ast.FuncLit:
			if cr := rg.byLit[node]; cr != nil && !spawnArg[node] {
				r.children = append(r.children, cr)
			}
		}
		return true
	})
}
