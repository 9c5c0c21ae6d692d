package analysis

import (
	"go/ast"
	"go/types"
)

// funcNode is one module function (or method) with a body, as seen by the
// module-wide dataflow layer. Test files are excluded: the dataflow rules
// gate model code, and tests assert on their own output by design.
type funcNode struct {
	obj  *types.Func
	decl *ast.FuncDecl
	pkg  *Package

	// callees are the module-internal functions this body calls, in source
	// order (deduplicated), so fixpoint iteration stays deterministic.
	callees []*funcNode

	// Dataflow summaries, computed to fixpoint by the taint analyzer.
	returnsTaint string // non-empty: why any result is nondeterministic
	retParams    uint64 // bitset: parameter flows to a return value
	sinkParams   []bool // parameter flows to a result-emitting sink inside
}

// callGraph indexes every module function with a body and its
// module-internal call edges. Nodes are ordered (package path, file,
// declaration position) so iteration is deterministic.
type callGraph struct {
	nodes []*funcNode
	byObj map[*types.Func]*funcNode
}

// buildCallGraph walks the base files of every package. It resolves call
// expressions through each package's type info; calls through function
// values or interfaces have no static callee and simply contribute no edge
// (the dataflow layer is deliberately a may-analysis over static calls).
func buildCallGraph(m *Module) *callGraph {
	g := &callGraph{byObj: map[*types.Func]*funcNode{}}
	for _, p := range m.Packages {
		if p.Info == nil {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &funcNode{obj: obj, decl: fd, pkg: p}
				if params := obj.Type().(*types.Signature).Params(); params != nil {
					n.sinkParams = make([]bool, params.Len())
				}
				g.nodes = append(g.nodes, n)
				g.byObj[obj] = n
			}
		}
	}
	for _, n := range g.nodes {
		seen := map[*funcNode]bool{}
		ast.Inspect(n.decl.Body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := g.calleeOf(n.pkg.Info, call); callee != nil && !seen[callee] {
				seen[callee] = true
				n.callees = append(n.callees, callee)
			}
			return true
		})
	}
	return g
}

// calleeOf resolves a call expression to a module funcNode, or nil for
// stdlib calls, dynamic calls, conversions, and builtins.
func (g *callGraph) calleeOf(info *types.Info, call *ast.CallExpr) *funcNode {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return g.byObj[fn]
}
