package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// WaitGraph builds the static wait/fire graph over sim.Signal and reports
// the Signal misuse patterns that the deterministic engine turns into
// hangs or silently lost events:
//
//   - a Signal that is waited on but never fired anywhere in the module:
//     every waiter parks forever, and because the engine is deterministic
//     the deadlock reproduces on every run (which is the good case — the
//     rule makes it a build failure instead);
//   - a Signal that is fired but never waited on: every Fire is a lost
//     wake, usually a refactoring leftover;
//   - a Fire that precedes (in the same body) the spawn of the proc that
//     waits on the Signal without a guard loop: the waiter registers after
//     the fire and sleeps through it;
//   - a value-type sim.Signal field used without Bind: Fire on an unbound
//     Signal dereferences a nil Env;
//   - timeout-free wait cycles among spawned procs: each proc in the cycle
//     waits (plain Wait, no guard loop, no WaitTimeout) on a Signal fired
//     only inside the cycle.
//
// The rule is deliberately a may-analysis with an aliasing escape hatch: a
// Signal variable that is passed around, stored, or compared — anything
// other than being created and used as a method receiver — drops out of the
// checks entirely rather than risking a false accusation. Waits inside a
// for/range loop are treated as guarded (the repo-wide `for !cond {
// sig.Wait(p) }` discipline re-checks its condition), so they never
// contribute lost-wake or cycle findings.
var WaitGraph = &Analyzer{
	Name:      "waitgraph",
	Doc:       "sim.Signal waited but never fired, fired before its waiter spawns, used unbound, or in a timeout-free wait cycle",
	RunModule: runWaitGraph,
}

// sigSite is one Signal method call attributed to a region.
type sigSite struct {
	region  *region
	pos     token.Pos
	method  string // Bind, Wait, WaitTimeout, Fire, FireOne
	guarded bool   // inside a for/range loop in its region
}

// signalClass is every use of one Signal variable (struct field, local, or
// package var) across the module.
type signalClass struct {
	v         *types.Var
	desc      string
	valueType bool // var has value type sim.Signal (needs Bind before use)
	created   bool // assigned/initialized from sim.NewSignal somewhere
	aliased   bool // used outside method receivers and creation sites
	param     bool // declared as a parameter or named result
	sites     []sigSite
}

func (c *signalClass) count(methods ...string) int {
	n := 0
	for _, s := range c.sites {
		for _, m := range methods {
			if s.method == m {
				n++
			}
		}
	}
	return n
}

func runWaitGraph(mp *ModulePass) {
	w := &waitGraph{rg: regionGraphFor(mp.Module), classes: map[*types.Var]*signalClass{}, consumed: map[token.Pos]bool{}}
	w.collectParams()
	w.collectSites()
	w.collectCreations()
	w.markAliases()

	classes := w.orderedClasses()
	for _, c := range classes {
		w.checkClass(mp, c)
	}
	w.checkLostWakeOrdering(mp, classes)
	w.checkWaitCycles(mp, classes)
}

type waitGraph struct {
	rg       *regionGraph
	classes  map[*types.Var]*signalClass
	order    []*signalClass
	params   map[types.Object]bool
	consumed map[token.Pos]bool // identifier positions used as receivers/creations
}

// collectParams records every parameter and named-result object of every
// function and literal, so Signals reaching a body through its signature
// (an alias of the caller's variable) never form classes of their own.
func (w *waitGraph) collectParams() {
	w.params = map[types.Object]bool{}
	record := func(info *types.Info, ft *ast.FuncType, recv *ast.FieldList) {
		for _, fl := range []*ast.FieldList{ft.Params, ft.Results, recv} {
			if fl == nil {
				continue
			}
			for _, f := range fl.List {
				for _, name := range f.Names {
					if obj := info.Defs[name]; obj != nil {
						w.params[obj] = true
					}
				}
			}
		}
	}
	for _, r := range w.rg.regions {
		if r.node != nil {
			record(r.pkg.Info, r.node.decl.Type, r.node.decl.Recv)
		} else {
			record(r.pkg.Info, r.lit.Type, nil)
		}
	}
}

// collectSites attributes every Signal method call to its region and class.
func (w *waitGraph) collectSites() {
	for _, r := range w.rg.regions {
		if r.inSimPackage() {
			continue
		}
		info := r.pkg.Info
		loops := loopSpans(r.body)
		inspectRegion(r.body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, recv, ok := simMethod(info, call, "Signal")
			if !ok {
				return true
			}
			switch name {
			case "Bind", "Wait", "WaitTimeout", "Fire", "FireOne":
			default:
				return true
			}
			v, usePos := signalVarOf(info, recv)
			if v == nil {
				return true
			}
			w.consumed[usePos] = true
			c := w.classOf(r, info, recv, v)
			c.sites = append(c.sites, sigSite{
				region:  r,
				pos:     call.Pos(),
				method:  name,
				guarded: inSpan(loops, call.Pos()),
			})
			return true
		})
	}
}

// classOf returns (creating on first use) the class of Signal variable v.
func (w *waitGraph) classOf(r *region, info *types.Info, recv ast.Expr, v *types.Var) *signalClass {
	if c := w.classes[v]; c != nil {
		return c
	}
	c := &signalClass{
		v:         v,
		desc:      describeSignalVar(r, info, recv, v),
		valueType: isSimType(v.Type(), "Signal"),
		param:     w.params[v],
	}
	w.classes[v] = c
	w.order = append(w.order, c)
	return c
}

// describeSignalVar renders a class for messages using the shape of its
// first use site.
func describeSignalVar(r *region, info *types.Info, recv ast.Expr, v *types.Var) string {
	pkg := ""
	if v.Pkg() != nil {
		pkg = v.Pkg().Name()
	}
	if v.IsField() {
		owner := ""
		if sel, ok := ast.Unparen(peelToSelector(recv)).(*ast.SelectorExpr); ok {
			if s, ok := info.Selections[sel]; ok {
				owner = recvTypeName(s.Recv())
			}
		}
		if owner != "" {
			return pkg + ".(" + owner + ")." + v.Name()
		}
		return pkg + "." + v.Name()
	}
	if v.Parent() != nil && v.Parent().Parent() == types.Universe {
		return pkg + "." + v.Name() // package-level var
	}
	return "local " + v.Name() + " in " + r.describe()
}

// peelToSelector unwraps index/star/paren layers so the selector naming the
// field (if any) is exposed.
func peelToSelector(e ast.Expr) ast.Expr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return x
		}
	}
}

// signalVarOf resolves a Signal method receiver expression to the variable
// holding the Signal, plus the identifier position consumed by the use.
func signalVarOf(info *types.Info, e ast.Expr) (*types.Var, token.Pos) {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if s, ok := info.Selections[x]; ok {
			if v, ok := s.Obj().(*types.Var); ok {
				return v, x.Sel.Pos()
			}
		}
		if v, ok := info.Uses[x.Sel].(*types.Var); ok {
			return v, x.Sel.Pos() // package-qualified var
		}
		return nil, token.NoPos
	case *ast.IndexExpr:
		return signalVarOf(info, x.X)
	case *ast.StarExpr:
		return signalVarOf(info, x.X)
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if v, ok := obj.(*types.Var); ok {
			return v, x.Pos()
		}
	}
	return nil, token.NoPos
}

// collectCreations finds the places a tracked class is filled in from
// sim.NewSignal (assignment, var declaration, composite literal field) or,
// for value-type Signals, Bind calls, and marks those identifier uses
// consumed so they don't read as aliases.
func (w *waitGraph) collectCreations() {
	for _, p := range w.rg.module.Packages {
		if p.Info == nil {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(node ast.Node) bool {
				switch node := node.(type) {
				case *ast.AssignStmt:
					for i, lhs := range node.Lhs {
						if i >= len(node.Rhs) {
							break
						}
						w.recordCreation(p.Info, lhs, node.Rhs[i])
					}
				case *ast.ValueSpec:
					for i, name := range node.Names {
						if i >= len(node.Values) {
							break
						}
						w.recordCreation(p.Info, name, node.Values[i])
					}
				case *ast.CompositeLit:
					for _, elt := range node.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						if key, ok := kv.Key.(*ast.Ident); ok {
							w.recordCreation(p.Info, key, kv.Value)
						}
					}
				}
				return true
			})
		}
	}
}

// recordCreation marks lhs as a creation site of its class when rhs is a
// sim.NewSignal call.
func (w *waitGraph) recordCreation(info *types.Info, lhs ast.Expr, rhs ast.Expr) {
	v, usePos := signalVarOf(info, lhs)
	if v == nil {
		return
	}
	c := w.classes[v]
	if c == nil {
		return
	}
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return
	}
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil || fn.Name() != "NewSignal" {
		return
	}
	if pkg := fn.Pkg(); pkg == nil || !strings.HasSuffix(pkg.Path(), "/internal/sim") {
		return
	}
	c.created = true
	w.consumed[usePos] = true
}

// markAliases scans every base file for uses of tracked variables at
// positions not consumed by a method receiver or creation site. Any such
// use means the Signal escapes the patterns the rule reasons about, and the
// class is excluded from all checks.
func (w *waitGraph) markAliases() {
	byObj := map[types.Object]*signalClass{}
	for v, c := range w.classes {
		byObj[v] = c
	}
	for _, p := range w.rg.module.Packages {
		if p.Info == nil {
			continue
		}
		// Defining occurrences (info.Defs) are not aliases; only other uses
		// outside the consumed receiver/creation positions count.
		for id, obj := range p.Info.Uses {
			if obj == nil {
				continue
			}
			if c := byObj[obj]; c != nil && !w.consumed[id.Pos()] {
				c.aliased = true
			}
		}
	}
}

// orderedClasses returns the checkable classes in first-use order (which is
// deterministic: regions are built in node order, sites in source order).
func (w *waitGraph) orderedClasses() []*signalClass {
	var out []*signalClass
	for _, c := range w.order {
		if c.param || c.aliased {
			continue
		}
		out = append(out, c)
	}
	return out
}

// checkClass applies the per-class checks: waited-never-fired,
// fired-never-waited, and value-type use before Bind.
func (w *waitGraph) checkClass(mp *ModulePass, c *signalClass) {
	waits := c.count("Wait", "WaitTimeout")
	fires := c.count("Fire", "FireOne")
	binds := c.count("Bind")

	if c.valueType && (waits > 0 || fires > 0) && binds == 0 {
		mp.Reportf(c.firstUse("Wait", "WaitTimeout", "Fire", "FireOne"),
			"sim.Signal %s is used but never bound: Bind(env) must run before the first use (Fire on an unbound Signal dereferences a nil Env)", c.desc)
		return
	}
	if waits > 0 && fires == 0 {
		for _, s := range c.sites {
			if s.method == "Wait" || s.method == "WaitTimeout" {
				mp.Reportf(s.pos,
					"sim.Signal %s is waited on here but never fired anywhere in the module: the waiter parks forever (deterministic deadlock)", c.desc)
			}
		}
		return
	}
	if fires > 0 && waits == 0 && (c.created || c.valueType) {
		for _, s := range c.sites {
			if s.method == "Fire" || s.method == "FireOne" {
				mp.Reportf(s.pos,
					"sim.Signal %s is fired here but never waited on anywhere in the module: every fire is a lost wake", c.desc)
			}
		}
	}
}

// firstUse returns the earliest site position among the given methods.
func (c *signalClass) firstUse(methods ...string) token.Pos {
	best := token.NoPos
	for _, s := range c.sites {
		for _, m := range methods {
			if s.method == m && (best == token.NoPos || s.pos < best) {
				best = s.pos
			}
		}
	}
	return best
}

// checkLostWakeOrdering reports fires that precede, in the same region, the
// spawn of a proc whose body starts with an unguarded wait on the same
// class: the wake lands before the waiter exists.
func (w *waitGraph) checkLostWakeOrdering(mp *ModulePass, classes []*signalClass) {
	// Unguarded plain waits by spawnee region.
	regionWaits := map[*region][]*signalClass{}
	for _, c := range classes {
		for _, s := range c.sites {
			if s.method == "Wait" && !s.guarded {
				regionWaits[s.region] = append(regionWaits[s.region], c)
			}
		}
	}
	for _, c := range classes {
		for _, s := range c.sites {
			if s.method != "Fire" && s.method != "FireOne" {
				continue
			}
			for _, sp := range w.rg.spawns {
				if sp.region != s.region || sp.spawnee == nil || sp.call.Pos() < s.pos {
					continue
				}
				for _, wc := range regionWaits[sp.spawnee] {
					if wc == c {
						mp.Reportf(s.pos,
							"sim.Signal %s is fired here before its waiter is spawned below: the waiter registers after the fire and sleeps through it (lost wake); spawn the waiter first or guard the wait with a condition loop", c.desc)
					}
				}
			}
		}
	}
}

// waitCtx is one spawned proc for cycle detection: the spawnee region plus
// everything statically reachable from it on the same proc (callees and
// non-spawned nested literals).
type waitCtx struct {
	root    *region
	reach   map[*region]bool
	waits   map[*signalClass]bool // unguarded plain Wait
	fires   map[*signalClass]bool
	waitPos map[*signalClass]token.Pos
}

// checkWaitCycles finds timeout-free wait cycles among spawned procs.
func (w *waitGraph) checkWaitCycles(mp *ModulePass, classes []*signalClass) {
	// One context per distinct spawnee region.
	seen := map[*region]bool{}
	var ctxs []*waitCtx
	for _, sp := range w.rg.spawns {
		if sp.spawnee == nil || seen[sp.spawnee] || sp.spawnee.inSimPackage() {
			continue
		}
		seen[sp.spawnee] = true
		ctxs = append(ctxs, w.buildCtx(sp.spawnee, classes))
	}
	if len(ctxs) < 2 {
		return
	}

	// Edges: waiter -> every context that can fire the class. A class whose
	// fire sites are not all inside spawned contexts contributes no edge —
	// an unmodeled firer could break the would-be cycle.
	inCtx := map[*region]*waitCtx{}
	for _, c := range ctxs {
		for r := range c.reach {
			if inCtx[r] == nil {
				inCtx[r] = c
			}
		}
	}
	classFirers := map[*signalClass][]*waitCtx{}
	classModeled := map[*signalClass]bool{}
	for _, c := range classes {
		classModeled[c] = true
		for _, s := range c.sites {
			if s.method != "Fire" && s.method != "FireOne" {
				continue
			}
			owner := inCtx[s.region]
			if owner == nil {
				classModeled[c] = false
				break
			}
			classFirers[c] = append(classFirers[c], owner)
		}
	}
	edges := map[*waitCtx]map[*waitCtx]*signalClass{}
	for _, from := range ctxs {
		for cls := range from.waits {
			if !classModeled[cls] {
				continue
			}
			for _, to := range classFirers[cls] {
				if to == from {
					continue
				}
				if edges[from] == nil {
					edges[from] = map[*waitCtx]*signalClass{}
				}
				if edges[from][to] == nil {
					edges[from][to] = cls
				}
			}
		}
	}

	for _, scc := range tarjanSCC(ctxs, edges) {
		if len(scc) < 2 {
			continue
		}
		member := map[*waitCtx]bool{}
		for _, c := range scc {
			member[c] = true
		}
		// Every class waited on inside the cycle must be fired only by cycle
		// members, or the cycle can be broken externally.
		broken := false
		pos := token.NoPos
		var names []string
		for _, c := range scc {
			names = append(names, c.root.describe())
			for cls := range c.waits {
				if !classModeled[cls] {
					continue
				}
				for _, firer := range classFirers[cls] {
					if !member[firer] {
						broken = true
					}
				}
				if p := c.waitPos[cls]; p != token.NoPos && (pos == token.NoPos || p < pos) {
					pos = p
				}
			}
		}
		if broken || pos == token.NoPos {
			continue
		}
		sort.Strings(names)
		mp.Reportf(pos,
			"timeout-free wait cycle among procs %s: each waits (plain Wait, no guard loop) on a sim.Signal fired only inside the cycle (deterministic deadlock); use WaitTimeout or break the cycle", strings.Join(names, ", "))
	}
}

// buildCtx computes a context's reachable regions and its wait/fire sets.
func (w *waitGraph) buildCtx(root *region, classes []*signalClass) *waitCtx {
	ctx := &waitCtx{
		root:    root,
		reach:   map[*region]bool{},
		waits:   map[*signalClass]bool{},
		fires:   map[*signalClass]bool{},
		waitPos: map[*signalClass]token.Pos{},
	}
	stack := []*region{root}
	ctx.reach[root] = true
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range append(append([]*region{}, r.callees...), r.children...) {
			if !ctx.reach[next] {
				ctx.reach[next] = true
				stack = append(stack, next)
			}
		}
	}
	for _, c := range classes {
		for _, s := range c.sites {
			if !ctx.reach[s.region] {
				continue
			}
			switch s.method {
			case "Wait":
				if !s.guarded {
					ctx.waits[c] = true
					if p, ok := ctx.waitPos[c]; !ok || s.pos < p {
						ctx.waitPos[c] = s.pos
					}
				}
			case "Fire", "FireOne":
				ctx.fires[c] = true
			}
		}
	}
	return ctx
}

// tarjanSCC returns the strongly connected components of the context graph
// in a deterministic order (contexts are visited in slice order).
func tarjanSCC(ctxs []*waitCtx, edges map[*waitCtx]map[*waitCtx]*signalClass) [][]*waitCtx {
	index := map[*waitCtx]int{}
	low := map[*waitCtx]int{}
	onStack := map[*waitCtx]bool{}
	var stack []*waitCtx
	var sccs [][]*waitCtx
	next := 0

	// Successors in deterministic order: slice order of ctxs.
	succ := func(c *waitCtx) []*waitCtx {
		var out []*waitCtx
		for _, cand := range ctxs {
			if edges[c][cand] != nil {
				out = append(out, cand)
			}
		}
		return out
	}

	var strongConnect func(c *waitCtx)
	strongConnect = func(c *waitCtx) {
		index[c] = next
		low[c] = next
		next++
		stack = append(stack, c)
		onStack[c] = true
		for _, s := range succ(c) {
			if _, seen := index[s]; !seen {
				strongConnect(s)
				if low[s] < low[c] {
					low[c] = low[s]
				}
			} else if onStack[s] && index[s] < low[c] {
				low[c] = index[s]
			}
		}
		if low[c] == index[c] {
			var scc []*waitCtx
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				scc = append(scc, top)
				if top == c {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, c := range ctxs {
		if _, seen := index[c]; !seen {
			strongConnect(c)
		}
	}
	return sccs
}

// loopSpans collects the position ranges of for/range statements in a
// region body (excluding nested literals).
func loopSpans(body *ast.BlockStmt) [][2]token.Pos {
	var spans [][2]token.Pos
	inspectRegion(body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.ForStmt:
			spans = append(spans, [2]token.Pos{node.Body.Pos(), node.Body.End()})
		case *ast.RangeStmt:
			spans = append(spans, [2]token.Pos{node.Body.Pos(), node.Body.End()})
		}
		return true
	})
	return spans
}

func inSpan(spans [][2]token.Pos, pos token.Pos) bool {
	for _, s := range spans {
		if pos >= s[0] && pos < s[1] {
			return true
		}
	}
	return false
}
