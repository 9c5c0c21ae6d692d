package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// This file builds the shard-affinity context shared by the shardsafety and
// waitgraph analyzers: which procs run on which event domain, and how
// affinity flows through closures and cross-package calls.
//
// "Which shard does this code run on" is a property of every process:
// sim.Shard is a spawn-time domain label, and the engine delivers every
// domain's wake-ups in one global (time, seq) order. Treating a domain as a
// unit of ownership only stays sound if shard-owned state is mutated from
// its own domain or across an explicit Signal happens-before edge.
// Ownership is declared in source with an annotation on a struct field:
//
//	//cdivet:shard(<domain>)
//
// On a field of type *sim.Shard (or a slice/array of them) the annotation
// names the field a domain *binder*: procs spawned through it carry that
// domain. On any other field it marks shard-owned *state* of that domain.
// The same annotation on the line of (or directly above) a Shard.Spawn/
// SpawnAt call or a `x := env.NewShard()` assignment names the domain of an
// anonymous local shard.
//
// Affinity inference is a may-analysis over the static call graph: a spawned
// function literal or method value seeds its region with the spawn site's
// domain, and the set propagates through direct calls, lexically nested
// closures, and cross-package edges to fixpoint. Calls through interfaces or
// function values contribute no edge, so regions only reachable dynamically
// stay unchecked (empty affinity) rather than wrongly accused.

// shardDirectivePrefix introduces an ownership annotation. suppress.go's
// //cdivet:allow parser requires whitespace after its own prefix, so the two
// directive families never collide.
const shardDirectivePrefix = "//cdivet:shard("

// domainUnknown is the affinity element recorded when a spawn site's shard
// expression cannot be resolved to a declared domain.
const domainUnknown = "?"

// domainDefault is the environment's default domain (shard 0): procs spawned
// via Env.Spawn/Env.SpawnAt.
const domainDefault = "default"

// shardFieldInfo is one annotated struct field.
type shardFieldInfo struct {
	domain string
	owner  string // short description, e.g. "serve.(Engine).queue"
	binder bool   // field is a *sim.Shard (or slice/array of them)
}

// shardAnnotations is the module-wide annotation table.
type shardAnnotations struct {
	fields map[*types.Var]*shardFieldInfo
	// lines maps "filename:line" to the shard directive on that line, for
	// spawn-site and local-NewShard annotations.
	lines map[string]shardLineAnn
	// bad collects malformed annotations for shardsafety to report.
	bad []badShardAnn
}

// shardLineAnn is one line-level shard directive. ownLine distinguishes a
// directive on its own comment line (which also annotates the line below)
// from one trailing code (which annotates only its own line — a trailing
// directive on `shard := env.NewShard()` must not leak onto whatever
// statement happens to sit directly beneath it).
type shardLineAnn struct {
	domain  string
	ownLine bool
}

type badShardAnn struct {
	pos token.Pos
	msg string
}

// shardRegion is one affinity-tracking unit: a declared function's body or a
// function literal's body (nested literals are their own regions).
type shardRegion struct {
	node *funcNode    // non-nil for declared functions
	lit  *ast.FuncLit // non-nil for literals
	encl *shardRegion // lexically enclosing region, nil for declared functions
	pkg  *Package
	body *ast.BlockStmt

	affinity map[string]bool

	// Propagation edges, precomputed so the fixpoint loop stays cheap and
	// deterministic: direct callees (excluding calls inside nested literals),
	// lexically nested literal regions that are not spawn arguments (they may
	// run on the enclosing proc), and spawnees of p.Shard().Spawn sites
	// (which inherit the spawner's affinity).
	callees    []*shardRegion
	children   []*shardRegion
	inheritees []*shardRegion
}

// describe renders the region for messages: a declared function as
// pkg.(Recv).Name, a literal by the enclosing function it is defined in.
func (r *shardRegion) describe() string {
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

// spawnSite is one resolved Spawn/SpawnAt call.
type spawnSite struct {
	region  *shardRegion // region containing the call
	call    *ast.CallExpr
	domain  string       // "", when inherit
	inherit bool         // p.Shard().Spawn: spawnee inherits spawner affinity
	spawnee *shardRegion // nil when the fn argument is not statically known
}

// shardContext is the computed affinity model for one module.
type shardContext struct {
	module  *Module
	g       *callGraph
	ann     *shardAnnotations
	regions []*shardRegion
	byNode  map[*funcNode]*shardRegion
	byLit   map[*ast.FuncLit]*shardRegion
	spawns  []spawnSite
}

// shardContextFor returns the module's shard context, built once and
// shared by shardsafety and waitgraph.
func shardContextFor(m *Module) *shardContext {
	if m.shardCtx == nil {
		m.shardCtx = buildShardContext(m)
	}
	return m.shardCtx
}

// buildShardContext parses annotations, builds regions over the call graph,
// resolves spawn sites, and propagates affinity to fixpoint.
func buildShardContext(m *Module) *shardContext {
	sc := &shardContext{
		module: m,
		g:      callGraphFor(m),
		ann:    parseShardAnnotations(m),
		byNode: map[*funcNode]*shardRegion{},
		byLit:  map[*ast.FuncLit]*shardRegion{},
	}

	for _, n := range sc.g.nodes {
		r := &shardRegion{node: n, pkg: n.pkg, body: n.decl.Body, affinity: map[string]bool{}}
		sc.regions = append(sc.regions, r)
		sc.byNode[n] = r
		sc.buildLitRegions(r, n.decl.Body)
	}

	spawnArg := map[*ast.FuncLit]bool{}
	for _, r := range sc.regions {
		sc.resolveSpawns(r, spawnArg)
	}
	for _, r := range sc.regions {
		sc.linkEdges(r, spawnArg)
	}
	sc.propagate()
	return sc
}

// buildLitRegions creates a region for every function literal nested in
// body, excluding literals inside deeper literals (those belong to their own
// parent region, built recursively).
func (sc *shardContext) buildLitRegions(parent *shardRegion, body *ast.BlockStmt) {
	inspectRegion(body, func(node ast.Node) bool {
		lit, ok := node.(*ast.FuncLit)
		if !ok {
			return true
		}
		r := &shardRegion{lit: lit, encl: parent, pkg: parent.pkg, body: lit.Body, affinity: map[string]bool{}}
		sc.regions = append(sc.regions, r)
		sc.byLit[lit] = r
		sc.buildLitRegions(r, lit.Body)
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

// parseShardAnnotations scans every base file for //cdivet:shard(...)
// comments, resolving field annotations to their types.Var objects.
func parseShardAnnotations(m *Module) *shardAnnotations {
	ann := &shardAnnotations{fields: map[*types.Var]*shardFieldInfo{}, lines: map[string]shardLineAnn{}}
	for _, p := range m.Packages {
		if p.Info == nil {
			continue
		}
		for _, f := range p.Files {
			code := codeLines(m.Fset, f)
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					ann.recordComment(m.Fset, c, code)
				}
			}
			ann.recordFields(m.Fset, p, f)
		}
	}
	return ann
}

// codeLines marks every line of f that holds a non-comment token, so a
// trailing directive can be told apart from one on its own line.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil:
			return false
		case *ast.Comment, *ast.CommentGroup:
			return false
		}
		lines[fset.Position(n.Pos()).Line] = true
		lines[fset.Position(n.End()-1).Line] = true
		return true
	})
	return lines
}

// recordComment parses one comment as a shard directive, filling the
// line-annotation table (field annotations additionally resolve through
// recordFields).
func (a *shardAnnotations) recordComment(fset *token.FileSet, c *ast.Comment, code map[int]bool) {
	text := strings.TrimSpace(c.Text)
	if !strings.HasPrefix(text, shardDirectivePrefix) {
		return
	}
	domain, ok := parseShardDomain(text)
	if !ok {
		a.bad = append(a.bad, badShardAnn{pos: c.Pos(), msg: "malformed shard annotation " + text + ": want //cdivet:shard(<domain>) with a non-empty, space-free domain name"})
		return
	}
	pos := fset.Position(c.Pos())
	a.lines[posKey(pos.Filename, pos.Line)] = shardLineAnn{domain: domain, ownLine: !code[pos.Line]}
}

// parseShardDomain extracts the domain name from a shard directive comment.
func parseShardDomain(text string) (string, bool) {
	if !strings.HasPrefix(text, shardDirectivePrefix) {
		return "", false
	}
	rest := text[len(shardDirectivePrefix):]
	close := strings.IndexByte(rest, ')')
	if close < 0 {
		return "", false
	}
	domain := rest[:close]
	if domain == "" || strings.ContainsAny(domain, " \t()") {
		return "", false
	}
	return domain, true
}

// recordFields attaches shard annotations written on (or above) struct
// fields to the fields' objects.
func (a *shardAnnotations) recordFields(fset *token.FileSet, p *Package, f *ast.File) {
	ast.Inspect(f, func(node ast.Node) bool {
		ts, ok := node.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			domain := fieldShardDomain(field)
			if domain == "" {
				continue
			}
			for _, name := range field.Names {
				v, ok := p.Info.Defs[name].(*types.Var)
				if !ok {
					continue
				}
				a.fields[v] = &shardFieldInfo{
					domain: domain,
					owner:  p.Name + ".(" + ts.Name.Name + ")." + name.Name,
					binder: isShardBinderType(v.Type()),
				}
			}
		}
		return true
	})
}

// fieldShardDomain returns the domain named by a shard directive in the
// field's doc comment or trailing comment, or "".
func fieldShardDomain(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if d, ok := parseShardDomain(strings.TrimSpace(c.Text)); ok {
				return d
			}
		}
	}
	return ""
}

// isShardBinderType reports whether t is *sim.Shard or a slice/array of it.
func isShardBinderType(t types.Type) bool {
	switch t := t.(type) {
	case *types.Slice:
		return isShardBinderType(t.Elem())
	case *types.Array:
		return isShardBinderType(t.Elem())
	case *types.Pointer:
		return isSimType(t.Elem(), "Shard")
	}
	return false
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

// resolveSpawns finds the Spawn/SpawnAt calls a region directly owns and
// resolves each one's domain and spawnee.
func (sc *shardContext) resolveSpawns(r *shardRegion, spawnArg map[*ast.FuncLit]bool) {
	info := r.pkg.Info
	inspectRegion(r.body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		var site spawnSite
		if name, recv, ok := simMethod(info, call, "Shard"); ok && (name == "Spawn" || name == "SpawnAt") {
			site = spawnSite{region: r, call: call}
			site.domain, site.inherit = sc.resolveShardExpr(r, recv)
			site.spawnee = sc.spawnedRegion(r, call, name)
		} else if name, _, ok := simMethod(info, call, "Env"); ok && (name == "Spawn" || name == "SpawnAt") {
			site = spawnSite{region: r, call: call, domain: domainDefault}
			site.spawnee = sc.spawnedRegion(r, call, name)
		} else {
			return true
		}
		// A shard directive on the call's line (or the line above) names the
		// domain outright, overriding inference.
		if d, ok := sc.lineDomain(call.Pos()); ok {
			site.domain, site.inherit = d, false
		}
		if site.spawnee != nil {
			if lit := site.spawnee.lit; lit != nil {
				spawnArg[lit] = true
			}
		}
		sc.spawns = append(sc.spawns, site)
		return true
	})
}

// lineDomain looks up a line annotation for the line of pos or the line
// directly above it.
func (sc *shardContext) lineDomain(pos token.Pos) (string, bool) {
	p := sc.module.Fset.Position(pos)
	if a, ok := sc.ann.lines[posKey(p.Filename, p.Line)]; ok {
		return a.domain, true
	}
	if a, ok := sc.ann.lines[posKey(p.Filename, p.Line-1)]; ok && a.ownLine {
		return a.domain, true
	}
	return "", false
}

func posKey(file string, line int) string {
	return file + ":" + strconv.Itoa(line)
}

// spawnedRegion resolves the fn argument of a spawn call to its region: a
// function literal's own region, or the region of a statically named
// function or method value.
func (sc *shardContext) spawnedRegion(r *shardRegion, call *ast.CallExpr, method string) *shardRegion {
	idx := 1
	if method == "SpawnAt" {
		idx = 2
	}
	if len(call.Args) <= idx {
		return nil
	}
	arg := ast.Unparen(call.Args[idx])
	if lit, ok := arg.(*ast.FuncLit); ok {
		return sc.byLit[lit]
	}
	var obj types.Object
	switch arg := arg.(type) {
	case *ast.Ident:
		obj = r.pkg.Info.Uses[arg]
	case *ast.SelectorExpr:
		obj = r.pkg.Info.Uses[arg.Sel]
	}
	if fn, ok := obj.(*types.Func); ok {
		if n := sc.g.byObj[fn]; n != nil {
			return sc.byNode[n]
		}
	}
	return nil
}

// resolveShardExpr maps the receiver of a Shard.Spawn call to a domain.
// inherit=true means the spawnee runs on the spawner's own domain
// (p.Shard().Spawn — the proc re-spawns onto its own shard).
func (sc *shardContext) resolveShardExpr(r *shardRegion, e ast.Expr) (domain string, inherit bool) {
	info := r.pkg.Info
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if s, ok := info.Selections[e]; ok {
			if v, ok := s.Obj().(*types.Var); ok {
				if fi := sc.ann.fields[v]; fi != nil && fi.binder {
					return fi.domain, false
				}
			}
		}
		return domainUnknown, false
	case *ast.IndexExpr:
		return sc.resolveShardExpr(r, e.X)
	case *ast.StarExpr:
		return sc.resolveShardExpr(r, e.X)
	case *ast.Ident:
		return sc.resolveShardLocal(r, e)
	case *ast.CallExpr:
		return sc.resolveShardCall(r, e)
	}
	return domainUnknown, false
}

// resolveShardCall handles a call in shard position: p.Shard() inherits the
// spawner's domain, env.NewShard() is an anonymous local domain, and a
// single-return accessor (func (d *Device) Shard() *sim.Shard { return
// d.shard }) resolves through to the field it returns.
func (sc *shardContext) resolveShardCall(r *shardRegion, call *ast.CallExpr) (string, bool) {
	info := r.pkg.Info
	if name, _, ok := simMethod(info, call, "Proc"); ok && name == "Shard" {
		return "", true
	}
	if name, _, ok := simMethod(info, call, "Env"); ok && name == "NewShard" {
		if d, ok := sc.lineDomain(call.Pos()); ok {
			return d, false
		}
		return sc.anonDomain(r), false
	}
	if callee := sc.g.calleeOf(info, call); callee != nil {
		if ret := singleReturnExpr(callee.decl); ret != nil {
			calleeRegion := sc.byNode[callee]
			return sc.resolveShardExpr(calleeRegion, ret)
		}
	}
	return domainUnknown, false
}

// singleReturnExpr returns the expression of a one-statement
// `return <expr>` body, or nil.
func singleReturnExpr(decl *ast.FuncDecl) ast.Expr {
	if decl.Body == nil || len(decl.Body.List) != 1 {
		return nil
	}
	ret, ok := decl.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return nil
	}
	return ret.Results[0]
}

// resolveShardLocal resolves a plain identifier in shard position: a local
// assigned once from env.NewShard() takes a line annotation on (or above)
// that assignment, falling back to an anonymous per-function domain.
// Parameters and anything else stay unknown.
func (sc *shardContext) resolveShardLocal(r *shardRegion, id *ast.Ident) (string, bool) {
	info := r.pkg.Info
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return domainUnknown, false
	}
	if fi := sc.ann.fields[v]; fi != nil && fi.binder {
		return fi.domain, false
	}
	// Search the whole enclosing declared function (the variable may be
	// assigned in the parent region and captured by a literal).
	root := r
	for root.encl != nil {
		root = root.encl
	}
	var domain string
	found := false
	ast.Inspect(root.body, func(node ast.Node) bool {
		as, ok := node.(*ast.AssignStmt)
		if !ok || found {
			return !found
		}
		for i, lhs := range as.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok || i >= len(as.Rhs) {
				continue
			}
			lobj := info.Defs[lid]
			if lobj == nil {
				lobj = info.Uses[lid]
			}
			if lobj != v {
				continue
			}
			call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
			if !ok {
				continue
			}
			if name, _, ok := simMethod(info, call, "Env"); ok && name == "NewShard" {
				if d, ok := sc.lineDomain(as.Pos()); ok {
					domain = d
				} else {
					domain = sc.anonDomain(r)
				}
				found = true
				return false
			}
		}
		return true
	})
	if found {
		return domain, false
	}
	return domainUnknown, false
}

// anonDomain names the domain of an unannotated local shard after the
// enclosing declared function, which is stable across unrelated edits.
func (sc *shardContext) anonDomain(r *shardRegion) string {
	root := r
	for root.encl != nil {
		root = root.encl
	}
	if root.node != nil {
		return "anon(" + describeFunc(root.node) + ")"
	}
	return domainUnknown
}

// linkEdges precomputes a region's propagation edges and seeds spawnee
// affinity from resolved spawn sites.
func (sc *shardContext) linkEdges(r *shardRegion, spawnArg map[*ast.FuncLit]bool) {
	info := r.pkg.Info
	seen := map[*shardRegion]bool{}
	inspectRegion(r.body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			if callee := sc.g.calleeOf(info, node); callee != nil {
				if cr := sc.byNode[callee]; cr != nil && !seen[cr] {
					seen[cr] = true
					r.callees = append(r.callees, cr)
				}
			}
		case *ast.FuncLit:
			if cr := sc.byLit[node]; cr != nil && !spawnArg[node] {
				r.children = append(r.children, cr)
			}
		}
		return true
	})
	for i := range sc.spawns {
		s := &sc.spawns[i]
		if s.region != r || s.spawnee == nil {
			continue
		}
		if s.inherit {
			r.inheritees = append(r.inheritees, s.spawnee)
		} else {
			s.spawnee.affinity[s.domain] = true
		}
	}
}

// propagate runs the affinity fixpoint over the precomputed edges.
func (sc *shardContext) propagate() {
	merge := func(dst, src *shardRegion) bool {
		changed := false
		for d := range src.affinity {
			if !dst.affinity[d] {
				dst.affinity[d] = true
				changed = true
			}
		}
		return changed
	}
	for changed := true; changed; {
		changed = false
		for _, r := range sc.regions {
			if len(r.affinity) == 0 {
				continue
			}
			for _, e := range r.callees {
				if merge(e, r) {
					changed = true
				}
			}
			for _, e := range r.children {
				if merge(e, r) {
					changed = true
				}
			}
			for _, e := range r.inheritees {
				if merge(e, r) {
					changed = true
				}
			}
		}
	}
}

// affinityLabel renders a region's affinity set for messages: sorted,
// comma-joined, with the unknown marker spelled out.
func affinityLabel(aff map[string]bool) string {
	if len(aff) == 0 {
		return "none"
	}
	keys := make([]string, 0, len(aff))
	for d := range aff { //cdivet:allow maporder keys are collected unordered and sorted on the next line
		keys = append(keys, d)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if k == domainUnknown {
			keys[i] = "unknown"
		}
	}
	return strings.Join(keys, ", ")
}

// inSimPackage reports whether the region belongs to internal/sim itself,
// which implements the machinery the rules reason about.
func (r *shardRegion) inSimPackage() bool {
	return strings.HasSuffix(r.pkg.Path, "/internal/sim")
}
