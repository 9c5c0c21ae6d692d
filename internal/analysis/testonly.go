package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TestOnly flags API in internal packages that only tests reach. An
// exported func, method, interface method, var, const or type declared in
// a base file under internal/ is reported when no base file of the module
// names it, and a struct field, exported or not, when no base file reads
// it: a name kept alive by its tests alone is code the outputs never run,
// and a test of it proves nothing about them.
//
// Uses are read from the base variants' Info.Uses, which also records the
// selected name of every selector, and keyed by the declaration's
// position: a test variant re-checks a package's files into objects of its
// own, and a member of a generic instance is an object apart from its
// origin, but both share the declaration's position. A method is never
// reported when it implements an interface declared in the module, or an
// exported interface of a package the module imports (fmt.Stringer,
// error, sort.Interface): such a method is reached through the interface
// with no static reference. Embedded fields are not reported; a promoted
// selection reaches them implicitly.
//
// A field is read where a base file names it anywhere but as the target
// of an assignment, op-assignment or ++/--, or as a key of a keyed
// composite literal; writing x.f.g writes x.f too when x.f is a struct
// value. A value read as a whole reads every field it holds: a struct
// compared with == or !=, used as a map key, or passed to an
// empty-interface parameter (fmt's verbs, encoding/json), the last also
// through a pointer, slice, array or map. A method-bearing interface
// parameter does not count: its callee reads the value only through
// methods, whose reads the rule sees.
var TestOnly = &Analyzer{
	Name:      "testonly",
	RunModule: runTestOnly,
}

func runTestOnly(mp *ModulePass) {
	m := mp.Module
	inModule := func(pkg *types.Package) bool {
		return pkg != nil && strings.HasPrefix(pkg.Path()+"/", m.Path+"/")
	}
	used := map[token.Pos]bool{}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	imported := map[*types.Package]bool{}
	for _, p := range m.Packages {
		if p.Info == nil {
			continue
		}
		written := markWholeReads(p, used)
		for id, obj := range p.Info.Uses {
			// A standard-library position belongs to another FileSet.
			if inModule(obj.Pkg()) && !written[id] {
				used[obj.Pos()] = true
			}
		}
		ifaces = appendInterfaces(ifaces, p.Types, false)
		for _, imp := range p.Types.Imports() {
			if !inModule(imp) && !imported[imp] {
				imported[imp] = true
				ifaces = appendInterfaces(ifaces, imp, true)
			}
		}
	}

	for _, p := range m.Packages {
		if p.Info == nil || !strings.Contains(p.Path+"/", "/internal/") {
			continue
		}
		for id, obj := range p.Info.Defs {
			if obj == nil || used[obj.Pos()] || !apiObject(obj) {
				continue
			}
			if isField(obj) {
				if obj.Name() != "_" {
					mp.Reportf(id.Pos(), "field %s is read only by tests, or by nothing; delete it, or move it into a _test.go file", obj.Name())
				}
				continue
			}
			if !obj.Exported() {
				continue
			}
			if fn, ok := obj.(*types.Func); ok && implementsAny(fn, ifaces) {
				continue
			}
			mp.Reportf(id.Pos(), "exported %s is used only by tests, or by nothing; delete it, or move it into a _test.go file", obj.Name())
		}
	}
}

// markWholeReads walks p's base files. It marks in used every field of a
// value read as a whole, and returns the field selectors and keys that
// only write their field.
func markWholeReads(p *Package, used map[token.Pos]bool) map[*ast.Ident]bool {
	info := p.Info
	written := map[*ast.Ident]bool{}
	// A named type walked without deref may be met again with it.
	shallow, deep := map[types.Type]bool{}, map[types.Type]bool{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					markWritten(lhs, info, written)
				}
			case *ast.IncDecStmt:
				markWritten(n.X, info, written)
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok && isField(info.Uses[id]) {
							written[id] = true
						}
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					markFields(info.TypeOf(n.X), false, used, shallow)
					markFields(info.TypeOf(n.Y), false, used, shallow)
				}
			case *ast.MapType:
				markFields(info.TypeOf(n.Key), false, used, shallow)
			case *ast.CallExpr:
				sig, ok := info.TypeOf(n.Fun).(*types.Signature)
				if !ok || info.Types[n.Fun].IsType() {
					return true
				}
				for i, arg := range n.Args {
					if param := paramType(sig, i, n.Ellipsis.IsValid()); param != nil && isEmptyInterface(param) {
						markFields(info.TypeOf(arg), true, used, deep)
					}
				}
			}
			return true
		})
	}
	return written
}

// markWritten marks the field that assigning to e writes, and, while the
// written field lives inside a struct or array value that is itself a
// field, that field too.
func markWritten(e ast.Expr, info *types.Info, written map[*ast.Ident]bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			sel := info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			written[x.Sel] = true
			if sel.Indirect() {
				return
			}
			e = x.X
		case *ast.IndexExpr:
			if _, ok := info.TypeOf(x.X).Underlying().(*types.Array); !ok {
				return
			}
			e = x.X
		default:
			return
		}
	}
}

// paramType returns the type of the parameter that argument i of a call
// to sig binds, or nil.
func paramType(sig *types.Signature, i int, ellipsis bool) types.Type {
	params := sig.Params()
	n := params.Len()
	switch {
	case sig.Variadic() && i >= n-1 && !ellipsis:
		return params.At(n - 1).Type().(*types.Slice).Elem()
	case i < n:
		return params.At(i).Type()
	}
	return nil
}

// markFields marks every field of the structs a value of type t holds,
// nested struct and array values included, and with deref also those
// reached through a pointer, slice or map.
func markFields(t types.Type, deref bool, used map[token.Pos]bool, seen map[types.Type]bool) {
	if t == nil {
		return
	}
	if _, ok := t.(*types.Named); ok {
		if seen[t] {
			return
		}
		seen[t] = true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			used[u.Field(i).Pos()] = true
			markFields(u.Field(i).Type(), deref, used, seen)
		}
	case *types.Array:
		markFields(u.Elem(), deref, used, seen)
	case *types.Pointer:
		if deref {
			markFields(u.Elem(), deref, used, seen)
		}
	case *types.Slice:
		if deref {
			markFields(u.Elem(), deref, used, seen)
		}
	case *types.Map:
		if deref {
			markFields(u.Key(), deref, used, seen)
			markFields(u.Elem(), deref, used, seen)
		}
	}
}

// appendInterfaces appends the package-level interface types of pkg, only
// the exported ones when exportedOnly is set.
func appendInterfaces(ifaces []*types.Interface, pkg *types.Package, exportedOnly bool) []*types.Interface {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || exportedOnly && !tn.Exported() {
			continue
		}
		if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
			ifaces = append(ifaces, iface)
		}
	}
	return ifaces
}

// apiObject reports whether obj is a declaration the rule covers: a
// package-level func, var, const or type, a method, an interface method,
// or a non-embedded struct field.
func apiObject(obj types.Object) bool {
	switch o := obj.(type) {
	case *types.Func:
		return true
	case *types.Var:
		if o.IsField() {
			return !o.Embedded()
		}
	case *types.TypeName, *types.Const:
	default:
		return false
	}
	return obj.Parent() == obj.Pkg().Scope()
}

// implementsAny reports whether method fn implements a method of one of
// ifaces: the interface declares a method of fn's name, and fn's receiver
// type implements the interface through a pointer, whose method set holds
// the value receiver's methods too.
func implementsAny(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || types.IsInterface(named) {
		// An interface method implements nothing: it is the contract.
		return false
	}
	for _, iface := range ifaces {
		if declares(iface, fn.Name()) && types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// declares reports whether iface has a method called name.
func declares(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// isField reports whether obj is a struct field.
func isField(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.IsField()
}

// isEmptyInterface reports whether t is an interface with no methods, the
// parameter type through which fmt and encoding/json reflect on a value.
func isEmptyInterface(t types.Type) bool {
	iface, ok := t.Underlying().(*types.Interface)
	return ok && iface.NumMethods() == 0
}
