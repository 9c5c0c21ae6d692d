package analysis

import (
	"go/token"
	"go/types"
	"strings"
)

// TestOnly flags exported API in internal packages that only tests reach.
// An exported func, method, interface method, var, const, type or field
// declared in a base file under internal/ is reported when no base file of
// the module names it: a name kept alive by its tests alone is code the
// outputs never run, and a test of it proves nothing about them.
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
var TestOnly = &Analyzer{
	Name:      "testonly",
	Doc:       "exported name in an internal package that no non-test code of the module uses",
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
		for _, obj := range p.Info.Uses {
			// A standard-library position belongs to another FileSet.
			if inModule(obj.Pkg()) {
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
			if obj == nil || !obj.Exported() || used[obj.Pos()] || !apiObject(obj) {
				continue
			}
			if fn, ok := obj.(*types.Func); ok && implementsAny(fn, ifaces) {
				continue
			}
			mp.Reportf(id.Pos(), "exported %s is used only by tests, or by nothing; delete it, or move it into a _test.go file", obj.Name())
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
