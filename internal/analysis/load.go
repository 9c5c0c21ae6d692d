package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package plus its test files. Test
// files are type-checked in separate variants (mirroring how go test
// compiles them) so their extra imports never perturb the base import
// graph.
type Package struct {
	Path string // import path, e.g. "repro/internal/sim"

	Files      []*ast.File // non-test files
	TestFiles  []*ast.File // in-package _test.go files
	XTestFiles []*ast.File // external (package foo_test) files

	Types *types.Package
	Info  *types.Info // covers Files

	// Test-variant results; nil when the package has no such files.
	TestTypes *types.Package
	TestInfo  *types.Info
	XTypes    *types.Package
	XInfo     *types.Info
}

// Module is a fully loaded module tree sharing one FileSet.
type Module struct {
	Root     string // absolute directory containing go.mod
	Path     string // module path from go.mod
	Fset     *token.FileSet
	Packages []*Package // in deterministic (path) order
}

// LoadModule parses and type-checks every package of the module containing
// dir. Directories named testdata, hidden directories, and underscore
// directories are skipped, exactly as the go tool does.
func LoadModule(dir string) (*Module, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	return loadTree(root, modPath, token.NewFileSet(), stdImporter)
}

// loadTree parses the tree under the absolute directory root into fset as
// a module with import path modPath, subdirectory rel becoming package
// "<modPath>/<rel>", and type-checks it, importing the standard library
// through std. The testdata corpora load through it under a synthetic
// path, which puts a corpus in scope of the path-scoped rules.
func loadTree(root, modPath string, fset *token.FileSet, std types.Importer) (*Module, error) {
	m := &Module{Root: root, Path: modPath, Fset: fset}

	var dirs []string
	err := filepath.Walk(root, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			return nil
		}
		base := fi.Name()
		if p != root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: walking %s: %w", root, err)
	}
	sort.Strings(dirs)

	for _, d := range dirs {
		pkg, err := m.parseDir(d)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			m.Packages = append(m.Packages, pkg)
		}
	}
	if len(m.Packages) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", root)
	}
	if err := m.typecheck(std); err != nil {
		return nil, err
	}
	return m, nil
}

// findModule walks upward from dir to the enclosing go.mod.
func findModule(dir string) (root, modPath string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: no module directive in %s/go.mod", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		d = parent
	}
}

// parseDir parses one directory into a Package skeleton (no types yet);
// it returns nil when the directory holds no Go files.
func (m *Module) parseDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(m.Root, dir)
	if err != nil {
		return nil, err
	}
	pkgPath := m.Path
	if rel != "." {
		pkgPath = m.Path + "/" + filepath.ToSlash(rel)
	}
	pkg := &Package{Path: pkgPath}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		switch {
		case strings.HasSuffix(name, "_test.go") && strings.HasSuffix(f.Name.Name, "_test"):
			pkg.XTestFiles = append(pkg.XTestFiles, f)
		case strings.HasSuffix(name, "_test.go"):
			pkg.TestFiles = append(pkg.TestFiles, f)
		default:
			pkg.Files = append(pkg.Files, f)
		}
	}
	if len(pkg.Files)+len(pkg.TestFiles)+len(pkg.XTestFiles) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// stdImporter type-checks the standard library from GOROOT/src (modern
// toolchains ship no pre-built export data) once per process: every
// module loaded after the first reuses its packages, which are the same
// for every module. Its FileSet holds only standard-library files, and a
// finding is always reported at a node of a module's own files, resolved
// in that module's FileSet — never at a standard-library position. The
// lock serializes imports, since loads may run concurrently.
var stdImporter = &lockedImporter{imp: importer.ForCompiler(token.NewFileSet(), "source", nil)}

// lockedImporter serializes an importer that is not safe for concurrent
// use.
type lockedImporter struct {
	mu  sync.Mutex
	imp types.Importer
}

func (l *lockedImporter) Import(path string) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.imp.Import(path)
}

// moduleImporter resolves module-internal import paths from the loaded set
// and everything else (the standard library) through std.
type moduleImporter struct {
	local map[string]*types.Package
	std   types.Importer
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := mi.local[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle or unchecked package %q", path)
		}
		return p, nil
	}
	return mi.std.Import(path)
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// typecheck type-checks all packages, importing the standard library
// through std: base variants in dependency order, then test variants
// against the completed base map.
func (m *Module) typecheck(std types.Importer) error {
	byPath := map[string]*Package{}
	for _, p := range m.Packages {
		byPath[p.Path] = p
	}

	// Topological order over module-internal imports of base files.
	order, err := m.topoSort(byPath)
	if err != nil {
		return err
	}

	local := map[string]*types.Package{}
	imp := &moduleImporter{local: local, std: std}

	check := func(path string, files []*ast.File) (*types.Package, *types.Info, error) {
		info := newInfo()
		cfg := types.Config{Importer: imp}
		tpkg, err := cfg.Check(path, m.Fset, files, info)
		if err != nil {
			return nil, nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
		}
		return tpkg, info, nil
	}

	for _, p := range order {
		if len(p.Files) == 0 {
			continue
		}
		tpkg, info, err := check(p.Path, p.Files)
		if err != nil {
			return err
		}
		p.Types, p.Info = tpkg, info
		local[p.Path] = tpkg
	}

	// Test variants: base files + in-package test files re-checked together
	// (their extra imports resolve against the completed base map), and the
	// external test package checked on its own.
	for _, p := range m.Packages {
		if len(p.TestFiles) > 0 {
			files := append(append([]*ast.File{}, p.Files...), p.TestFiles...)
			tpkg, info, err := check(p.Path, files)
			if err != nil {
				return err
			}
			p.TestTypes, p.TestInfo = tpkg, info
		}
		if len(p.XTestFiles) > 0 {
			tpkg, info, err := check(p.Path+"_test", p.XTestFiles)
			if err != nil {
				return err
			}
			p.XTypes, p.XInfo = tpkg, info
		}
	}
	return nil
}

// topoSort orders packages so every module-internal dependency of a
// package's base files precedes it.
func (m *Module) topoSort(byPath map[string]*Package) ([]*Package, error) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	state := map[*Package]int{}
	var order []*Package
	var visit func(p *Package, chain []string) error
	visit = func(p *Package, chain []string) error {
		switch state[p] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("analysis: import cycle: %s -> %s", strings.Join(chain, " -> "), p.Path)
		}
		state[p] = grey
		for _, f := range p.Files {
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				if dep, ok := byPath[path]; ok {
					if err := visit(dep, append(chain, p.Path)); err != nil {
						return err
					}
				}
			}
		}
		state[p] = black
		order = append(order, p)
		return nil
	}
	for _, p := range m.Packages {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}
