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
)

// Package is one loaded, type-checked package plus its test files. Test
// files are type-checked in separate variants (mirroring how go test
// compiles them) so their extra imports never perturb the base import
// graph.
type Package struct {
	Path string // import path, e.g. "repro/internal/sim"
	Dir  string
	Name string

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

	// cg and regions memoize the module-wide structures the dataflow
	// analyzers share, built on first use (callGraphFor, regionGraphFor).
	// Module analysis is sequential, so plain fields suffice.
	cg      *callGraph
	regions *regionGraph
}

// LoadModule parses and type-checks every package of the module containing
// dir. Directories named testdata, hidden directories, and underscore
// directories are skipped, exactly as the go tool does.
func LoadModule(dir string) (*Module, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	m := &Module{Root: root, Path: modPath, Fset: token.NewFileSet()}

	var dirs []string
	err = filepath.Walk(root, func(p string, fi os.FileInfo, err error) error {
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
	if err := m.typecheck(); err != nil {
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
	pkg := &Package{Path: pkgPath, Dir: dir}
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
			pkg.Name = f.Name.Name
			pkg.Files = append(pkg.Files, f)
		}
	}
	if len(pkg.Files)+len(pkg.TestFiles)+len(pkg.XTestFiles) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// moduleImporter resolves module-internal import paths from the loaded set
// and everything else (the standard library) through the source importer,
// which compiles type information from GOROOT/src — modern toolchains ship
// no pre-built export data.
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

// typecheck type-checks all packages: base variants in dependency order,
// then test variants against the completed base map.
func (m *Module) typecheck() error {
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
	imp := &moduleImporter{local: local, std: importer.ForCompiler(m.Fset, "source", nil)}

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

// LoadDirAs parses and type-checks a directory tree as a standalone module
// rooted at the given synthetic import path. It is how the testdata corpora
// are loaded: corpus files import only the standard library (or each other,
// via the synthetic path), and the synthetic path lets a corpus exercise
// path-scoped rules (e.g. a "repro/internal/..." path for barego and
// errdrop). Subdirectories become subpackages — "<asPath>/<rel>" — so a
// corpus can model cross-package dataflow.
func LoadDirAs(dir, asPath string) (*Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	m := &Module{Root: abs, Path: asPath, Fset: token.NewFileSet()}

	var dirs []string
	err = filepath.Walk(abs, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !fi.IsDir() {
			return nil
		}
		base := fi.Name()
		if p != abs && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: walking %s: %w", abs, err)
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
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	if err := m.typecheck(); err != nil {
		return nil, err
	}
	return m, nil
}

// Match reports whether the package path matches any of the patterns,
// interpreted relative to the module: "./..." matches everything, a
// trailing "/..." matches a subtree, anything else matches one package.
// Patterns may be given as import paths or as ./-prefixed directories.
func (m *Module) Match(p *Package, patterns []string) bool {
	if len(patterns) == 0 {
		return true
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(p.Path, m.Path), "/")
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		pat = strings.TrimPrefix(pat, "./")
		if pat == "..." || pat == "" && rel == "" {
			return true
		}
		if sub, ok := strings.CutSuffix(pat, "/..."); ok {
			if rel == sub || strings.HasPrefix(rel, sub+"/") || p.Path == sub || strings.HasPrefix(p.Path, sub+"/") {
				return true
			}
			continue
		}
		if rel == pat || p.Path == pat {
			return true
		}
	}
	return false
}
