package analysis

import (
	"go/ast"
	"go/types"
)

// Config selects what to analyze.
type Config struct {
	// Dir is any directory inside the target module (default ".").
	Dir string
	// Analyzers defaults to the full suite (All).
	Analyzers []*Analyzer
}

// Run loads the module containing cfg.Dir and applies the analyzer suite to
// every package, returning suppression-filtered findings in stable
// (file, line, col, rule) order.
//
//cdivet:allow testonly the entry point of the repo's lint gate, TestDeterminismInvariants
func Run(cfg Config) ([]Finding, error) {
	dir := cfg.Dir
	if dir == "" {
		dir = "."
	}
	m, err := LoadModule(dir)
	if err != nil {
		return nil, err
	}
	return RunModule(m, cfg), nil
}

// RunModule applies the suite to an already loaded module.
func RunModule(m *Module, cfg Config) []Finding {
	analyzers := cfg.Analyzers
	if len(analyzers) == 0 {
		analyzers = All()
	}

	var findings []Finding
	runPass := func(p *Package, files []*ast.File, tpkg *types.Package, info *types.Info) {
		if len(files) == 0 || tpkg == nil {
			return
		}
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     m.Fset,
				Files:    files,
				Path:     p.Path,
				Pkg:      tpkg,
				Info:     info,
				findings: &findings,
			}
			a.Run(pass)
		}
	}

	var dirFiles []*ast.File
	for _, p := range m.Packages {
		runPass(p, p.Files, p.Types, p.Info)
		runPass(p, p.TestFiles, p.TestTypes, p.TestInfo)
		runPass(p, p.XTestFiles, p.XTypes, p.XInfo)
		dirFiles = append(dirFiles, p.Files...)
		dirFiles = append(dirFiles, p.TestFiles...)
		dirFiles = append(dirFiles, p.XTestFiles...)
	}

	// Module-wide analyzers see every package at once: cross-package
	// dataflow needs the full call graph.
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		a.RunModule(&ModulePass{Analyzer: a, Module: m, findings: &findings})
	}

	enabled := map[string]bool{}
	for _, a := range analyzers {
		enabled[a.Name] = true
	}
	findings = applySuppression(findings, parseDirectives(m.Fset, dirFiles), enabled)
	sortFindings(findings)
	return findings
}
