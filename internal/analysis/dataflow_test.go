package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestCrossPackageMiss is the existence proof for the module-wide layer:
// the taint corpus's producer package leaks map iteration order through a
// return value without emitting anything itself, and taint reports it at
// the emitting sink one package away.
func TestCrossPackageMiss(t *testing.T) {
	m, err := loadCorpus("taint")
	if err != nil {
		t.Fatal(err)
	}
	findings := RunModule(m, Config{Analyzers: []*Analyzer{Taint}})
	for _, f := range findings {
		if strings.Contains(f.Message, "(via producer.ArbitraryKey)") && strings.HasSuffix(f.File, "taint.go") {
			return
		}
	}
	t.Errorf("taint did not report the cross-package leak; findings: %v", findings)
}

// TestSelfCheck holds the checker to its own rules: the full suite, run
// over the whole module, reports nothing in this package.
func TestSelfCheck(t *testing.T) {
	here, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(Config{Dir: "."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		file, err := filepath.Abs(f.File)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Dir(file) == here {
			t.Errorf("self-check: %s", f)
		}
	}
}
