package cdi

// Seeded-bug regression for the waitgraph analyzer: it plants a deadlock
// in a scratch copy of the module and demands a finding, proving the rule
// catches the failure class it exists for. The repo-wide zero-findings gate
// is TestDeterminismInvariants (analysis_test.go).

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// copyModuleForPlant clones the module's base sources (no tests, no
// testdata) into a scratch dir the seeded-bug tests can mutate freely.
func copyModuleForPlant(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if name != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dst := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, src, 0o644)
	})
	if err != nil {
		t.Fatalf("copy module: %v", err)
	}
	return root
}

// plant rewrites one occurrence of old to new in file, failing if the
// pattern is gone (the plant site moved — update the test).
func plant(t *testing.T, file, old, new string) {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("read plant site: %v", err)
	}
	if !strings.Contains(string(src), old) {
		t.Fatalf("plant pattern %q not found in %s", old, file)
	}
	out := strings.Replace(string(src), old, new, 1)
	if err := os.WriteFile(file, []byte(out), 0o644); err != nil {
		t.Fatalf("write plant: %v", err)
	}
}

// runPlanted loads the scratch module and runs one analyzer over it.
func runPlanted(t *testing.T, root, rule string) []analysis.Finding {
	t.Helper()
	as, err := analysis.ByName(rule)
	if err != nil {
		t.Fatalf("resolve analyzer: %v", err)
	}
	m, err := analysis.LoadModule(root)
	if err != nil {
		t.Fatalf("load planted module: %v", err)
	}
	findings, err := analysis.RunModule(m, analysis.Config{Analyzers: as})
	if err != nil {
		t.Fatalf("run planted module: %v", err)
	}
	return findings
}

// TestWaitGraphSeededBug deletes the fire half of the engine's admission
// handshake: the batcher then waits on a Signal nothing ever fires, the
// deterministic-deadlock class waitgraph exists to catch.
func TestWaitGraphSeededBug(t *testing.T) {
	if testing.Short() {
		t.Skip("module copy + full typecheck; skipped in -short")
	}
	root := copyModuleForPlant(t)
	plant(t, filepath.Join(root, "internal", "serve", "engine.go"),
		"e.more.Fire()", "p.Yield()")
	findings := runPlanted(t, root, "waitgraph")
	for _, f := range findings {
		if strings.Contains(f.Message, "never fired") && strings.Contains(f.Message, "more") {
			return
		}
	}
	t.Fatalf("planted never-fired Signal not caught; findings: %v", findings)
}
