package cdi

// Self-checks and seeded-bug regressions for the shard-era analyzers. The
// self-checks hold every shard-threaded package to zero shardsafety and
// waitgraph findings — an ownership violation in the measured core can
// hide only behind an inline justified directive. The seeded tests prove the analyzers actually catch
// the failure classes they exist for, by planting each bug in a scratch
// copy of the module and demanding a finding.

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// shardPackages is every package the sharded engine threads domain keys
// through, plus the engine itself.
var shardPackages = []string{
	"./internal/sim",
	"./internal/gpu",
	"./internal/mpi",
	"./internal/proxy",
	"./internal/fabric",
	"./internal/remoting",
	"./internal/serve",
	"./internal/health",
	"./internal/pool",
}

func runShardSelfCheck(t *testing.T, rule string) {
	t.Helper()
	as, err := analysis.ByName(rule)
	if err != nil {
		t.Fatalf("resolve analyzer: %v", err)
	}
	findings, err := analysis.Run(analysis.Config{
		Patterns:  shardPackages,
		Analyzers: as,
	})
	if err != nil {
		t.Fatalf("%s self-check failed to run: %v", rule, err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Logf("the shard-threaded packages are kept clean: fix the violation or justify it with an inline `//cdivet:allow %s <reason>`", rule)
	}
}

func TestShardSafetySelfCheck(t *testing.T) { runShardSelfCheck(t, "shardsafety") }

func TestWaitGraphSelfCheck(t *testing.T) { runShardSelfCheck(t, "waitgraph") }

// TestPoolSelfCheck holds the pool scheduler alone to zero findings
// across the two analyzers its design leans on: shardsafety (the
// single-writer mailbox discipline) and waitgraph (the wake signal is
// always fireable). The repo-wide self-checks above cover both; this one
// exists so a pool-only regression fails with the package's name on it.
func TestPoolSelfCheck(t *testing.T) {
	for _, rule := range []string{"shardsafety", "waitgraph"} {
		as, err := analysis.ByName(rule)
		if err != nil {
			t.Fatalf("resolve analyzer: %v", err)
		}
		findings, err := analysis.Run(analysis.Config{
			Patterns:  []string{"./internal/pool"},
			Analyzers: as,
		})
		if err != nil {
			t.Fatalf("%s over internal/pool failed to run: %v", rule, err)
		}
		for _, f := range findings {
			t.Errorf("%s: %s", rule, f)
		}
	}
}

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

// TestShardSafetySeededBug moves the serving engine's arrivals proc off the
// engine shard onto the default domain — the cross-shard mutation PR 7's
// threading deliberately avoids — and demands shardsafety catch the
// admission-queue write.
func TestShardSafetySeededBug(t *testing.T) {
	if testing.Short() {
		t.Skip("module copy + full typecheck; skipped in -short")
	}
	root := copyModuleForPlant(t)
	plant(t, filepath.Join(root, "internal", "serve", "engine.go"),
		`shard.Spawn("serve-arrivals"`, `env.Spawn("serve-arrivals"`)
	findings := runPlanted(t, root, "shardsafety")
	for _, f := range findings {
		if strings.Contains(f.Message, "serve.(Engine).queue") && strings.Contains(f.Message, "default") {
			return
		}
	}
	t.Fatalf("planted cross-shard queue write not caught; findings: %v", findings)
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
