package analysis

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// -update regenerates the committed golden files from current output.
var update = flag.Bool("update", false, "rewrite golden files")

// TestCrossPackageMiss is the existence proof for the module-wide layer:
// the taint corpus's producer package leaks map iteration order through a
// return value, which the per-file maporder rule provably misses (zero
// findings), while taint reports it at the emitting sink one package away.
func TestCrossPackageMiss(t *testing.T) {
	m, err := LoadDirAs(filepath.Join("testdata", "taint"), corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	perFile, err := RunModule(m, Config{Analyzers: []*Analyzer{MapOrder}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range perFile {
		// The corpus root deliberately holds a local (same-file) positive;
		// the proof is that the producer package — where the nondeterminism
		// is minted — shows nothing to the per-file rule.
		if strings.Contains(f.File, "producer") {
			t.Errorf("per-file maporder unexpectedly found: %s", f)
		}
	}

	crossPkg, err := RunModule(m, Config{Analyzers: []*Analyzer{Taint}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range crossPkg {
		if strings.Contains(f.Message, "(via producer.ArbitraryKey)") && strings.HasSuffix(f.File, "taint.go") {
			found = true
		}
	}
	if !found {
		t.Errorf("taint did not report the cross-package leak; findings: %v", crossPkg)
	}
}

// copyFixCorpus clones the fixable corpus into a scratch dir so ApplyFixes
// can read (and the test write) real files without touching testdata.
func copyFixCorpus(t *testing.T) string {
	t.Helper()
	src := filepath.Join("testdata", "fix", "src")
	tmp := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tmp, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return tmp
}

// fixCorpus analyzes the scratch copy under the rules with mechanical
// fixes and computes every fix. (The full suite would also report taint at
// the same loops — correct, but fixless by design: taint cannot know which
// laundering is right.)
func fixCorpus(t *testing.T, dir string) *FixResult {
	t.Helper()
	m, err := LoadDirAs(dir, corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunModule(m, Config{Analyzers: []*Analyzer{MapOrder, SeededRand}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Fix == nil || len(f.Fix.Edits) == 0 {
			t.Errorf("finding in fix corpus carries no fix: %s", f)
		}
	}
	res, err := ApplyFixes(findings)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skipped) > 0 {
		t.Fatalf("fixes skipped as conflicting: %v", res.Skipped)
	}
	return res
}

func sortedFiles(fixed map[string][]byte) []string {
	files := make([]string, 0, len(fixed))
	for f := range fixed { //cdivet:allow maporder keys are collected unordered and sorted on the next line
		files = append(files, f)
	}
	sort.Strings(files)
	return files
}

func compareGolden(t *testing.T, goldenPath string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden:\n%s", goldenPath,
			UnifiedDiff("golden", "got", want, got))
	}
}

// TestFixGolden: cdivet -fix over the corpus must produce byte-identical
// output to the committed goldens, and the fixed files must re-analyze
// completely clean.
func TestFixGolden(t *testing.T) {
	tmp := copyFixCorpus(t)
	res := fixCorpus(t, tmp)
	for _, file := range sortedFiles(res.Fixed) {
		if err := os.WriteFile(file, res.Fixed[file], 0o644); err != nil {
			t.Fatal(err)
		}
		compareGolden(t, filepath.Join("testdata", "fix", "golden", filepath.Base(file)+".golden"), res.Fixed[file])
	}

	m, err := LoadDirAs(tmp, corpusPath)
	if err != nil {
		t.Fatalf("fixed corpus no longer loads: %v", err)
	}
	findings, err := RunModule(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("fixed corpus still reports: %s", f)
	}
}

// TestFixDiffGolden: the -fix -diff rendering is stable.
func TestFixDiffGolden(t *testing.T) {
	tmp := copyFixCorpus(t)
	res := fixCorpus(t, tmp)
	var sb strings.Builder
	for _, file := range sortedFiles(res.Fixed) {
		old, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString(UnifiedDiff(filepath.Base(file), filepath.Base(file), old, res.Fixed[file]))
	}
	compareGolden(t, filepath.Join("testdata", "fix", "diff.golden"), []byte(sb.String()))
}

// TestSARIFGolden pins the SARIF 2.1.0 rendering, relative URIs included.
func TestSARIFGolden(t *testing.T) {
	m, err := LoadDirAs(filepath.Join("testdata", "simunits"), corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunModule(m, Config{Analyzers: []*Analyzer{SimUnits}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, findings, m.Root); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "sarif.golden"), buf.Bytes())
}

// TestSelfCheck: the analyzer package itself must pass its own full suite —
// an analysis suite that cannot gate its own source has no business gating
// the model's.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the full module")
	}
	findings, err := Run(Config{Dir: ".", Patterns: []string{"./internal/analysis"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("self-check: %s", f)
	}
}
