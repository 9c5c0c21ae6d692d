package analysis

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// corpusPath puts every corpus in scope of the path-sensitive rules
// (barego and errdrop apply under internal/, floateq everywhere but
// internal/stats).
const corpusPath = "repro/internal/corpus"

// loadCorpus loads testdata/<dir> as a module at corpusPath, importing
// the standard library through the process's shared importer.
func loadCorpus(dir string) (*Module, error) {
	return loadCorpusWith(dir, token.NewFileSet(), stdImporter)
}

// loadCorpusWith loads testdata/<dir> as a module at corpusPath, parsing
// into fset and importing the standard library through std.
func loadCorpusWith(dir string, fset *token.FileSet, std types.Importer) (*Module, error) {
	root, err := filepath.Abs(filepath.Join("testdata", dir))
	if err != nil {
		return nil, err
	}
	return loadTree(root, corpusPath, fset, std)
}

// markers collects the file:line positions of "// want" comments.
func markers(m *Module) map[string]int {
	want := map[string]int{}
	for _, p := range m.Packages {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == "want" {
						pos := m.Fset.Position(c.Pos())
						want[fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)]++
					}
				}
			}
		}
	}
	return want
}

// corpus is one testdata directory and the analyzer it exercises.
type corpus struct {
	dir string
	a   *Analyzer
}

// corpora lists one corpus per analyzer, named after it, plus maporder:
// the map-range sinks taint reports even for an untainted value.
func corpora() []corpus {
	var cs []corpus
	for _, a := range All() {
		cs = append(cs, corpus{a.Name, a})
	}
	return append(cs, corpus{"maporder", Taint})
}

// TestCorpus proves each analyzer both fires on its positive cases and
// honors a justified suppression: any missed positive, spurious negative,
// failed suppression, or stale directive shows up as a set difference.
func TestCorpus(t *testing.T) {
	for _, c := range corpora() {
		a := c.a
		t.Run(c.dir, func(t *testing.T) {
			m, err := loadCorpus(c.dir)
			if err != nil {
				t.Fatal(err)
			}
			findings := RunModule(m, Config{Analyzers: []*Analyzer{a}})
			got := map[string]int{}
			for _, f := range findings {
				if f.Rule != a.Name {
					t.Errorf("unexpected %s finding in %s corpus: %s", f.Rule, a.Name, f)
					continue
				}
				got[fmt.Sprintf("%s:%d", filepath.Base(f.File), f.Line)]++
			}
			want := markers(m)
			if len(want) == 0 {
				t.Fatalf("corpus %s has no // want markers", c.dir)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("findings mismatch\n got: %v\nwant: %v", got, want)
			}
		})
	}
}

// TestDirectiveProblems covers the suppression meta-rule: a directive with
// no rule, no reason, an unknown rule name, or no matching finding is
// itself reported.
func TestDirectiveProblems(t *testing.T) {
	m, err := loadCorpus("directive")
	if err != nil {
		t.Fatal(err)
	}
	findings := RunModule(m, Config{})
	var msgs []string
	for _, f := range findings {
		if f.Rule != DirectiveRule {
			t.Errorf("unexpected finding %s", f)
			continue
		}
		msgs = append(msgs, f.Message)
	}
	wantSubstrings := []string{
		"missing rule name",
		"needs a written justification",
		`unknown rule "nosuchrule"`,
		"suppresses no seededrand finding",
	}
	if len(msgs) != len(wantSubstrings) {
		t.Fatalf("got %d directive findings %v, want %d", len(msgs), msgs, len(wantSubstrings))
	}
	for i, sub := range wantSubstrings {
		if !strings.Contains(msgs[i], sub) {
			t.Errorf("finding %d = %q, want substring %q", i, msgs[i], sub)
		}
	}
}

// TestFindingOrderStable runs the full suite over the multi-finding
// maporder corpus repeatedly and demands byte-identical reports: reporting
// must not inherit map iteration nondeterminism from the driver itself.
func TestFindingOrderStable(t *testing.T) {
	var first []Finding
	for i := 0; i < 3; i++ {
		m, err := loadCorpus("maporder")
		if err != nil {
			t.Fatal(err)
		}
		findings := RunModule(m, Config{})
		if !sort.SliceIsSorted(findings, func(a, b int) bool {
			fa, fb := findings[a], findings[b]
			if fa.File != fb.File {
				return fa.File < fb.File
			}
			return fa.Line < fb.Line || fa.Line == fb.Line && fa.Col < fb.Col
		}) {
			t.Fatalf("run %d: findings not in position order: %v", i, findings)
		}
		if i == 0 {
			first = findings
			continue
		}
		if len(findings) != len(first) {
			t.Fatalf("run %d: %d findings, first run had %d", i, len(findings), len(first))
		}
		for j := range findings {
			if findings[j].String() != first[j].String() {
				t.Errorf("run %d: finding %d = %s, first run had %s", i, j, findings[j], first[j])
			}
		}
	}
}

// TestSubsetKeepsForeignDirectives runs a single rule over a corpus whose
// directive names a different (valid) rule: the directive must be neither
// "unknown" (validation is against the full suite) nor "stale" (a disabled
// analyzer cannot prove a suppression useful).
func TestSubsetKeepsForeignDirectives(t *testing.T) {
	m, err := loadCorpus("floateq")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range RunModule(m, Config{Analyzers: []*Analyzer{Taint}}) {
		t.Errorf("unexpected finding with taint-only run: %s", f)
	}
}

// TestSharedStdImporterPositions: every module imports the standard
// library through the process's one importer, whose FileSet no module
// shares. Loading the corpora as the loader once did — standard library
// and module files in one FileSet — must yield the same findings at the
// same positions, so no finding is reported at a standard-library
// position that a module's own FileSet would misresolve.
func TestSharedStdImporterPositions(t *testing.T) {
	fset := token.NewFileSet()
	private := importer.ForCompiler(fset, "source", nil)
	dirs := []string{"directive"}
	for _, c := range corpora() {
		dirs = append(dirs, c.dir)
	}
	for _, dir := range dirs {
		shared, err := loadCorpus(dir)
		if err != nil {
			t.Fatal(err)
		}
		own, err := loadCorpusWith(dir, fset, private)
		if err != nil {
			t.Fatal(err)
		}
		got, want := RunModule(shared, Config{}), RunModule(own, Config{})
		if len(got) == 0 {
			t.Errorf("%s: no findings to compare", dir)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: findings with the shared importer\n%v\ndiffer from one FileSet's\n%v", dir, got, want)
		}
		root := shared.Root + string(filepath.Separator)
		for _, f := range got {
			if !strings.HasPrefix(f.File, root) {
				t.Errorf("%s: finding outside the module: %s", dir, f)
			}
		}
	}
}

// TestConcurrentLoads: loads that run at once share the one
// standard-library importer, and each still reports its corpus's
// findings. Run it under -race.
func TestConcurrentLoads(t *testing.T) {
	cs := corpora()
	got := make([][]Finding, len(cs))
	errs := make([]error, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := loadCorpus(c.dir)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = RunModule(m, Config{Analyzers: []*Analyzer{c.a}})
		}()
	}
	wg.Wait()
	for i, c := range cs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", c.dir, errs[i])
		}
		m, err := loadCorpus(c.dir)
		if err != nil {
			t.Fatal(err)
		}
		if want := RunModule(m, Config{Analyzers: []*Analyzer{c.a}}); !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s: concurrent load found\n%v\nwant\n%v", c.dir, got[i], want)
		}
	}
}
