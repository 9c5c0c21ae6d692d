// Command cdivet runs the determinism-invariant static-analysis suite
// (internal/analysis) over the repository.
//
//	cdivet ./...                   # whole module (the CI gate)
//	cdivet ./internal/sim          # one package
//	cdivet -rules maporder ./...   # a subset of rules
//	cdivet -json ./... > out.json  # machine-readable findings
//	cdivet -sarif out.sarif ./...  # also write SARIF 2.1.0 for code scanning
//	cdivet -fix ./...              # apply suggested fixes in place
//	cdivet -fix -diff ./...        # print the fixes as a unified diff instead
//	cdivet -directives ./...       # inventory //cdivet:allow directives
//	cdivet -list                   # describe every rule
//
// Exit status: 0 clean, 1 findings (or, with -directives, malformed/stale
// directives), 2 usage or load error. Suppress an intentional violation in
// source with a justified directive on, or directly above, the line:
//
//	//cdivet:allow <rule> <reason>
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	rules := flag.String("rules", "", "comma-separated rule subset (default: all)")
	list := flag.Bool("list", false, "list rules and exit")
	fix := flag.Bool("fix", false, "apply suggested fixes to the source files")
	diff := flag.Bool("diff", false, "with -fix, print a unified diff instead of writing files")
	sarifPath := flag.String("sarif", "", "also write findings as SARIF 2.1.0 to this file")
	directives := flag.Bool("directives", false, "inventory //cdivet:allow directives; exit 1 on malformed or stale ones")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *diff && !*fix {
		fmt.Fprintln(os.Stderr, "cdivet: -diff requires -fix")
		os.Exit(2)
	}

	cfg := analysis.Config{Patterns: flag.Args()}
	if len(cfg.Patterns) == 0 {
		cfg.Patterns = []string{"./..."}
	}
	if *rules != "" {
		as, err := analysis.ByName(*rules)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfg.Analyzers = as
	}

	m, err := analysis.LoadModule(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *directives {
		os.Exit(runDirectives(m, cfg))
	}

	findings, err := analysis.RunModule(m, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *sarifPath != "" {
		f, err := os.Create(*sarifPath)
		if err == nil {
			err = analysis.WriteSARIF(f, findings, m.Root)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	if *fix {
		os.Exit(runFix(findings))
	}

	if *jsonOut {
		if err := analysis.WriteJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else if err := analysis.WriteText(os.Stdout, findings); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "cdivet: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}

// runFix applies (or, with -diff, renders) every fix the findings carry and
// reports what had no fix. Exit 1 when unfixable findings remain, so
// `cdivet -fix && cdivet` converges to the same gate as plain cdivet.
func runFix(findings []analysis.Finding) int {
	diff := flag.Lookup("diff").Value.String() == "true"
	res, err := analysis.ApplyFixes(findings)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	files := make([]string, 0, len(res.Fixed))
	for file := range res.Fixed { //cdivet:allow maporder keys are collected unordered and sorted on the next line
		files = append(files, file)
	}
	sort.Strings(files)
	for _, file := range files {
		if diff {
			old, err := os.ReadFile(file)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
			rel := relToWd(file)
			fmt.Print(analysis.UnifiedDiff(rel, rel, old, res.Fixed[file]))
		} else if err := os.WriteFile(file, res.Fixed[file], 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	verb := "applied"
	if diff {
		verb = "rendered"
	}
	fmt.Fprintf(os.Stderr, "cdivet: %s %d fix(es) across %d file(s)\n", verb, res.Applied, len(files))
	if len(res.Skipped) > 0 {
		fmt.Fprintf(os.Stderr, "cdivet: %d fix(es) skipped (conflicts); re-run -fix to apply\n", len(res.Skipped))
	}
	unfixed := 0
	for _, f := range findings {
		if f.Fix == nil || len(f.Fix.Edits) == 0 {
			fmt.Printf("%s: [%s] %s (no automatic fix)\n", f.Pos, f.Rule, f.Message)
			unfixed++
		}
	}
	if unfixed > 0 || len(res.Skipped) > 0 {
		return 1
	}
	return 0
}

// runDirectives prints every //cdivet:allow directive with its rule, age in
// commits (how many commits HEAD is ahead of the directive's introduction,
// per git blame; "-" when git is unavailable), status, and reason. Exit 1
// when any directive is malformed or stale.
func runDirectives(m *analysis.Module, cfg analysis.Config) int {
	infos, err := analysis.Inventory(m, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	bad := 0
	for _, d := range infos {
		status := "ok"
		switch {
		case d.Bad != "":
			status, bad = "MALFORMED", bad+1
		case d.Stale:
			status, bad = "STALE", bad+1
		}
		rule := d.Rule
		if rule == "" {
			rule = "?"
		}
		fmt.Printf("%s:%d\t%s\tage=%s\t%s\t%s\n",
			relToWd(d.Pos.Filename), d.Pos.Line, rule, directiveAge(m.Root, d.Pos.Filename, d.Pos.Line), status, d.Reason)
	}
	fmt.Fprintf(os.Stderr, "cdivet: %d directive(s), %d problem(s)\n", len(infos), bad)
	if bad > 0 {
		return 1
	}
	return 0
}

// directiveAge asks git how many commits HEAD is ahead of the commit that
// introduced the directive's line. Uncommitted lines age "0"; any git
// failure (no repo, shallow clone) degrades to "-" rather than failing the
// inventory.
func directiveAge(root, file string, line int) string {
	blame, err := exec.Command("git", "-C", root, "blame", "--porcelain",
		"-L", fmt.Sprintf("%d,%d", line, line), "--", file).Output()
	if err != nil {
		return "-"
	}
	fields := strings.Fields(string(blame))
	if len(fields) == 0 {
		return "-"
	}
	sha := fields[0]
	if strings.HasPrefix(sha, "0000000") {
		return "0" // uncommitted
	}
	count, err := exec.Command("git", "-C", root, "rev-list", "--count", sha+"..HEAD").Output()
	if err != nil {
		return "-"
	}
	return strings.TrimSpace(string(count))
}

// relToWd shortens an absolute path to be relative to the working directory
// when possible, keeping output copy-pasteable.
func relToWd(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(wd, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}
