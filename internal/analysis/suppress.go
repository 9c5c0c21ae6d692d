package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// DirectiveRule is the pseudo-rule under which problems with the
// suppression directives themselves are reported: a directive with no
// reason, naming an unknown rule, matching no finding, or written in a
// non-canonical form.
const DirectiveRule = "directive"

// directive is one parsed //cdivet:allow comment.
type directive struct {
	pos    token.Position
	text   string // raw comment text
	rule   string
	reason string
	used   bool
	bad    string // non-empty when malformed; the finding message
}

const directivePrefix = "//cdivet:allow"

// canonical renders the normative spelling of a well-formed directive:
// single spaces between the marker, the rule, and the reason words.
func (d *directive) canonical() string {
	return directivePrefix + " " + d.rule + " " + d.reason
}

// parseDirectives extracts every //cdivet:allow directive from the files.
// Rule names are validated against the full suite, not the enabled subset,
// so a run restricted to one analyzer never miscalls another rule's
// directive unknown.
func parseDirectives(fset *token.FileSet, files []*ast.File) []*directive {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	var out []*directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				d := &directive{pos: fset.Position(c.Pos()), text: c.Text}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
					continue // e.g. //cdivet:allowlist — not our directive
				}
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					d.bad = "malformed directive: missing rule name and reason"
				case len(fields) == 1:
					d.bad = "malformed directive: suppression of " + fields[0] + " needs a written justification"
				case !known[fields[0]]:
					d.bad = fmt.Sprintf("directive names unknown rule %q", fields[0])
				default:
					d.rule = fields[0]
					d.reason = strings.Join(fields[1:], " ")
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// applySuppression drops findings covered by a well-formed directive on the
// same line or the line directly above, then reports directive problems:
// malformed/unknown directives, directives that suppressed nothing, and
// non-canonical spelling. Staleness is only judged for rules in the enabled
// set — a directive for an analyzer that is not running cannot prove itself
// useful.
func applySuppression(findings []Finding, dirs []*directive, enabled map[string]bool) []Finding {
	type key struct {
		file string
		line int
		rule string
	}
	index := map[key]*directive{}
	for _, d := range dirs {
		if d.bad != "" {
			continue
		}
		// A directive covers its own line (trailing comment) and the next
		// line (comment on its own line above the code).
		index[key{d.pos.Filename, d.pos.Line, d.rule}] = d
		index[key{d.pos.Filename, d.pos.Line + 1, d.rule}] = d
	}

	var kept []Finding
	for _, f := range findings {
		if d, ok := index[key{f.File, f.Line, f.Rule}]; ok {
			d.used = true
			continue
		}
		kept = append(kept, f)
	}
	for _, d := range dirs {
		msg := d.bad
		if msg == "" && !d.used && enabled[d.rule] {
			msg = "directive suppresses no " + d.rule + " finding; remove it"
		}
		if msg == "" && d.text != d.canonical() {
			msg = "non-canonical directive spelling; normalize to `" + d.canonical() + "`"
		}
		if msg != "" {
			kept = append(kept, Finding{
				Rule:    DirectiveRule,
				Pos:     d.pos,
				File:    d.pos.Filename,
				Line:    d.pos.Line,
				Col:     d.pos.Column,
				Message: msg,
			})
		}
	}
	return kept
}
