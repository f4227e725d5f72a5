package analysis

// ignore.go implements the suite's allowlist mechanism. A finding is an
// invariant violation by default; the escape hatch is a source directive
// that names the analyzer being overridden and — mandatorily — why:
//
//	//vetrepo:ignore wirealias handler copies the pair before returning
//
// The directive suppresses matching diagnostics on its own line and on
// the line directly below it (so it can trail the offending statement or
// sit on its own line above it). The analyzer list is comma-separated;
// "all" suppresses every analyzer. A directive with no analyzer list or
// no reason is reported as a diagnostic itself — an unexplained
// suppression is exactly the silent convention-breaking the suite
// exists to prevent — and so is one naming an analyzer the suite does
// not register: a deleted analyzer or a typo would otherwise leave a
// suppression that silently does nothing.

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

const ignorePrefix = "//vetrepo:ignore"

// A directive is one parsed //vetrepo:ignore comment.
type directive struct {
	names map[string]bool // analyzers suppressed; "all" wildcards
}

func (d *directive) matches(analyzer string) bool {
	return d.names["all"] || d.names[analyzer]
}

// ignoreIndex maps file name -> line -> directives on that line.
type ignoreIndex struct {
	m map[string]map[int][]*directive
}

// collectIgnores parses every //vetrepo:ignore directive in files.
// Malformed directives, and names outside known (the registered
// analyzers; "all" is always valid), come back as diagnostics attributed
// to the pseudo-analyzer "vetrepo".
func collectIgnores(fset *token.FileSet, files []*ast.File, known map[string]bool) (*ignoreIndex, []Diagnostic) {
	idx := &ignoreIndex{m: make(map[string]map[int][]*directive)}
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "vetrepo",
						Message:  `malformed directive: want "//vetrepo:ignore <analyzer>[,<analyzer>] <reason>" (the reason is mandatory)`,
					})
					continue
				}
				d := &directive{names: make(map[string]bool)}
				for _, n := range strings.Split(fields[0], ",") {
					if n != "all" && !known[n] {
						bad = append(bad, Diagnostic{
							Pos:      c.Pos(),
							Analyzer: "vetrepo",
							Message:  fmt.Sprintf("directive names %q, which is not a registered analyzer: the suppression does nothing", n),
						})
					}
					d.names[n] = true
				}
				pos := fset.Position(c.Pos())
				lines := idx.m[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*directive)
					idx.m[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], d)
			}
		}
	}
	return idx, bad
}

// suppresses reports whether a directive covers the diagnostic: same
// line, or the line directly above.
func (idx *ignoreIndex) suppresses(fset *token.FileSet, d Diagnostic) bool {
	if d.Analyzer == "vetrepo" {
		return false // malformed-directive reports cannot be ignored away
	}
	pos := fset.Position(d.Pos)
	lines := idx.m[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, dir := range lines[line] {
			if dir.matches(d.Analyzer) {
				return true
			}
		}
	}
	return false
}
