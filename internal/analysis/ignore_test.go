package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// testKnown stands in for the registered suite.
var testKnown = map[string]bool{"vtimeonly": true, "cryptohygiene": true, "wirealias": true}

// parseIgnores returns the fset, file and ignore state for one source text.
func parseIgnores(t *testing.T, src string) (*token.FileSet, *ast.File, *ignoreIndex, []Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	idx, bad := collectIgnores(fset, []*ast.File{f}, testKnown)
	return fset, f, idx, bad
}

// posOnLine fabricates a Pos on the given 1-based line of the file.
func posOnLine(fset *token.FileSet, f *ast.File, line int) token.Pos {
	return fset.File(f.Pos()).LineStart(line)
}

func TestIgnoreSuppressesSameAndNextLine(t *testing.T) {
	const src = `package p

func a() {
	//vetrepo:ignore vtimeonly simulation harness boundary
	_ = 1
	_ = 2
}
`
	fset, f, idx, bad := parseIgnores(t, src)
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed directives: %v", bad)
	}
	// Line 4 holds the directive; it covers lines 4 and 5, not 6.
	for line, want := range map[int]bool{4: true, 5: true, 6: false} {
		d := Diagnostic{Pos: posOnLine(fset, f, line), Analyzer: "vtimeonly"}
		if got := idx.suppresses(fset, d); got != want {
			t.Errorf("line %d: suppresses = %v, want %v", line, got, want)
		}
	}
	// A different analyzer on the covered line is not suppressed.
	d := Diagnostic{Pos: posOnLine(fset, f, 5), Analyzer: "cryptohygiene"}
	if idx.suppresses(fset, d) {
		t.Error("directive for vtimeonly suppressed a cryptohygiene diagnostic")
	}
}

func TestIgnoreListAndAll(t *testing.T) {
	const src = `package p

func a() {
	//vetrepo:ignore vtimeonly,cryptohygiene shared buffer handed to the harness
	_ = 1
}

func b() {
	//vetrepo:ignore all generated fixture
	_ = 2
}
`
	fset, f, idx, bad := parseIgnores(t, src)
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed directives: %v", bad)
	}
	for _, name := range []string{"vtimeonly", "cryptohygiene"} {
		d := Diagnostic{Pos: posOnLine(fset, f, 5), Analyzer: name}
		if !idx.suppresses(fset, d) {
			t.Errorf("comma list did not suppress %s", name)
		}
	}
	d := Diagnostic{Pos: posOnLine(fset, f, 5), Analyzer: "wirealias"}
	if idx.suppresses(fset, d) {
		t.Error("comma list suppressed an unlisted analyzer")
	}
	d = Diagnostic{Pos: posOnLine(fset, f, 10), Analyzer: "wirealias"}
	if !idx.suppresses(fset, d) {
		t.Error("all directive did not suppress")
	}
}

func TestIgnoreWithoutReasonIsMalformed(t *testing.T) {
	const src = `package p

func a() {
	//vetrepo:ignore vtimeonly
	_ = 1
}
`
	fset, f, idx, bad := parseIgnores(t, src)
	if len(bad) != 1 {
		t.Fatalf("got %d malformed diagnostics, want 1: %v", len(bad), bad)
	}
	if bad[0].Analyzer != "vetrepo" || !strings.Contains(bad[0].Message, "reason is mandatory") {
		t.Errorf("unexpected malformed diagnostic: %+v", bad[0])
	}
	// The malformed directive suppresses nothing, and the malformed
	// report itself cannot be ignored away.
	d := Diagnostic{Pos: posOnLine(fset, f, 5), Analyzer: "vtimeonly"}
	if idx.suppresses(fset, d) {
		t.Error("malformed directive still suppressed a diagnostic")
	}
	if idx.suppresses(fset, bad[0]) {
		t.Error("vetrepo malformed-directive report was suppressible")
	}
}

func TestIgnoreUnknownAnalyzerIsLoud(t *testing.T) {
	const src = `package p

func a() {
	//vetrepo:ignore vtimeonly,vtimeonyl typo in the second name
	_ = 1
	//vetrepo:ignore retired analyzer that no longer exists
	_ = 2
	//vetrepo:ignore all every registered analyzer
	_ = 3
}
`
	_, _, _, bad := parseIgnores(t, src)
	if len(bad) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (the typo and the retired name; all is valid): %v", len(bad), bad)
	}
	for i, name := range []string{"vtimeonyl", "retired"} {
		if bad[i].Analyzer != "vetrepo" || !strings.Contains(bad[i].Message, `"`+name+`"`) {
			t.Errorf("diagnostic %d = %+v, want a vetrepo report naming %q", i, bad[i], name)
		}
	}
}
