// Package analysis is a small, dependency-free reimplementation of the
// go/analysis analyzer model, built on the standard library's go/ast and
// go/types. It exists because this repo's correctness rests on
// conventions no general-purpose linter knows about — wire-aliased
// slices that must not be retained or mutated, virtual-time-only clocks
// in simulation packages, constant-time comparison of authentication
// tags, and no I/O under a metadata mutex — that no test or runtime
// guard catches either (DESIGN.md "Machine-checked invariants").
//
// The model mirrors golang.org/x/tools/go/analysis deliberately: an
// Analyzer is a named Run function over a Pass (one type-checked
// package), and two drivers feed passes to analyzers:
//
//   - the unit driver (UnitMain) speaks cmd/go's vet tool protocol, so
//     cmd/vetrepo runs under `go vet -vettool=...` with cmd/go's package
//     loading (in-package and external test files included), caching
//     and per-package export data;
//   - the analysistest package runs a single analyzer over seeded
//     fixture packages with `// want "regexp"` expectations.
//
// False positives are silenced in the source with a reasoned directive:
//
//	//vetrepo:ignore <analyzer>[,<analyzer>] <reason...>
//
// on (or on the line above) the offending line. The reason is mandatory;
// a directive without one, or naming an analyzer the suite does not
// register, is itself a diagnostic. See ignore.go.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //vetrepo:ignore directives. Lower-case, no spaces.
	Name string

	// Doc is a one-paragraph description of the invariant enforced.
	Doc string

	// Packages, when non-nil, restricts the analyzer to packages whose
	// bare name (any "_test" suffix stripped) is in the set. Package
	// names rather than import paths are matched so that analysistest
	// fixture packages can opt in by name alone.
	Packages map[string]bool

	// Run performs the analysis on one package, reporting findings via
	// pass.Reportf.
	Run func(*Pass) error
}

// appliesTo reports whether the analyzer should run on pkg.
func (a *Analyzer) appliesTo(pkg *types.Package) bool {
	if a.Packages == nil {
		return true
	}
	return a.Packages[strings.TrimSuffix(pkg.Name(), "_test")]
}

// A Diagnostic is one finding, attributed to the analyzer that made it.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// A Pass hands an analyzer one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}
