package analysis

// run.go is the driver-independent core: run a list of analyzers over
// one type-checked package, apply the //vetrepo:ignore allowlist, and
// return position-sorted diagnostics. Both drivers (vet-tool unit,
// analysistest) end up here, so ignore semantics and package filtering
// cannot drift between them.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A Unit is one package ready for analysis.
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// RunAnalyzers runs every applicable analyzer over the unit and returns
// the surviving (non-ignored) diagnostics in file/position order.
func RunAnalyzers(u *Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	ignores, malformed := collectIgnores(u.Fset, u.Files, known)
	var raw []Diagnostic
	raw = append(raw, malformed...)
	for _, a := range analyzers {
		if !a.appliesTo(u.Pkg) {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      u.Fset,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.Info,
			diags:     &raw,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %v", a.Name, u.Pkg.Path(), err)
		}
	}
	var out []Diagnostic
	for _, d := range raw {
		if ignores.suppresses(u.Fset, d) {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := u.Fset.Position(out[i].Pos), u.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return out, nil
}
