// Package suite registers the repo's analyzers in one place: the set
// cmd/vetrepo runs under `go vet -vettool`.
package suite

import (
	"repro/internal/analysis"
	"repro/internal/analysis/cryptohygiene"
	"repro/internal/analysis/lockdiscipline"
	"repro/internal/analysis/vtimeonly"
	"repro/internal/analysis/wirealias"
)

// Analyzers is the full suite, in diagnostic-name order.
var Analyzers = []*analysis.Analyzer{
	cryptohygiene.Analyzer,
	lockdiscipline.Analyzer,
	vtimeonly.Analyzer,
	wirealias.Analyzer,
}
