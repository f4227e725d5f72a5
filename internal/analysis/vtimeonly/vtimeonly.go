// Package vtimeonly bans wall-clock reads and goroutines in the
// simulation packages. The whole stack is measured in virtual time
// (internal/vtime), and the background walkers (rekey, flatten, scrub,
// all on rbd's walker kernel) are crash-resumable only because a replay
// of the same inputs takes the same decisions: one stray time.Now or
// time.Sleep in a paced walker and crash-resume replay and
// paced-interference measurements silently diverge, while every test
// still passes. time.Duration and the other pure types remain fine —
// only the functions that sample host state are banned. A go statement
// samples host state too: resources grant reservations in arrival order,
// so legs that overlap in virtual time must be issued by vtime.Join on
// the caller's goroutine, not raced by the Go scheduler. (A draw from the
// process-seeded global math/rand source is not banned here: the fio
// offset sequences and the kvstore goldens pin their draws, and tier-1
// fails on one.)
package vtimeonly

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// simulationPackages is the set of packages that must run on virtual
// time, matched by bare package name so analysistest fixtures can stand
// in for the real packages.
var simulationPackages = map[string]bool{
	"core":      true,
	"rados":     true,
	"rbd":       true,
	"keymgr":    true,
	"clone":     true,
	"fio":       true,
	"msgr":      true,
	"simdisk":   true,
	"vtime":     true,
	"telemetry": true,
	"fault":     true,
	"scrub":     true,
	"history":   true,
	"health":    true,
	"attr":      true,
	"blobstore": true,
	"kvstore":   true,
}

// goExempt is the one simulation package that may start goroutines: fio's
// jobs are the workload's own concurrency. (Test files may, everywhere.)
const goExempt = "fio"

// bannedTime are the time functions that sample or schedule against the
// host clock.
var bannedTime = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

var Analyzer = &analysis.Analyzer{
	Name:     "vtimeonly",
	Doc:      "bans wall-clock time and goroutines in the simulation packages (crash-resume and replay determinism)",
	Packages: simulationPackages,
	Run:      run,
}

func run(pass *analysis.Pass) error {
	for id, obj := range pass.TypesInfo.Uses {
		f, ok := obj.(*types.Func)
		if ok && f.Pkg() != nil && f.Pkg().Path() == "time" && analysis.IsPkgLevel(f) && bannedTime[f.Name()] {
			pass.Reportf(id.Pos(), "time.%s reads the host clock; simulation packages are virtual-time only — use vtime timestamps (or move the wall-clock measurement to a harness package)", f.Name())
		}
	}
	if pass.Pkg.Name() == goExempt {
		return nil
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "virtual-time overlap is vtime.Join; a goroutine here makes reservation order host-dependent")
			}
			return true
		})
	}
	return nil
}
