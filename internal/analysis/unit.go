package analysis

// unit.go speaks cmd/go's vet tool protocol, so the suite runs under
//
//	go vet -vettool=$(which vetrepo) ./...
//
// with cmd/go's build cache, file lists and per-package export data. The
// protocol (see $GOROOT/src/cmd/go/internal/work/exec.go, vetConfig):
// cmd/go invokes the tool once per package with a single JSON config
// file argument describing the package — absolute Go file paths, an
// import map, and an import-path → export-data-file map for the whole
// dependency closure — plus, separately, `-V=full` to obtain a build ID
// for caching. The tool type-checks the package against the export
// data, runs the analyzers, writes an (empty — the suite records no
// cross-package facts) .vetx output so clean results are cacheable, and
// exits nonzero iff it found violations.

import (
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"runtime"
)

// unitConfig mirrors cmd/go's vetConfig.
type unitConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string

	ModulePath    string
	ModuleVersion string
	ImportMap     map[string]string
	PackageFile   map[string]string
	Standard      map[string]bool
	PackageVetx   map[string]string
	VetxOnly      bool
	VetxOutput    string
	GoVersion     string

	SucceedOnTypecheckFailure bool
}

// UnitMain runs the analyzers over the single package described by the
// vet config file and returns the process exit code: 0 clean, 1 driver
// or type-check failure, 2 violations found. Diagnostics go to stderr,
// where cmd/go relays (and re-relativizes) them.
func UnitMain(cfgPath string, analyzers []*Analyzer, stderr io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(stderr, "vetrepo: reading config: %v\n", err)
		return 1
	}
	var cfg unitConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "vetrepo: parsing config %s: %v\n", cfgPath, err)
		return 1
	}

	// The suite computes no cross-package facts; an empty vetx output
	// still lets cmd/go cache the clean result for dependency packages.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintf(stderr, "vetrepo: writing vetx output: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	u := &Unit{Fset: fset}
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(stderr, "vetrepo: %v\n", err)
			return 1
		}
		u.Files = append(u.Files, f)
	}

	info := NewInfo()
	var firstErr error
	conf := types.Config{
		Importer:  newExportImporter(fset, cfg.ImportMap, cfg.PackageFile),
		Sizes:     types.SizesFor("gc", runtime.GOARCH),
		GoVersion: cfg.GoVersion,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, err := conf.Check(cfg.ImportPath, fset, u.Files, info)
	if firstErr != nil {
		err = firstErr
	}
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(stderr, "vetrepo: typechecking %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	u.Pkg, u.Info = pkg, info

	diags, err := RunAnalyzers(u, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "vetrepo: %v\n", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(stderr, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
