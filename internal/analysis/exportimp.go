package analysis

// exportimp.go resolves imports from compiler export data — the same
// files the gc toolchain writes into the build cache — via the standard
// library's go/importer in "gc" mode with a lookup function. The
// vet-tool unit driver is handed the import-path → export-file map by
// cmd/go.

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
)

type exportImporter struct {
	importMap map[string]string // import path as written -> canonical package path
	gc        types.Importer
}

// newExportImporter builds an importer over export data files.
// packageFile maps canonical package paths to export data files;
// importMap translates source-level import paths.
func newExportImporter(fset *token.FileSet, importMap, packageFile map[string]string) *exportImporter {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := packageFile[path]
		if !ok {
			// Standard-library-vendored dependencies are recorded under
			// their vendor path in some views and their source path in
			// others; accept either spelling.
			f, ok = packageFile["vendor/"+path]
		}
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	return &exportImporter{
		importMap: importMap,
		gc:        importer.ForCompiler(fset, "gc", lookup),
	}
}

func (e *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if mapped, ok := e.importMap[path]; ok && mapped != "" {
		path = mapped
	}
	return e.gc.Import(path)
}
