package suite

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestScopesNameRealPackages: an analyzer scoped by package name goes
// silent on a package that is renamed or deleted, so every name in a
// Packages set must be the package of some directory in the module
// (fixtures under testdata do not count).
func TestScopesNameRealPackages(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	pkgs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly)
		if err != nil {
			return err
		}
		pkgs[strings.TrimSuffix(f.Name.Name, "_test")] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !pkgs["suite"] || !pkgs["core"] {
		t.Fatalf("module walk from %s found %d packages, not the module", root, len(pkgs))
	}
	for _, a := range Analyzers {
		for name := range a.Packages {
			if !pkgs[name] {
				t.Errorf("%s scope names package %q, which no directory in the module holds", a.Name, name)
			}
		}
	}
}
