// Command vetrepo runs the repo's invariant analyzers (see
// internal/analysis) as a `go vet` tool — cmd/go loads the packages
// (in-package and external test files included) and drives the binary
// once per package with its build cache and export data:
//
//	go build -o vetrepo ./cmd/vetrepo
//	go vet -vettool=$(pwd)/vetrepo ./...
//
// cmd/go recognizes a vet tool by two contracts, both handled here: it
// first invokes the tool with -V=full expecting a reproducible version
// line for cache keying, then once per package with a single vet.cfg
// path argument (see internal/analysis/unit.go).
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vetrepo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	versionFlag := fs.String("V", "", "print version and exit (cmd/go vet tool protocol; use -V=full)")
	flagsFlag := fs.Bool("flags", false, "print the tool's analyzer flags as JSON (cmd/go vet tool protocol)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: go vet -vettool=$(pwd)/vetrepo ./...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *versionFlag != "" {
		// cmd/go requires "<progname> version <tag>"; for an unstamped
		// tool the tag is "devel" and the last field must carry a
		// buildID=<hex> cache key. Hashing our own executable makes the
		// key change exactly when the tool does.
		fmt.Fprintf(stdout, "vetrepo version devel buildID=%s\n", selfID())
		return 0
	}
	if *flagsFlag {
		// cmd/go asks for the tool's analyzer flag inventory so it can
		// accept them on the `go vet` command line; the suite has none.
		fmt.Fprintln(stdout, "[]")
		return 0
	}

	if rest := fs.Args(); len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return analysis.UnitMain(rest[0], suite.Analyzers, stderr)
	}
	fs.Usage()
	return 2
}

// selfID hashes the running executable into a hex build ID.
func selfID() string {
	exe, err := os.Executable()
	if err != nil {
		return "0000000000000000"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "0000000000000000"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "0000000000000000"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}
