// Package cryptohygiene enforces the crypto packages' implementation
// discipline: no math/rand anywhere near key material (crypto/rand
// only), no variable-time comparison of authentication tags or digests
// (crypto/subtle), and no key or plaintext material flowing into fmt or
// log sinks, where it would end up in error strings, logs and crash
// reports. The rules are deliberately name-driven — an identifier that
// calls itself a key, digest or passphrase is treated as one — because
// in these packages that convention holds, and a false positive is one
// reasoned //vetrepo:ignore away.
package cryptohygiene

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

// cryptoPackages is where the rules apply: the cipher and key-derivation
// packages plus the LUKS container, which handles master keys.
var cryptoPackages = map[string]bool{
	"eme":       true,
	"xts":       true,
	"blockmask": true,
	"kdf":       true,
	"luks":      true,
}

var (
	// secretCmpPat marks comparison operands that carry authenticator
	// material: tags, MACs, digests, checksums.
	secretCmpPat = regexp.MustCompile(`(?i)(tag|mac|digest|checksum|check|sum)`)
	// secretSinkPat marks values that must never reach a format/log
	// sink: keys, passphrases, plaintext.
	secretSinkPat = regexp.MustCompile(`(?i)(key|secret|passphrase|password|plain|master)`)
)

var Analyzer = &analysis.Analyzer{
	Name:     "cryptohygiene",
	Doc:      "bans math/rand, variable-time tag/digest comparison, and key/plaintext material in fmt/log sinks inside the crypto packages",
	Packages: cryptoPackages,
	Run:      run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "%s imported in a crypto package; key and nonce material must come from crypto/rand", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkCompare(pass, call)
			checkSink(pass, call)
			return true
		})
	}
	return nil
}

// checkCompare flags bytes.Equal / reflect.DeepEqual over operands named
// like authenticators.
func checkCompare(pass *analysis.Pass, call *ast.CallExpr) {
	f := analysis.CalleeFunc(pass.TypesInfo, call)
	if f == nil || f.Pkg() == nil {
		return
	}
	fullName := f.Pkg().Path() + "." + f.Name()
	if fullName != "bytes.Equal" && fullName != "reflect.DeepEqual" {
		return
	}
	for _, arg := range call.Args {
		if name := exprName(arg); name != "" && secretCmpPat.MatchString(name) {
			pass.Reportf(call.Pos(), "%s on %q is variable-time; compare tags/digests with crypto/subtle.ConstantTimeCompare", fullName, name)
			return
		}
	}
}

// sinkFuncs are the fmt/log entry points whose arguments get formatted
// into strings that escape the crypto boundary.
var sinkPkgs = map[string]bool{"fmt": true, "log": true, "log/slog": true}

// checkSink flags byte-slice/array key material passed to fmt/log.
func checkSink(pass *analysis.Pass, call *ast.CallExpr) {
	f := analysis.CalleeFunc(pass.TypesInfo, call)
	if f == nil || f.Pkg() == nil || !sinkPkgs[f.Pkg().Path()] {
		return
	}
	for _, arg := range call.Args {
		name := exprName(arg)
		if name == "" || !secretSinkPat.MatchString(name) {
			continue
		}
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok || !isByteish(tv.Type) {
			continue
		}
		pass.Reportf(arg.Pos(), "%q reaches %s.%s; key/plaintext material must not be formatted into strings or logs", name, f.Pkg().Name(), f.Name())
	}
}

// exprName extracts the human-meaningful name of an expression: the
// identifier, the selected field, or the called function's name, looking
// through slices, indexes and conversions.
func exprName(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.IndexExpr:
		return exprName(x.X)
	case *ast.SliceExpr:
		return exprName(x.X)
	case *ast.UnaryExpr:
		return exprName(x.X)
	case *ast.StarExpr:
		return exprName(x.X)
	case *ast.CallExpr:
		// A conversion like []byte(pass) or a call like digestOf(...):
		// the callee name is the best label either way.
		if len(x.Args) == 1 {
			if inner := exprName(x.Args[0]); inner != "" {
				return inner
			}
		}
		return exprName(x.Fun)
	}
	return ""
}

// isByteish reports whether t is a byte slice or byte array (possibly
// named), the shapes key material takes in this repo. Strings are
// excluded: error prefixes and parameter names dominate string
// arguments, and keys are never strings here.
func isByteish(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		b, ok := u.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Byte
	case *types.Array:
		b, ok := u.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Byte
	case *types.Pointer:
		return isByteish(u.Elem())
	}
	return false
}
