// Package lockdiscipline checks the stack's lock hierarchy around the
// per-object striped lock table. The engine intentionally holds a
// striped per-object lock across the backing-store Operate call — that
// is the serialization point for read-modify-write, copyup and rekey —
// so that shape is NOT flagged. What the analyzer bans are the shapes
// that have actually deadlocked stacks like this one:
//
//   - acquiring a second striped table lock while one is held (two
//     object indexes can hash to the same stripe, which self-deadlocks
//     on a non-reentrant mutex);
//   - calling back into an image entry point (ReadAt, WriteAt,
//     CopyupObject, RekeyObject, ...) while a table lock is held — the
//     entry point re-acquires the stripe for its own object;
//   - blocking wire calls (Operate, OperateHeader, Call, CallTyped) while
//     holding a plain sync.Mutex/RWMutex, which are used here for
//     metadata maps and must stay I/O-free;
//   - time.Sleep while holding any lock.
//
// A "table lock" is one fetched from an accessor (the receiver chain of
// Lock() contains a call, e.g. e.locks.of(idx).Lock()) or a variable
// initialized from such a call; every other sync mutex is "plain".
package lockdiscipline

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc:  "flags nested striped-lock acquisition, re-entrant image calls under a table lock, blocking wire calls under plain mutexes, and sleeps under any lock",
	Run:  run,
}

// entryPoints are the image entry points that internally acquire the
// per-object stripe, matched as methods of the engine packages.
var entryPoints = map[string]bool{
	"ReadAt":            true,
	"WriteAt":           true,
	"ReadAtSnap":        true,
	"ReadAtSnapPresent": true,
	"RekeyObject":       true,
	"CopyupObject":      true,
	"Discard":           true,
}

var entryPkgs = map[string]bool{"core": true, "clone": true}

// blockingOps are the synchronous wire/backing-store calls.
var blockingOps = map[string]bool{
	"Operate":       true,
	"OperateHeader": true,
	"Call":          true,
	"CallTyped":     true,
}

var blockingPkgs = map[string]bool{"rados": true, "msgr": true, "rbd": true}

type lockKind int

const (
	plainLock lockKind = iota
	tableLock
)

func (k lockKind) String() string {
	if k == tableLock {
		return "table lock"
	}
	return "mutex"
}

// heldLock identifies one acquired lock within a statement list.
type heldLock struct {
	kind lockKind
	// path is the receiver expression rendered to text (e.g. "lk",
	// "e.mu"); used to pair the releasing Unlock and to name the lock in
	// diagnostics.
	path string
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		tableVars := collectTableVars(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.BlockStmt:
				scanList(pass, s.List, tableVars)
			case *ast.CaseClause:
				scanList(pass, s.Body, tableVars)
			case *ast.CommClause:
				scanList(pass, s.Body, tableVars)
			}
			return true
		})
	}
	return nil
}

// collectTableVars finds variables bound to an accessor-returned mutex:
// lk := e.locks.of(idx).
func collectTableVars(pass *analysis.Pass, file *ast.File) map[*types.Var]bool {
	vars := make(map[*types.Var]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Lhs {
			if _, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); !ok {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			v := analysis.ObjectOf(pass.TypesInfo, id)
			if v != nil && analysis.IsMutex(v.Type()) {
				vars[v] = true
			}
		}
		return true
	})
	return vars
}

// syncLockCall matches m.Lock()/m.RLock() (acquire=true) or
// m.Unlock()/m.RUnlock() (acquire=false) on a sync mutex, returning the
// receiver expression.
func syncLockCall(pass *analysis.Pass, call *ast.CallExpr, acquire bool) (ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	f, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return nil, false
	}
	name := f.Name()
	if acquire {
		if name != "Lock" && name != "RLock" {
			return nil, false
		}
	} else {
		if name != "Unlock" && name != "RUnlock" {
			return nil, false
		}
	}
	return sel.X, true
}

// classify decides whether the receiver of a Lock call is a striped
// table lock or a plain mutex.
func classify(pass *analysis.Pass, recv ast.Expr, tableVars map[*types.Var]bool) lockKind {
	if analysis.ContainsCall(recv) {
		return tableLock
	}
	if root := analysis.RootIdent(recv); root != nil {
		if v := analysis.ObjectOf(pass.TypesInfo, root); v != nil && tableVars[v] {
			return tableLock
		}
	}
	return plainLock
}

// scanList walks one straight-line statement sequence. From a Lock
// statement until its pairing plain Unlock (a deferred Unlock holds the
// lock to function end, i.e. past the end of this list), every
// statement is checked for the banned shapes.
func scanList(pass *analysis.Pass, list []ast.Stmt, tableVars map[*types.Var]bool) {
	for i, stmt := range list {
		held, ok := acquireOf(pass, stmt, tableVars)
		if !ok {
			continue
		}
		for _, later := range list[i+1:] {
			if releases(pass, later, held) {
				break
			}
			checkStmt(pass, later, held, tableVars)
		}
	}
}

// acquireOf matches a statement that is a plain Lock/RLock call.
func acquireOf(pass *analysis.Pass, stmt ast.Stmt, tableVars map[*types.Var]bool) (heldLock, bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return heldLock{}, false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return heldLock{}, false
	}
	recv, ok := syncLockCall(pass, call, true)
	if !ok {
		return heldLock{}, false
	}
	return heldLock{
		kind: classify(pass, recv, tableVars),
		path: types.ExprString(recv),
	}, true
}

// releases matches the plain (non-deferred) Unlock pairing held.
func releases(pass *analysis.Pass, stmt ast.Stmt, held heldLock) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	recv, ok := syncLockCall(pass, call, false)
	return ok && types.ExprString(recv) == held.path
}

// checkStmt inspects one statement executed while held is locked.
func checkStmt(pass *analysis.Pass, stmt ast.Stmt, held heldLock, tableVars map[*types.Var]bool) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		// A deferred call runs at function exit, when this lock may be
		// gone; a nested function literal runs who-knows-when. Neither
		// executes under the lock at this point in the sequence.
		switch n.(type) {
		case *ast.DeferStmt, *ast.FuncLit:
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}

		if recv, isAcquire := syncLockCall(pass, call, true); isAcquire {
			if held.kind == tableLock && classify(pass, recv, tableVars) == tableLock {
				pass.Reportf(call.Pos(), "second striped table lock (%s) acquired while holding %s: two object indexes can share a stripe, which self-deadlocks", types.ExprString(recv), held.path)
			}
			return true
		}

		f := analysis.CalleeFunc(pass.TypesInfo, call)
		if f == nil {
			return true
		}
		pkg := analysis.FuncPkgName(f)
		isMethod := !analysis.IsPkgLevel(f)

		switch {
		case f.Pkg() != nil && f.Pkg().Path() == "time" && f.Name() == "Sleep":
			pass.Reportf(call.Pos(), "time.Sleep while holding %s %s stalls every goroutine queued on it", held.kind, held.path)
		case held.kind == tableLock && isMethod && entryPkgs[pkg] && entryPoints[f.Name()]:
			pass.Reportf(call.Pos(), "image entry point %s called while holding table lock %s: it re-acquires the per-object stripe and can self-deadlock", f.Name(), held.path)
		case held.kind == plainLock && isMethod && blockingPkgs[pkg] && blockingOps[f.Name()]:
			pass.Reportf(call.Pos(), "blocking wire call %s.%s under mutex %s: plain mutexes guard metadata and must stay I/O-free (per-object stripes are the I/O serialization point)", pkg, f.Name(), held.path)
		}
		return true
	})
}
