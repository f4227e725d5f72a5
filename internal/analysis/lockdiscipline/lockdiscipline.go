// Package lockdiscipline keeps blocking wire calls out from under plain
// mutexes. The engine intentionally holds a per-object lock from its
// lock table across the backing-store Operate call — that is the
// serialization point for read-modify-write, copyup and rekey — so that
// shape is NOT flagged. A plain sync.Mutex/RWMutex guards metadata maps
// and must stay I/O-free: a wire call (Operate, OperateHeader, Call,
// CallTyped) under one serializes every caller of that mutex behind a
// round trip, and no test notices, because the calls still complete.
//
// A "table lock" is one fetched from an accessor (the receiver chain of
// Lock() contains a call, e.g. e.locks.of(idx).Lock()) or a variable
// initialized from such a call; every other sync mutex is "plain".
// (Re-locking a table lock, directly or through an image entry point,
// self-deadlocks on the first call and hangs every test that reaches
// it; the deadlock needs no analyzer.)
package lockdiscipline

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc:  "flags blocking wire calls under plain mutexes",
	Run:  run,
}

// blockingOps are the synchronous wire/backing-store calls.
var blockingOps = map[string]bool{
	"Operate":       true,
	"OperateHeader": true,
	"Call":          true,
	"CallTyped":     true,
}

var blockingPkgs = map[string]bool{"rados": true, "msgr": true, "rbd": true}

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

// syncLockCall matches a statement that is m.Lock()/m.RLock()
// (acquire=true) or m.Unlock()/m.RUnlock() (acquire=false) on a sync
// mutex, returning the receiver expression.
func syncLockCall(pass *analysis.Pass, stmt ast.Stmt, acquire bool) (ast.Expr, bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return nil, false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	f, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return nil, false
	}
	switch f.Name() {
	case "Lock", "RLock":
		return sel.X, acquire
	case "Unlock", "RUnlock":
		return sel.X, !acquire
	}
	return nil, false
}

// isTableLock reports whether the receiver of a Lock call is a lock
// handed out by a lock table rather than a plain mutex.
func isTableLock(pass *analysis.Pass, recv ast.Expr, tableVars map[*types.Var]bool) bool {
	if analysis.ContainsCall(recv) {
		return true
	}
	root := analysis.RootIdent(recv)
	return root != nil && tableVars[analysis.ObjectOf(pass.TypesInfo, root)]
}

// scanList walks one straight-line statement sequence. From a plain
// mutex's Lock statement until its pairing plain Unlock (a deferred
// Unlock holds the lock to function end, i.e. past the end of this
// list), every statement is checked for blocking wire calls.
func scanList(pass *analysis.Pass, list []ast.Stmt, tableVars map[*types.Var]bool) {
	for i, stmt := range list {
		recv, ok := syncLockCall(pass, stmt, true)
		if !ok || isTableLock(pass, recv, tableVars) {
			continue
		}
		held := types.ExprString(recv)
		for _, later := range list[i+1:] {
			if r, ok := syncLockCall(pass, later, false); ok && types.ExprString(r) == held {
				break
			}
			checkStmt(pass, later, held)
		}
	}
}

// checkStmt flags the blocking wire calls one statement makes while the
// plain mutex held is locked.
func checkStmt(pass *analysis.Pass, stmt ast.Stmt, held string) {
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
		f := analysis.CalleeFunc(pass.TypesInfo, call)
		if f != nil && !analysis.IsPkgLevel(f) && blockingPkgs[analysis.FuncPkgName(f)] && blockingOps[f.Name()] {
			pass.Reportf(call.Pos(), "blocking wire call %s.%s under mutex %s: plain mutexes guard metadata and must stay I/O-free (per-object table locks are the I/O serialization point)", analysis.FuncPkgName(f), f.Name(), held)
		}
		return true
	})
}
