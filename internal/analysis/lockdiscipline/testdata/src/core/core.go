// Package core seeds lockdiscipline violations and the intentional
// clean shapes the analyzer must NOT flag.
package core

import (
	"sync"

	"rados"
)

type lockTable struct{ mu [16]sync.Mutex }

func (t *lockTable) of(i int) *sync.Mutex { return &t.mu[i%16] }

type engine struct {
	locks lockTable
	mu    sync.Mutex
	conn  *rados.Conn
}

func (e *engine) badBlockingUnderMutex(oid string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	_ = e.conn.Operate(oid) // want "blocking wire call"
}

// okOperateUnderStripe is the engine's intentional serialization shape:
// the per-object table lock IS the I/O serialization point.
func (e *engine) okOperateUnderStripe(i int, oid string) {
	lk := e.locks.of(i)
	lk.Lock()
	defer lk.Unlock()
	_ = e.conn.Operate(oid)
}

func (e *engine) okOperateAfterUnlock(oid string) {
	e.mu.Lock()
	e.conn = &rados.Conn{}
	e.mu.Unlock()
	_ = e.conn.Operate(oid)
}

func (e *engine) okDeferredWork(oid string) {
	e.mu.Lock()
	defer func() { _ = e.conn.Operate(oid) }()
	e.mu.Unlock()
}
