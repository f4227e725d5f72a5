//go:build bufpoolcheck

package bufpool

// The bufpoolcheck build tag arms a runtime guard behind Get/Put — the
// repo's pooled-buffer ownership check, which CI runs over every test
// with -race -tags bufpoolcheck. While armed:
//
//   - every pooled Put poisons the buffer with 0xDB and records the
//     caller's stack;
//   - a second Put of the same backing array panics, printing the first
//     Put's stack;
//   - a Get that finds its pooled buffer no longer fully poisoned
//     panics: someone wrote through a retained view after Put.
//
// The guard registry keeps a reference to every pooled-and-not-yet-
// reissued buffer. That is deliberate: it pins the backing arrays so
// the address used as the registry key cannot be recycled for a fresh
// allocation, which would misattribute a panic (the cost is that a GC
// cannot reclaim idle pooled buffers while the tag is on — a debug
// build trade).

import (
	"fmt"
	"runtime"
	"sync"
	"unsafe"
)

const poisonByte = 0xDB

type putRecord struct {
	buf   []byte // pins the backing array; see package comment above
	stack string
}

var guard struct {
	sync.Mutex
	pooled map[*byte]putRecord
}

func init() {
	guard.pooled = make(map[*byte]putRecord)
}

func callerStack() string {
	buf := make([]byte, 1<<14)
	return string(buf[:runtime.Stack(buf, false)])
}

// checkPut runs just before a pool-bound buffer (already re-sliced to
// full capacity) is handed to sync.Pool.
func checkPut(b []byte) {
	base := unsafe.SliceData(b)
	guard.Lock()
	prev, dup := guard.pooled[base]
	if !dup {
		guard.pooled[base] = putRecord{buf: b, stack: callerStack()}
	}
	guard.Unlock()
	if dup {
		panic(fmt.Sprintf(
			"bufpool: double Put of %d-byte buffer %p; first Put at:\n%s",
			cap(b), base, prev.stack))
	}
	for i := range b {
		b[i] = poisonByte
	}
}

// checkGet runs when Get reissues a buffer from the pool, before the
// caller sees it.
func checkGet(b []byte) {
	base := unsafe.SliceData(b[:1])
	guard.Lock()
	rec, ok := guard.pooled[base]
	delete(guard.pooled, base)
	guard.Unlock()
	if !ok {
		// Pool item from before the registry existed (or from a Put
		// that bypassed the guard somehow); nothing to verify.
		return
	}
	verify(base, rec)
}

// verify panics if rec's buffer is no longer fully poisoned.
func verify(base *byte, rec putRecord) {
	for i, c := range rec.buf {
		if c != poisonByte {
			panic(fmt.Sprintf(
				"bufpool: buffer %p written at offset %d after Put (use-after-Put through a retained view); Put at:\n%s",
				base, i, rec.stack))
		}
	}
}

// VerifyIdle sweeps every buffer currently resident in the pool and
// panics on the first one written after its Put. Unlike the Get-time
// check it does not depend on which per-P pool shard holds the buffer,
// so tests can assert use-after-Put deterministically. A violating
// record is dropped before panicking, leaving the registry usable.
func VerifyIdle() {
	type entry struct {
		base *byte
		rec  putRecord
	}
	guard.Lock()
	entries := make([]entry, 0, len(guard.pooled))
	for base, rec := range guard.pooled {
		entries = append(entries, entry{base, rec})
	}
	guard.Unlock()
	for _, e := range entries {
		func() {
			defer func() {
				if r := recover(); r != nil {
					guard.Lock()
					delete(guard.pooled, e.base)
					guard.Unlock()
					panic(r)
				}
			}()
			verify(e.base, e.rec)
		}()
	}
}
