// Package bufpool serves scratch byte buffers from size-classed
// sync.Pools (power-of-two capacity classes from 4 KiB up). It backs
// every transient wire, metadata and cipher-scratch buffer on the IO hot
// path — the seal/open pipeline in internal/core, the scatter-gather
// marshal headers in internal/rados — so the steady state performs no
// per-IO heap allocations for payload-sized memory.
//
// Requests above the largest class fall back to plain allocation, and
// buffers with capacities that are not an exact class size are dropped
// on Put, so mixing pooled and plain buffers is always safe. Callers
// must not retain any view into a buffer after returning it.
package bufpool

import (
	"sync"
	"unsafe"

	"repro/internal/telemetry"
)

const (
	// minShift is the smallest class: 4 KiB, one encryption block.
	minShift = 12
	// numClasses spans classes up to 16 MiB: the largest extent plus its
	// metadata region.
	numClasses = 13
)

// Pool pressure counters: a healthy steady state is almost all hits; a
// rising miss rate means buffers are leaking past Put or the working
// set outgrew the GC's pool retention (see METRICS.md).
var (
	mGets    = telemetry.NewCounterVec("bufpool_gets_total", "pooled buffer requests by outcome", "result")
	mGetHit  = mGets.With("hit")
	mGetMiss = mGets.With("miss")
	mPuts    = telemetry.NewCounter("bufpool_puts_total", "buffers returned to the pool")
	// mOutstanding tracks pool-class buffers handed out and not yet
	// returned — the pool-pressure why-signal. Oversized fallback
	// buffers are excluded (Put would drop them anyway), so a steady
	// positive drift means real leaks past Put.
	mOutstanding = telemetry.NewGauge("bufpool_outstanding",
		"pool-class buffers checked out and not yet returned")
)

// classes holds each pooled buffer as a pointer to its backing array's
// first element: a pointer fits in the pool's interface value without a
// box, so a Put allocates nothing, and Get rebuilds the slice from the
// class size.
var classes [numClasses]sync.Pool

// class returns the smallest class whose capacity holds n bytes, or -1
// when n is too large to pool.
func class(n int) int {
	c := 0
	for n > 1<<(minShift+c) {
		c++
		if c >= numClasses {
			return -1
		}
	}
	return c
}

// Get returns a length-n byte slice with unspecified contents.
func Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	c := class(n)
	if c < 0 {
		mGetMiss.Inc()
		return make([]byte, n)
	}
	if v := classes[c].Get(); v != nil {
		b := unsafe.Slice(v.(*byte), 1<<(minShift+c))[:n]
		checkGet(b)
		mGetHit.Inc()
		mOutstanding.Add(1)
		return b
	}
	mGetMiss.Inc()
	mOutstanding.Add(1)
	return make([]byte, n, 1<<(minShift+c))
}

// GetZero returns a length-n zeroed byte slice.
func GetZero(n int) []byte {
	b := Get(n)
	clear(b)
	return b
}

// Put recycles a buffer obtained from Get. The caller must not retain
// any view into b afterwards. Buffers that did not come from the pool
// (odd capacities) are silently dropped.
func Put(b []byte) {
	if cap(b) < 1<<minShift {
		return
	}
	c := class(cap(b))
	if c < 0 || 1<<(minShift+c) != cap(b) {
		return // odd capacity (not pool-born); drop it
	}
	b = b[:cap(b)]
	checkPut(b)
	mPuts.Inc()
	mOutstanding.Add(-1)
	classes[c].Put(unsafe.SliceData(b))
}
