// Package vtime provides a virtual-time accounting model for simulated
// hardware resources (disks, NICs, CPUs, databases).
//
// The model is deliberately simple — "busy-until" bookkeeping — rather than
// a full discrete-event simulator. A Resource is a pool of one or more
// identical servers, each with its own busy-until watermark. An operation
// arriving at virtual time t with service duration d takes the server that
// frees up first, starts at max(t, busyUntil) and advances that server's
// busyUntil to start+d. Over many operations this conserves resource
// capacity exactly (total busy time equals the sum of service times), which
// is the property bandwidth measurements depend on. Virtual timestamps
// travel with each request through the storage stack; an operation's
// completion time is the maximum over its dependency chain.
package vtime

import (
	"fmt"
	"sync"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of the
// simulation. The zero Time is the simulation epoch.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts directly
// to and from time.Duration.
type Duration = time.Duration

// Add returns the time t+d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// MaxAll returns the latest of the given times, or 0 when none are given.
func MaxAll(ts ...Time) Time {
	var m Time
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}

// Join runs n operations that overlap in virtual time: every leg is
// issued at the same arrival time at (fn closes over it) and the join
// ends at the latest leg. The legs run fn(0)…fn(n-1) in index order on
// the caller's goroutine — overlap is a property of the cost model, not
// of host scheduling, so one caller's reservations are made in program
// order. Every leg is attempted; on any failure Join returns at and the
// first error.
func Join(at Time, n int, fn func(i int) (Time, error)) (Time, error) {
	end := at
	var firstErr error
	for i := 0; i < n; i++ {
		legEnd, err := fn(i)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		end = Max(end, legEnd)
	}
	if firstErr != nil {
		return at, firstErr
	}
	return end, nil
}

// Resource models a pool of identical servers processing work in FCFS
// order: one disk queue, the channels of an NVMe device, a NIC, a set of
// CPU cores. Work arriving at time t goes to the server that frees up
// first (the lowest index on a tie) and starts at the later of t and that
// server's busy-until. A nil *Resource is valid and free: every Use
// completes instantly at its arrival time, so real (non-simulated)
// deployments can pass nil resources throughout the stack.
type Resource struct {
	name string

	mu        sync.Mutex
	busyUntil []Time // one watermark per server
	busyTotal Duration
	ops       int64
}

// NewResource returns a named single-server resource.
func NewResource(name string) *Resource {
	return NewPool(name, 1)
}

// NewPool returns a named resource with n identical servers. n must be
// at least 1.
func NewPool(name string, n int) *Resource {
	if n < 1 {
		panic("vtime: a resource needs at least one server")
	}
	return &Resource{name: name, busyUntil: make([]Time, n)}
}

// Name returns the resource's name, or "<free>" for a nil resource.
func (r *Resource) Name() string {
	if r == nil {
		return "<free>"
	}
	return r.name
}

// Use schedules work of duration d arriving at time at on the server that
// frees up first, and returns its completion time. For a nil receiver it
// returns at unchanged.
func (r *Resource) Use(at Time, d Duration) Time {
	if r == nil {
		return at
	}
	if d < 0 {
		d = 0
	}
	r.mu.Lock()
	best := 0
	for i := 1; i < len(r.busyUntil); i++ {
		if r.busyUntil[i] < r.busyUntil[best] {
			best = i
		}
	}
	start := Max(at, r.busyUntil[best])
	end := start.Add(d)
	r.busyUntil[best] = end
	r.busyTotal += d
	r.ops++
	r.mu.Unlock()
	return end
}

// BusyUntil reports the last busy instant: the time at which every server
// is idle.
func (r *Resource) BusyUntil() Time {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return MaxAll(r.busyUntil...)
}

// Stats reports the number of operations served and the total busy time
// summed over all servers.
func (r *Resource) Stats() (ops int64, busy Duration) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ops, r.busyTotal
}

// Reset clears accumulated statistics and makes every server idle from
// time 0. Resets are used between benchmark sweeps.
func (r *Resource) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	clear(r.busyUntil)
	r.busyTotal, r.ops = 0, 0
	r.mu.Unlock()
}

// String implements fmt.Stringer.
func (r *Resource) String() string {
	if r == nil {
		return "<free>"
	}
	ops, busy := r.Stats()
	return fmt.Sprintf("%s{ops=%d busy=%v}", r.name, ops, busy)
}

// LinearCost describes a service time of the form Fixed + PerByte*bytes.
// It is the ubiquitous cost shape for disks, links and CPU work in this
// simulation. PerByte is kept as floating-point nanoseconds because at
// multi-GB/s bandwidths the per-byte cost is well below one nanosecond.
type LinearCost struct {
	Fixed   Duration // per-operation setup cost
	PerByte float64  // nanoseconds per byte transferred or processed
}

// Of returns the service duration for an operation moving n bytes.
func (c LinearCost) Of(n int64) Duration {
	return c.Fixed + Duration(float64(n)*c.PerByte)
}

// PerByteOfBandwidth converts a bandwidth in bytes/second into a per-byte
// cost in nanoseconds. It panics on non-positive bandwidth.
func PerByteOfBandwidth(bytesPerSecond float64) float64 {
	if bytesPerSecond <= 0 {
		panic("vtime: bandwidth must be positive")
	}
	return float64(time.Second) / bytesPerSecond
}
