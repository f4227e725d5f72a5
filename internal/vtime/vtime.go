// Package vtime provides a virtual-time accounting model for simulated
// hardware resources (disks, NICs, CPUs, databases).
//
// The model is deliberately simple — "busy-until" bookkeeping — rather than
// a full discrete-event simulator: an operation arriving at virtual time t
// at a resource with service duration d starts at max(t, busyUntil), and the
// resource's busyUntil advances to start+d. Over many operations this
// conserves resource capacity exactly (total busy time equals the sum of
// service times), which is the property bandwidth measurements depend on.
// Virtual timestamps travel with each request through the storage stack; an
// operation's completion time is the maximum over its dependency chain.
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

// Resource models a single-server resource processing work in FCFS order.
// A nil *Resource is valid and free: every Use completes instantly at its
// arrival time, so real (non-simulated) deployments can pass nil resources
// throughout the stack.
type Resource struct {
	name string

	mu        sync.Mutex
	busyUntil Time
	busyTotal Duration
	ops       int64
}

// NewResource returns a named single-server resource.
func NewResource(name string) *Resource {
	return &Resource{name: name}
}

// Name returns the resource's name, or "<free>" for a nil resource.
func (r *Resource) Name() string {
	if r == nil {
		return "<free>"
	}
	return r.name
}

// Use schedules work of duration d arriving at time at, and returns its
// completion time. For a nil receiver it returns at unchanged.
func (r *Resource) Use(at Time, d Duration) Time {
	if r == nil {
		return at
	}
	if d < 0 {
		d = 0
	}
	r.mu.Lock()
	start := Max(at, r.busyUntil)
	end := start.Add(d)
	r.busyUntil = end
	r.busyTotal += d
	r.ops++
	r.mu.Unlock()
	return end
}

// BusyUntil reports the time at which the resource becomes idle.
func (r *Resource) BusyUntil() Time {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.busyUntil
}

// Stats reports the number of operations served and the total busy time.
func (r *Resource) Stats() (ops int64, busy Duration) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ops, r.busyTotal
}

// Reset clears accumulated statistics and makes the resource idle from
// time 0. Resets are used between benchmark sweeps.
func (r *Resource) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.busyUntil, r.busyTotal, r.ops = 0, 0, 0
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

// MultiResource models a pool of identical servers (for example the lanes
// of a NIC or the channels of an NVMe device). Work arriving at time t is
// assigned to the server that can start it earliest. A nil *MultiResource
// is valid and free.
type MultiResource struct {
	name string

	mu        sync.Mutex
	busyUntil []Time
	busyTotal Duration
	ops       int64
}

// NewMultiResource returns a resource pool with n identical servers.
// n must be at least 1.
func NewMultiResource(name string, n int) *MultiResource {
	if n < 1 {
		panic("vtime: MultiResource needs at least one server")
	}
	return &MultiResource{name: name, busyUntil: make([]Time, n)}
}

// Use schedules work of duration d arriving at time at on the least-loaded
// server and returns its completion time.
func (m *MultiResource) Use(at Time, d Duration) Time {
	if m == nil {
		return at
	}
	if d < 0 {
		d = 0
	}
	m.mu.Lock()
	best := 0
	for i := 1; i < len(m.busyUntil); i++ {
		if m.busyUntil[i] < m.busyUntil[best] {
			best = i
		}
	}
	start := Max(at, m.busyUntil[best])
	end := start.Add(d)
	m.busyUntil[best] = end
	m.busyTotal += d
	m.ops++
	m.mu.Unlock()
	return end
}

// Stats reports the number of operations served and the total busy time
// summed over all servers.
func (m *MultiResource) Stats() (ops int64, busy Duration) {
	if m == nil {
		return 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops, m.busyTotal
}

// Reset clears statistics and idles every server from time 0.
func (m *MultiResource) Reset() {
	if m == nil {
		return
	}
	m.mu.Lock()
	for i := range m.busyUntil {
		m.busyUntil[i] = 0
	}
	m.busyTotal, m.ops = 0, 0
	m.mu.Unlock()
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
