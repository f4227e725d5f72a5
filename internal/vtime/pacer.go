package vtime

import (
	"fmt"
	"sync"
	"time"
)

// Pacer is a virtual-time admission budget for background walkers (the
// online-rekey and clone-flatten sweeps): a token-bucket-shaped cap on
// how fast a walker may consume the cluster, expressed as an IOPS limit
// and a bytes/second limit, in the spirit of Ceph's osd_recovery_max_*
// knobs. It reuses the busy-until idea of Resource, but inverted: Admit
// delays the *start* of the next operation so that, over any interval,
// the walker issues at most IOPS operations and Bytes bytes per second
// of virtual time. Foreground IO never touches the pacer, so its only
// effect is to spread the walker's resource consumption out in time and
// bound the interference foreground latency percentiles see.
//
// A nil *Pacer is valid and free (every Admit returns the arrival time
// unchanged), so walkers can thread an optional pacer without branching.
// One Pacer may be shared by several walkers (e.g. a rekey and a flatten
// running on siblings): the budget then caps their combined rate.
type Pacer struct {
	mu      sync.Mutex
	next    Time     // earliest virtual start of the next admitted op
	opCost  Duration // 1/IOPS, charged per admitted operation
	perByte float64  // nanoseconds per byte of walker payload
	stall   Duration // cumulative admission delay handed to callers
}

// NewPacer builds a pacer capping admitted work at iops operations per
// second and bytesPerSec payload bytes per second of virtual time. A
// non-positive value leaves that dimension uncapped.
func NewPacer(iops, bytesPerSec float64) *Pacer {
	p := &Pacer{}
	if iops > 0 {
		p.opCost = Duration(float64(time.Second) / iops)
	}
	if bytesPerSec > 0 {
		p.perByte = PerByteOfBandwidth(bytesPerSec)
	}
	return p
}

// Admit schedules one walker operation moving n payload bytes, arriving
// at virtual time at, and returns the time the operation may start:
// max(at, the budget frontier). The frontier then advances by the
// operation's budget cost (opCost + n*perByte), so sustained admission
// converges to the configured rate while an idle pacer lets a fresh
// burst start immediately.
func (p *Pacer) Admit(at Time, n int64) Time {
	if p == nil {
		return at
	}
	p.mu.Lock()
	start := Max(at, p.next)
	p.stall += start.Sub(at)
	p.next = start.Add(p.opCost + Duration(float64(n)*p.perByte))
	p.mu.Unlock()
	return start
}

// Stall reports the cumulative virtual time Admit has delayed callers —
// how much of the walker's wall time was spent waiting on its own
// budget rather than doing work. Monotonic; walkers export it as a
// gauge (this package cannot import telemetry) so the attribution plane
// can separate "the walker is slow" from "the walker is throttled".
func (p *Pacer) Stall() Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stall
}

// Charge adds n payload bytes to the budget retroactively — the shape
// walkers need when an operation's true size is only known after it ran
// (a rekey step re-seals only the stale blocks it found). The cost is
// posted as debt against the frontier, delaying the next Admit.
func (p *Pacer) Charge(n int64) {
	if p == nil || n <= 0 {
		return
	}
	p.mu.Lock()
	p.next = p.next.Add(Duration(float64(n) * p.perByte))
	p.mu.Unlock()
}

// Debt reports how far the budget frontier sits beyond virtual time at
// — the delay the next Admit would incur. Zero means the walker is
// inside its budget (a fresh op starts immediately); a growing value
// means charged work is still being amortized. Walkers export it as a
// progress gauge so pacing pressure is observable.
func (p *Pacer) Debt(at Time) Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.next <= at {
		return 0
	}
	return p.next.Sub(at)
}

// String implements fmt.Stringer.
func (p *Pacer) String() string {
	if p == nil {
		return "pacer(free)"
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return fmt.Sprintf("pacer{opCost=%v perByte=%.3fns next=%v}", p.opCost, p.perByte, Duration(p.next))
}
