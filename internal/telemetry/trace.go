package telemetry

// trace.go is the per-op tracing half of the telemetry layer: a Span is
// started at the client (rados.Client.Operate), rides the typed request
// through the msgr dispatch, the OSD serve path and primary-copy
// replication, and records one (name, vtime start, vtime end) hop per
// layer. The span never crosses the wire, so tracing cannot change
// virtual time. Every op claims a span slot from a fixed pool
// (zero-alloc) and records every hop, but only every Nth op is
// *sampled* into the recent-trace ring. Unsampled spans exist for tail
// capture: any span whose duration crosses the slow threshold is filed
// in the slow-op log regardless of sampling, with its full breakdown,
// so slow ops can never fall between sampling strides. All Span methods
// are nil-safe: when the pool is exhausted an op carries a nil span and
// every recording call is a no-op, which keeps the instrumentation
// branch-free at the call sites.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/vtime"
)

const (
	// MaxHops bounds the per-span hop list. A 3-replica write records
	// 10: the client's msgr:req and msgr:resp, the primary's serve and
	// replicate, and msgr:req, serve and msgr:resp per replica.
	MaxHops = 12
	// spanSlots is the live-span pool size; claims beyond it drop the
	// span rather than allocate or block.
	spanSlots = 256
	// recentSpans and slowSpans size the finished-trace rings.
	recentSpans = 64
	slowSpans   = 32
)

// Hop is one layer crossing inside a span.
type Hop struct {
	Name       string
	Start, End vtime.Time
}

// SpanRecord is the finished form of a span, value-copied into the
// rings so the slot can be reused immediately.
type SpanRecord struct {
	Op      string
	Target  string
	Bytes   int64
	Start   vtime.Time
	End     vtime.Time
	Sampled bool // chosen by the every-Nth stream
	NHops   int
	Hops    [MaxHops]Hop
}

// Duration is the span's virtual wall time.
func (r SpanRecord) Duration() vtime.Duration { return r.End.Sub(r.Start) }

// String renders a one-line summary plus the hop breakdown.
func (r SpanRecord) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %dB %v", r.Op, r.Target, r.Bytes, r.Duration())
	for i := 0; i < r.NHops; i++ {
		h := r.Hops[i]
		fmt.Fprintf(&b, " | %s %v", h.Name, h.End.Sub(h.Start))
	}
	return b.String()
}

// Span is a live trace. Exactly one goroutine touches a span at a time
// — the in-process call chain is synchronous, and vtime.Join runs the
// replication fan-out's legs on the caller's goroutine — so its fields
// need no atomics; the slot's busy flag alone hands ownership across
// claims.
type Span struct {
	busy atomic.Bool
	tr   *Tracer
	rec  SpanRecord
}

// Tracer owns the span pool and the finished-trace rings.
type Tracer struct {
	tick       atomic.Int64
	every      atomic.Int64 // sample every Nth Start; <=1 samples all
	slowThresh atomic.Int64 // virtual ns; spans at/above land in the slow log

	slots [spanSlots]Span

	mu      sync.Mutex
	recent  [recentSpans]SpanRecord
	recentN int64
	slow    [slowSpans]SpanRecord
	slowN   int64

	started  *Counter
	finished *Counter
	slowOps  *Counter
	dropped  *Counter
}

// NewTracer builds a tracer sampling every nth op, with its span
// accounting registered in reg.
func NewTracer(reg *Registry, every int64, slowThresh vtime.Duration) *Tracer {
	t := &Tracer{
		started:  reg.NewCounter("trace_spans_started_total", "trace spans started (every op claims a slot)"),
		finished: reg.NewCounter("trace_spans_finished_total", "trace spans finished"),
		slowOps:  reg.NewCounter("trace_spans_slow_total", "finished spans at or above the slow-op threshold (all captured, sampled or not)"),
		dropped:  reg.NewCounter("trace_spans_dropped_total", "ops dropped because the span pool was exhausted"),
	}
	t.every.Store(every)
	t.slowThresh.Store(int64(slowThresh))
	for i := range t.slots {
		t.slots[i].tr = t
	}
	return t
}

// Ops is the process-wide op tracer: every 64th client op by default,
// with a 10 ms (virtual) slow-op threshold.
var Ops = NewTracer(Default, 64, 10*1e6)

// SetSampleEvery samples every nth Start (n <= 1 samples every op).
func (t *Tracer) SetSampleEvery(n int64) {
	if n < 1 {
		n = 1
	}
	t.every.Store(n)
}

// SetSlowThreshold sets the virtual duration at or above which finished
// spans are retained in the slow-op log.
func (t *Tracer) SetSlowThreshold(d vtime.Duration) { t.slowThresh.Store(int64(d)) }

// SlowThreshold returns the current slow-op threshold.
func (t *Tracer) SlowThreshold() vtime.Duration {
	if t == nil {
		return 0
	}
	return vtime.Duration(t.slowThresh.Load())
}

// Start begins a span for one op. Every op claims a slot (tail capture
// needs the timing even off-stride); sampling only decides whether the
// finished span also enters the recent ring. Returns nil only when the
// pool is exhausted. The strings should be static or already-retained —
// they are stored by reference, never copied.
func (t *Tracer) Start(op, target string, bytes int64, at vtime.Time) *Span {
	if t == nil {
		return nil
	}
	n := t.tick.Add(1)
	every := t.every.Load()
	sampled := every <= 1 || n%every == 0
	// Claim a slot with a short bounded probe; contention beyond it
	// means plenty of traces are already in flight — drop this one.
	for i := int64(0); i < 8; i++ {
		s := &t.slots[uint64(n+i)%spanSlots]
		if s.busy.CompareAndSwap(false, true) {
			s.rec = SpanRecord{Op: op, Target: target, Bytes: bytes, Start: at, Sampled: sampled}
			t.started.Inc()
			return s
		}
	}
	t.dropped.Inc()
	return nil
}

// Sampled reports whether the span was chosen by the every-Nth stream
// (false for tail-capture-only spans and for nil spans).
func (s *Span) Sampled() bool { return s != nil && s.rec.Sampled }

// Hop records one layer crossing. Nil-safe; hops beyond MaxHops are
// silently dropped.
func (s *Span) Hop(name string, start, end vtime.Time) {
	if s == nil {
		return
	}
	if s.rec.NHops < MaxHops {
		s.rec.Hops[s.rec.NHops] = Hop{Name: name, Start: start, End: end}
		s.rec.NHops++
	}
}

// Finish completes the span at virtual time end. Sampled spans are
// copied into the recent ring; any span at/above the slow threshold —
// sampled or not — is filed into the slow log (tail capture).
// Unsampled, fast spans take neither ring and skip the mutex entirely,
// so the per-op cost of always claiming stays a CAS pair. Nil-safe.
func (s *Span) Finish(end vtime.Time) {
	if s == nil {
		return
	}
	s.rec.End = end
	t := s.tr
	slow := int64(s.rec.Duration()) >= t.slowThresh.Load()
	if s.rec.Sampled || slow {
		t.mu.Lock()
		if s.rec.Sampled {
			t.recent[t.recentN%recentSpans] = s.rec
			t.recentN++
		}
		if slow {
			t.slow[t.slowN%slowSpans] = s.rec
			t.slowN++
		}
		t.mu.Unlock()
	}
	t.finished.Inc()
	if slow {
		t.slowOps.Inc()
	}
	s.rec = SpanRecord{} // release string references before freeing the slot
	s.busy.Store(false)
}

// Recent returns the finished sampled traces still in the ring, newest
// span end first (claim order interleaves confusingly under
// concurrency).
func (t *Tracer) Recent() []SpanRecord {
	t.mu.Lock()
	out := ringCopy(t.recent[:], t.recentN)
	t.mu.Unlock()
	sortByEnd(out)
	return out
}

// Slow returns the retained slow-op traces, newest span end first.
func (t *Tracer) Slow() []SpanRecord {
	t.mu.Lock()
	out := ringCopy(t.slow[:], t.slowN)
	t.mu.Unlock()
	sortByEnd(out)
	return out
}

// sortByEnd orders records newest-End-first, stably so ring order (the
// claim sequence) breaks ties.
func sortByEnd(recs []SpanRecord) {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].End > recs[j].End })
}

// ringCopy extracts a ring's live records newest-first; n is the total
// ever written, ring[ (n-1) % len ] the newest.
func ringCopy(ring []SpanRecord, n int64) []SpanRecord {
	live := n
	if live > int64(len(ring)) {
		live = int64(len(ring))
	}
	out := make([]SpanRecord, 0, live)
	for i := int64(1); i <= live; i++ {
		out = append(out, ring[(n-i)%int64(len(ring))])
	}
	return out
}
