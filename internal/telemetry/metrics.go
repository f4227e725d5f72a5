// Package telemetry is the stack's dependency-free metrics and tracing
// layer: counters, gauges and fixed-bucket latency histograms keyed by
// (subsystem, op, scheme/layout) labels, plus per-op trace spans
// (trace.go). It is vtime-native — every duration is virtual time, so
// the whole layer is deterministic and replayable (vetrepo's vtimeonly
// analyzer applies to this package like any other simulation package).
//
// The design splits setup from recording. Setup (registering a family,
// resolving a labeled series with With) takes locks and allocates;
// instrumented packages do it once, in package init or when an image /
// walker is opened, and hold the resolved *Counter / *Gauge /
// *Histogram handles. Recording (Add, Set, Observe, span hops) is the
// hot path: a handful of atomic operations, zero heap allocations —
// pinned by TestTelemetryAllocBudget and the CI bench gate. Metric
// state lives only in sync/atomic fields (a plain one is a data race
// CI's -race job reports), so concurrent readers — the rbdctl status
// surface, the Prometheus exposition — need no coordination with
// writers and are race-free by construction.
//
// Every registered series must be documented in METRICS.md; the
// contract test fails on drift in either direction.
package telemetry

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/vtime"
)

// Kind enumerates metric families.
type Kind int

// Family kinds, matching the Prometheus exposition TYPE names.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer ("counter" | "gauge" | "histogram").
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Counter is a monotonically increasing series. The zero value is
// usable, but almost all counters come from a Registry so they are
// exported. Padded so hot adjacent counters do not share a cache line.
type Counter struct {
	v atomic.Int64
	_ [56]byte
}

// Add increments the counter. Negative deltas are ignored (counters are
// monotonic by contract).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the counter. This accessor is the only sanctioned read:
// the backing field is atomic, so readers never tear and never race.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a series that can go up and down (progress, queue depth,
// pacer debt in virtual nanoseconds).
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by a (possibly negative) delta.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// SetDuration stores a virtual duration as nanoseconds.
func (g *Gauge) SetDuration(d vtime.Duration) { g.v.Store(int64(d)) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// HistBuckets is the number of latency buckets. Bucket i counts
// observations at or below histBaseNs<<i virtual nanoseconds
// (~1 µs, 2 µs, ... ~69 s); the last bucket is the +Inf catch-all.
const HistBuckets = 28

// histBaseNs is the upper bound of the first bucket (~1 µs).
const histBaseNs = 1024

// Histogram is a fixed-bucket virtual-time latency histogram:
// power-of-two bucket bounds, so Observe is a shift and three atomic
// adds — no locks, no allocation, no float math on the hot path.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // virtual nanoseconds
	buckets [HistBuckets]atomic.Int64
}

// bucketIdx maps a duration to its bucket.
func bucketIdx(d vtime.Duration) int {
	if d <= 0 {
		return 0
	}
	i := bits.Len64(uint64(d) / histBaseNs)
	if i >= HistBuckets {
		return HistBuckets - 1
	}
	return i
}

// BucketBound returns bucket i's inclusive upper bound; the last bucket
// is unbounded and reports the largest representable duration.
func BucketBound(i int) vtime.Duration {
	if i >= HistBuckets-1 {
		return vtime.Duration(1<<63 - 1)
	}
	return vtime.Duration(histBaseNs << uint(i))
}

// Observe records one virtual-time duration.
func (h *Histogram) Observe(d vtime.Duration) {
	h.buckets[bucketIdx(d)].Add(1)
	h.count.Add(1)
	if d > 0 {
		h.sum.Add(int64(d))
	}
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Count   int64
	Sum     vtime.Duration
	Buckets [HistBuckets]int64
}

// Snapshot copies the histogram's current state. Buckets are read
// individually (not under a lock), so a snapshot taken concurrently
// with Observe may be off by in-flight observations — fine for
// monitoring, which is the point of the lock-free design.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.Sum = vtime.Duration(h.sum.Load())
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// bound of the first bucket whose cumulative count reaches q*Count.
// Resolution is the power-of-two bucket width.
func (s HistSnapshot) Quantile(q float64) vtime.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, b := range s.Buckets {
		cum += b
		if cum >= rank {
			return BucketBound(i)
		}
	}
	return BucketBound(HistBuckets - 1)
}

// Mean returns the exact average observation (Sum is exact even though
// bucket counts quantize).
func (s HistSnapshot) Mean() vtime.Duration {
	if s.Count == 0 {
		return 0
	}
	return vtime.Duration(int64(s.Sum) / s.Count)
}

// series is one labeled instance inside a family.
type series struct {
	labels string // rendered {k="v",...} suffix, "" for unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Family is one named metric with a fixed label-key set and any number
// of labeled series.
type Family struct {
	name      string
	help      string
	kind      Kind
	labelKeys []string

	mu    sync.Mutex
	index map[string]*series
	order []*series // insertion order, for stable exposition
}

// Name returns the family name (the METRICS.md contract key).
func (f *Family) Name() string { return f.name }

// Help returns the registration help string.
func (f *Family) Help() string { return f.help }

// Kind returns the family kind.
func (f *Family) Kind() Kind { return f.kind }

// get resolves (creating on first use) the series for labelValues.
// Setup path: locks and allocates; callers hold the returned handle.
func (f *Family) get(labelValues []string) *series {
	if len(labelValues) != len(f.labelKeys) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d",
			f.name, len(f.labelKeys), len(labelValues)))
	}
	key := strings.Join(labelValues, "\x1f")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.index[key]; ok {
		return s
	}
	s := &series{labels: renderLabels(f.labelKeys, labelValues)}
	switch f.kind {
	case KindCounter:
		s.c = &Counter{}
	case KindGauge:
		s.g = &Gauge{}
	case KindHistogram:
		s.h = &Histogram{}
	}
	f.index[key] = s
	f.order = append(f.order, s)
	return s
}

func renderLabels(keys, values []string) string {
	if len(keys) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, values[i])
	}
	b.WriteByte('}')
	return b.String()
}

// Registry holds metric families. Registration is idempotent: asking
// for an existing (name, kind) returns the existing family, so package
// init order never matters; a kind clash panics (a programming error).
type Registry struct {
	mu       sync.Mutex
	byName   map[string]*Family
	families []*Family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Family)}
}

// Default is the process-wide registry every instrumented package
// registers into; METRICS.md documents exactly its contents.
var Default = NewRegistry()

func (r *Registry) family(name, help string, kind Kind, labelKeys ...string) *Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || len(f.labelKeys) != len(labelKeys) {
			panic(fmt.Sprintf("telemetry: %s re-registered as %v(%d labels), was %v(%d labels)",
				name, kind, len(labelKeys), f.kind, len(f.labelKeys)))
		}
		return f
	}
	f := &Family{
		name:      name,
		help:      help,
		kind:      kind,
		labelKeys: append([]string(nil), labelKeys...),
		index:     make(map[string]*series),
	}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// Families returns the registered families sorted by name. The slice
// is a fresh copy; the *Family values are live (families are never
// removed), so holding one across calls is safe.
func (r *Registry) Families() []*Family {
	r.mu.Lock()
	fams := append([]*Family(nil), r.families...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// EachSeries calls fn for every labeled series in insertion order with
// the rendered {k="v",...} suffix ("" for unlabeled) and the series'
// typed handle — exactly one of c/g/h is non-nil, matching the family
// kind. The handles are the live atomics: a caller may retain them and
// read Value()/Snapshot() later without further locking. This is the
// enumeration hook the history ring uses to pre-resolve its tracked
// series at Refresh time so Record stays alloc-free.
func (f *Family) EachSeries(fn func(labels string, c *Counter, g *Gauge, h *Histogram)) {
	f.mu.Lock()
	ser := append([]*series(nil), f.order...)
	f.mu.Unlock()
	for _, s := range ser {
		fn(s.labels, s.c, s.g, s.h)
	}
}

// FamilyNames returns the registered family names, sorted — the set the
// METRICS.md contract test compares against.
func (r *Registry) FamilyNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for _, f := range r.families {
		names = append(names, f.name)
	}
	sort.Strings(names)
	return names
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *Family }

// With resolves the series for the given label values (setup path).
func (v *CounterVec) With(labelValues ...string) *Counter { return v.f.get(labelValues).c }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *Family }

// With resolves the series for the given label values (setup path).
func (v *GaugeVec) With(labelValues ...string) *Gauge { return v.f.get(labelValues).g }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *Family }

// With resolves the series for the given label values (setup path).
func (v *HistogramVec) With(labelValues ...string) *Histogram { return v.f.get(labelValues).h }

// NewCounter registers (or finds) an unlabeled counter in r.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.family(name, help, KindCounter).get(nil).c
}

// NewGauge registers (or finds) an unlabeled gauge in r.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.family(name, help, KindGauge).get(nil).g
}

// NewHistogram registers (or finds) an unlabeled histogram in r.
func (r *Registry) NewHistogram(name, help string) *Histogram {
	return r.family(name, help, KindHistogram).get(nil).h
}

// NewCounterVec registers (or finds) a labeled counter family in r.
func (r *Registry) NewCounterVec(name, help string, labelKeys ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, KindCounter, labelKeys...)}
}

// NewGaugeVec registers (or finds) a labeled gauge family in r.
func (r *Registry) NewGaugeVec(name, help string, labelKeys ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, KindGauge, labelKeys...)}
}

// NewHistogramVec registers (or finds) a labeled histogram family in r.
func (r *Registry) NewHistogramVec(name, help string, labelKeys ...string) *HistogramVec {
	return &HistogramVec{f: r.family(name, help, KindHistogram, labelKeys...)}
}

// Package-level constructors registering into Default.

// NewCounter registers an unlabeled counter in the Default registry.
func NewCounter(name, help string) *Counter { return Default.NewCounter(name, help) }

// NewGauge registers an unlabeled gauge in the Default registry.
func NewGauge(name, help string) *Gauge { return Default.NewGauge(name, help) }

// NewHistogram registers an unlabeled histogram in the Default registry.
func NewHistogram(name, help string) *Histogram { return Default.NewHistogram(name, help) }

// NewCounterVec registers a labeled counter family in the Default registry.
func NewCounterVec(name, help string, labelKeys ...string) *CounterVec {
	return Default.NewCounterVec(name, help, labelKeys...)
}

// NewGaugeVec registers a labeled gauge family in the Default registry.
func NewGaugeVec(name, help string, labelKeys ...string) *GaugeVec {
	return Default.NewGaugeVec(name, help, labelKeys...)
}

// NewHistogramVec registers a labeled histogram family in the Default registry.
func NewHistogramVec(name, help string, labelKeys ...string) *HistogramVec {
	return Default.NewHistogramVec(name, help, labelKeys...)
}

// WriteTo renders the registry in the Prometheus text exposition
// format. Histogram bucket bounds and sums are emitted in seconds (the
// Prometheus convention for duration series); all times are virtual.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := append([]*Family(nil), r.families...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	cw := &countingWriter{w: w}
	for _, f := range fams {
		f.mu.Lock()
		ser := append([]*series(nil), f.order...)
		f.mu.Unlock()
		if len(ser) == 0 {
			continue
		}
		fmt.Fprintf(cw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(cw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range ser {
			switch f.kind {
			case KindCounter:
				fmt.Fprintf(cw, "%s%s %d\n", f.name, s.labels, s.c.Value())
			case KindGauge:
				fmt.Fprintf(cw, "%s%s %d\n", f.name, s.labels, s.g.Value())
			case KindHistogram:
				writeHist(cw, f.name, s.labels, s.h.Snapshot())
			}
		}
		if cw.err != nil {
			return cw.n, cw.err
		}
	}
	return cw.n, cw.err
}

func writeHist(w io.Writer, name, labels string, s HistSnapshot) {
	sep := "{"
	if labels != "" {
		sep = labels[:len(labels)-1] + ","
	}
	var cum int64
	for i, b := range s.Buckets {
		cum += b
		if i == HistBuckets-1 {
			fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", name, sep, cum)
		} else {
			fmt.Fprintf(w, "%s_bucket%sle=\"%g\"} %d\n", name, sep,
				float64(BucketBound(i))/1e9, cum)
		}
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, float64(s.Sum)/1e9)
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, s.Count)
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}

// Snapshot renders the Default registry as a Prometheus text page —
// the string form behind `rbdctl status` and the fio/bench dumps.
func Snapshot() string {
	var b strings.Builder
	Default.WriteTo(&b)
	return b.String()
}
