// Package history is the vtime-native time-series half of the health
// plane: a fixed ring of periodic registry snapshots with windowed
// rate/delta queries and histogram-delta quantiles over a window.
//
// The design splits setup from recording, like the registry itself.
// Refresh (setup) scans the registry for series that appeared since the
// last scan — an image opened, an OSD constructed — and pre-resolves
// their live handles plus preallocated sample rings; it locks and
// allocates. Record (the hot path) walks the tracked series and stores
// one (vtime, value) sample per series into its ring — atomic loads and
// slice stores only, zero heap allocations, pinned by
// TestHistoryRecordAllocBudget. Histogram series store full bucket
// snapshots so a window's latency distribution is the subtraction of
// its two endpoint snapshots.
//
// Window semantics: a query at time `at` over window `w` takes the
// newest sample as the right endpoint and, as the left endpoint, the
// most recent sample at least `w` old (falling back to the oldest
// retained sample when coverage is shorter). Rates divide by the actual
// elapsed virtual time between the endpoints, never by the nominal
// window.
package history

import (
	"sync"

	"repro/internal/telemetry"
	"repro/internal/vtime"
)

// DefaultSlots is the per-series sample-ring capacity.
const DefaultSlots = 64

// Meta-telemetry about the history subsystem itself, always registered
// in the Default registry regardless of which registry an instance
// snapshots (several instances share these; they describe the process).
var (
	mRecords = telemetry.NewCounter("history_snapshots_total", "history ring snapshot records taken")
	mTracked = telemetry.NewGauge("history_series_tracked", "series currently tracked by the history ring")
)

// tracked is one series under observation: its live handle plus the
// preallocated sample ring.
type tracked struct {
	family string
	labels string // rendered {k="v",...} suffix, "" for unlabeled

	c *telemetry.Counter
	g *telemetry.Gauge
	h *telemetry.Histogram

	times []vtime.Time             // ring, len == slots
	vals  []int64                  // counter/gauge samples
	hists []telemetry.HistSnapshot // histogram samples, nil for scalar series
	n     int64                    // total samples ever recorded
}

// sampleAt returns the i-th newest sample index (i=0 newest) into the
// rings, or -1 when fewer than i+1 samples exist.
func (t *tracked) sampleIdx(i int64) int {
	if i >= t.n || i >= int64(len(t.times)) {
		return -1
	}
	return int((t.n - 1 - i) % int64(len(t.times)))
}

// endpoints picks the (left, right) ring indices for a windowed query
// ending at the newest sample: right is the newest sample, left the
// most recent sample at least w older than it (oldest retained sample
// when coverage is shorter). Returns ok=false with fewer than two
// samples.
func (t *tracked) endpoints(w vtime.Duration) (left, right int, ok bool) {
	right = t.sampleIdx(0)
	if right < 0 {
		return 0, 0, false
	}
	cutoff := t.times[right].Add(-w)
	left = -1
	for i := int64(1); ; i++ {
		idx := t.sampleIdx(i)
		if idx < 0 {
			break
		}
		left = idx
		if t.times[idx] <= cutoff {
			break
		}
	}
	if left < 0 {
		return 0, 0, false
	}
	return left, right, true
}

// value reads the live instantaneous value of the series (histograms
// report their observation count).
func (t *tracked) value() int64 {
	switch {
	case t.c != nil:
		return t.c.Value()
	case t.g != nil:
		return t.g.Value()
	default:
		return t.h.Snapshot().Count
	}
}

// History is a ring of periodic registry snapshots.
type History struct {
	mu    sync.Mutex
	reg   *telemetry.Registry
	slots int
	list  []*tracked
	index map[string]*tracked // family + "\x1f" + labels
}

// New builds a history over reg with the given per-series ring capacity
// (DefaultSlots when slots <= 0) and runs the first Refresh.
func New(reg *telemetry.Registry, slots int) *History {
	if slots <= 0 {
		slots = DefaultSlots
	}
	h := &History{reg: reg, slots: slots, index: make(map[string]*tracked)}
	h.Refresh()
	return h
}

// Refresh scans the registry and starts tracking any series that
// appeared since the last scan (setup path: locks and allocates).
// Already-tracked series keep their rings.
func (h *History) Refresh() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, f := range h.reg.Families() {
		name, kind := f.Name(), f.Kind()
		f.EachSeries(func(labels string, c *telemetry.Counter, g *telemetry.Gauge, hist *telemetry.Histogram) {
			key := name + "\x1f" + labels
			if _, ok := h.index[key]; ok {
				return
			}
			t := &tracked{
				family: name, labels: labels,
				c: c, g: g, h: hist,
				times: make([]vtime.Time, h.slots),
				vals:  make([]int64, h.slots),
			}
			if kind == telemetry.KindHistogram {
				t.hists = make([]telemetry.HistSnapshot, h.slots)
			}
			h.index[key] = t
			h.list = append(h.list, t)
		})
	}
	mTracked.Set(int64(len(h.list)))
}

// Record takes one snapshot of every tracked series at virtual time at.
// Alloc-free: every ring was preallocated by Refresh.
func (h *History) Record(at vtime.Time) {
	h.mu.Lock()
	for _, t := range h.list {
		idx := int(t.n % int64(len(t.times)))
		t.times[idx] = at
		if t.hists != nil {
			s := t.h.Snapshot()
			t.hists[idx] = s
			t.vals[idx] = s.Count
		} else {
			t.vals[idx] = t.value()
		}
		t.n++
	}
	h.mu.Unlock()
	mRecords.Inc()
}

// Samples returns how many snapshots the newest-refreshed series have
// accumulated (0 when nothing is tracked).
func (h *History) Samples() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var max int64
	for _, t := range h.list {
		if t.n > max {
			max = t.n
		}
	}
	return max
}

// find looks up one tracked series.
func (h *History) find(family, labels string) *tracked {
	return h.index[family+"\x1f"+labels]
}

// Last returns the live instantaneous value of one series (by rendered
// label suffix), and whether the series is tracked.
func (h *History) Last(family, labels string) (int64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.find(family, labels)
	if t == nil {
		return 0, false
	}
	return t.value(), true
}

// LastSum returns the summed live value across every series of family.
func (h *History) LastSum(family string) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var sum int64
	for _, t := range h.list {
		if t.family == family {
			sum += t.value()
		}
	}
	return sum
}

// seriesDelta computes one series' windowed delta and the elapsed
// virtual time between the window endpoints.
func seriesDelta(t *tracked, w vtime.Duration) (delta int64, elapsed vtime.Duration, ok bool) {
	l, r, ok := t.endpoints(w)
	if !ok {
		return 0, 0, false
	}
	return t.vals[r] - t.vals[l], t.times[r].Sub(t.times[l]), true
}

// Delta returns one series' windowed delta (counter increase, gauge
// movement, histogram count growth). Zero when the series is untracked
// or has fewer than two samples.
func (h *History) Delta(family, labels string, w vtime.Duration) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.find(family, labels)
	if t == nil {
		return 0
	}
	d, _, _ := seriesDelta(t, w)
	return d
}

// DeltaSum returns the summed windowed delta across every series of
// family.
func (h *History) DeltaSum(family string, w vtime.Duration) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var sum int64
	for _, t := range h.list {
		if t.family != family {
			continue
		}
		d, _, ok := seriesDelta(t, w)
		if ok {
			sum += d
		}
	}
	return sum
}

// RateSum returns the summed per-virtual-second rate across every
// series of family over the window (each series divides its delta by
// its own actual coverage).
func (h *History) RateSum(family string, w vtime.Duration) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var rate float64
	for _, t := range h.list {
		if t.family != family {
			continue
		}
		d, el, ok := seriesDelta(t, w)
		if ok && el > 0 {
			rate += float64(d) / (float64(el) / 1e9)
		}
	}
	return rate
}

// DeltaMax returns the largest windowed delta across the family's
// series (gauge growth rules).
func (h *History) DeltaMax(family string, w vtime.Duration) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var max int64
	first := true
	for _, t := range h.list {
		if t.family != family {
			continue
		}
		d, _, ok := seriesDelta(t, w)
		if ok && (first || d > max) {
			max, first = d, false
		}
	}
	return max
}

// EachDelta calls fn with every tracked series of family and its
// windowed delta (histograms: count growth). Series with fewer than two
// samples report ok=false.
func (h *History) EachDelta(family string, w vtime.Duration, fn func(labels string, delta int64, ok bool)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, t := range h.list {
		if t.family != family {
			continue
		}
		d, _, ok := seriesDelta(t, w)
		fn(t.labels, d, ok)
	}
}

// QuantileOver returns an upper bound for the q-quantile of the
// observations every histogram series of family recorded inside the
// window: per-series endpoint snapshots are subtracted and the bucket
// deltas merged into one distribution. Zero when nothing was observed
// in the window.
func (h *History) QuantileOver(family string, q float64, w vtime.Duration) vtime.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	var merged telemetry.HistSnapshot
	for _, t := range h.list {
		if t.family != family || t.hists == nil {
			continue
		}
		l, r, ok := t.endpoints(w)
		if !ok {
			continue
		}
		a, b := t.hists[l], t.hists[r]
		merged.Count += b.Count - a.Count
		merged.Sum += b.Sum - a.Sum
		for i := range merged.Buckets {
			merged.Buckets[i] += b.Buckets[i] - a.Buckets[i]
		}
	}
	if merged.Count <= 0 {
		return 0
	}
	return merged.Quantile(q)
}

// SeriesQuantile is QuantileOver for one labeled series.
func (h *History) SeriesQuantile(family, labels string, q float64, w vtime.Duration) vtime.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.find(family, labels)
	if t == nil || t.hists == nil {
		return 0
	}
	l, r, ok := t.endpoints(w)
	if !ok {
		return 0
	}
	a, b := t.hists[l], t.hists[r]
	var d telemetry.HistSnapshot
	d.Count = b.Count - a.Count
	d.Sum = b.Sum - a.Sum
	for i := range d.Buckets {
		d.Buckets[i] = b.Buckets[i] - a.Buckets[i]
	}
	if d.Count <= 0 {
		return 0
	}
	return d.Quantile(q)
}
