package history

import (
	"testing"

	"repro/internal/telemetry"
	"repro/internal/vtime"
)

const sec = vtime.Duration(1e9)

// TestHistoryWindows covers the window semantics: deltas and rates over
// the actual endpoint spacing, quantiles over histogram-delta merges,
// and the oldest-sample fallback when coverage is shorter than the
// window.
func TestHistoryWindows(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.NewCounter("t_ops_total", "test")
	g := reg.NewGauge("t_debt_ns", "test")
	hist := reg.NewHistogram("t_vtime", "test")
	h := New(reg, 8)

	// Samples at 0s, 1s, 2s: counter +10 per second, gauge climbing.
	h.Record(0)
	c.Add(10)
	g.Set(5)
	hist.Observe(vtime.Duration(2 * 1e6)) // 2 ms
	h.Record(vtime.Time(1 * 1e9))
	c.Add(10)
	g.Set(50)
	hist.Observe(vtime.Duration(40 * 1e6)) // 40 ms
	h.Record(vtime.Time(2 * 1e9))

	if d := h.Delta("t_ops_total", "", 1*sec); d != 10 {
		t.Errorf("1s delta = %d, want 10", d)
	}
	if d := h.DeltaSum("t_ops_total", 2*sec); d != 20 {
		t.Errorf("2s delta = %d, want 20", d)
	}
	// A window wider than coverage falls back to the oldest sample.
	if d := h.Delta("t_ops_total", "", 100*sec); d != 20 {
		t.Errorf("oversized-window delta = %d, want 20", d)
	}
	// Rates divide by actual elapsed time (2 s), not the nominal window.
	if r := h.RateSum("t_ops_total", 100*sec); r < 9.9 || r > 10.1 {
		t.Errorf("rate = %v, want ~10/s", r)
	}
	if d := h.DeltaMax("t_debt_ns", 2*sec); d != 50 {
		t.Errorf("2s gauge growth = %d, want 50 (from the t=0 sample)", d)
	}
	if d := h.DeltaMax("t_debt_ns", 1*sec); d != 45 {
		t.Errorf("1s gauge growth = %d, want 45", d)
	}

	// The 1s window spans only the second observation (40 ms); a p99
	// over it must exceed 20 ms, while the full-coverage median stays
	// low only when both observations are inside.
	if q := h.QuantileOver("t_vtime", 0.99, 1*sec); q < vtime.Duration(20*1e6) {
		t.Errorf("1s-window p99 = %v, want >= 20ms", q)
	}
	if q := h.SeriesQuantile("t_vtime", "", 0.5, 2*sec); q >= vtime.Duration(20*1e6) {
		t.Errorf("2s-window p50 = %v, want < 20ms (2ms observation included)", q)
	}

	// Untracked families answer zero, never panic.
	if d := h.Delta("nope", "", sec); d != 0 {
		t.Errorf("untracked delta = %d", d)
	}
	if q := h.QuantileOver("nope", 0.5, sec); q != 0 {
		t.Errorf("untracked quantile = %v", q)
	}
}

// TestHistoryRefresh covers late series pickup: a series registered
// after New is invisible until Refresh, then tracked with its own ring.
func TestHistoryRefresh(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := New(reg, 4)
	c := reg.NewCounterVec("t_late_total", "test", "osd").With("0")
	h.Record(0)
	if _, ok := h.Last("t_late_total", `{osd="0"}`); ok {
		t.Fatal("series visible before Refresh")
	}
	h.Refresh()
	c.Add(7)
	h.Record(1)
	if v, ok := h.Last("t_late_total", `{osd="0"}`); !ok || v != 7 {
		t.Fatalf("after Refresh: value=%d ok=%v, want 7 true", v, ok)
	}
}

// TestHistoryRingWrap verifies old samples fall off a full ring: with 4
// slots only the newest 4 samples bound any window.
func TestHistoryRingWrap(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.NewCounter("t_wrap_total", "test")
	h := New(reg, 4)
	for i := 1; i <= 10; i++ {
		c.Add(1)
		h.Record(vtime.Time(int64(i) * 1e9))
	}
	// Oldest retained sample is i=7 (value 7); newest i=10 (value 10).
	if d := h.Delta("t_wrap_total", "", 100*sec); d != 3 {
		t.Errorf("wrapped delta = %d, want 3 (ring keeps 4 samples)", d)
	}
	if n := h.Samples(); n != 10 {
		t.Errorf("Samples() = %d, want 10", n)
	}
}

// TestHistoryRecordAllocBudget pins the hot-path contract: recording a
// snapshot of every tracked series performs zero heap allocations.
func TestHistoryRecordAllocBudget(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.NewCounter("t_ops_total", "test")
	g := reg.NewGauge("t_debt_ns", "test")
	hist := reg.NewHistogram("t_vtime", "test")
	hv := reg.NewHistogramVec("t_vtime_labeled", "test", "op").With("read")
	h := New(reg, 16)

	var at vtime.Time
	if allocs := testing.AllocsPerRun(200, func() {
		c.Inc()
		g.Set(int64(at))
		hist.Observe(1e6)
		hv.Observe(2e6)
		at = at.Add(1e6)
		h.Record(at)
	}); allocs != 0 {
		t.Fatalf("History.Record allocates %v times per op, want 0", allocs)
	}
}
