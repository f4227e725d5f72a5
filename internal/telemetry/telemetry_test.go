package telemetry

import (
	"strings"
	"testing"

	"repro/internal/vtime"
)

// TestTelemetryAllocBudget is the zero-overhead contract: every
// hot-path recording operation — counter add, gauge set, histogram
// observe, and a full span start/hop/finish cycle — performs zero heap
// allocations. Setup (registration, label resolution) may allocate;
// instrumented packages do it once and hold the handles.
func TestTelemetryAllocBudget(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("t_counter", "test")
	g := reg.NewGauge("t_gauge", "test")
	h := reg.NewHistogram("t_hist", "test")
	cv := reg.NewCounterVec("t_counter_vec", "test", "op").With("read")
	tr := NewTracer(reg, 1, 1e6)

	cases := []struct {
		name string
		fn   func()
	}{
		{"counter-add", func() { c.Add(3) }},
		{"counter-inc", func() { c.Inc() }},
		{"counter-vec-add", func() { cv.Add(1) }},
		{"gauge-set", func() { g.Set(42) }},
		{"gauge-dur", func() { g.SetDuration(5e6) }},
		{"hist-observe", func() { h.Observe(1500) }},
		{"span-cycle", func() {
			sp := tr.Start("write", "rbd/obj.0", 4096, 0)
			sp.Hop("msgr:req", 0, 10)
			sp.Hop("osd:serve", 10, 90)
			sp.Hop("msgr:resp", 90, 100)
			sp.Finish(100)
		}},
		{"span-unsampled", func() {
			// A nil span (unsampled op) must be free too.
			var sp *Span
			sp.Hop("x", 0, 1)
			sp.Finish(1)
		}},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op on the record path, want 0", tc.name, allocs)
		}
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("c", "x")
	c.Add(5)
	c.Inc()
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
	g := reg.NewGauge("g", "x")
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
	// Idempotent registration returns the same series.
	if reg.NewCounter("c", "x") != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestVecWithReturnsSameSeries(t *testing.T) {
	reg := NewRegistry()
	v := reg.NewCounterVec("ops", "x", "op")
	a, b := v.With("read"), v.With("read")
	if a != b {
		t.Fatal("With(same labels) returned different series")
	}
	w := v.With("write")
	a.Add(2)
	w.Add(5)
	if a.Value() != 2 || w.Value() != 5 {
		t.Fatalf("series not independent: read=%d write=%d", a.Value(), w.Value())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("lat", "x")
	// 90 fast ops (~2 µs) and 10 slow ops (~1 ms).
	for i := 0; i < 90; i++ {
		h.Observe(2_000)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1_000_000)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if want := vtime.Duration(90*2_000 + 10*1_000_000); s.Sum != want {
		t.Fatalf("sum = %v, want %v", s.Sum, want)
	}
	if p50 := s.Quantile(0.50); p50 > 10_000 {
		t.Errorf("p50 = %v, want a fast-bucket bound", p50)
	}
	// p99 must land in (or above) the slow cohort's bucket.
	if p99 := s.Quantile(0.99); p99 < 1_000_000 {
		t.Errorf("p99 = %v, want >= 1ms", p99)
	}
	if m := s.Mean(); m < 90_000 || m > 150_000 {
		t.Errorf("mean = %v, want ~101.8µs", m)
	}
}

func TestHistogramBucketMonotone(t *testing.T) {
	last := -1
	for d := vtime.Duration(0); d < 1<<40; d = d*2 + 1 {
		i := bucketIdx(d)
		if i < last {
			t.Fatalf("bucketIdx not monotone at %v: %d < %d", d, i, last)
		}
		if d <= BucketBound(i) == false {
			t.Fatalf("d=%v above its bucket bound %v", d, BucketBound(i))
		}
		last = i
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounterVec("client_ops_total", "ops by kind", "op").With("read").Add(7)
	reg.NewGauge("rekey_objects_done", "progress").Set(3)
	reg.NewHistogram("client_request_vtime", "latency").Observe(5_000)

	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE client_ops_total counter",
		`client_ops_total{op="read"} 7`,
		"# TYPE rekey_objects_done gauge",
		"rekey_objects_done 3",
		"# TYPE client_request_vtime histogram",
		`client_request_vtime_bucket{le="+Inf"} 1`,
		"client_request_vtime_sum 5e-06",
		"client_request_vtime_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestTracerRingsAndSlowLog(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 1, 500) // slow threshold 500ns virtual
	for i := 0; i < recentSpans+5; i++ {
		sp := tr.Start("op", "t", 1, vtime.Time(i))
		if sp == nil {
			t.Fatal("span not sampled at every=1")
		}
		dur := vtime.Duration(100)
		if i%10 == 0 {
			dur = 1000 // slow
		}
		sp.Hop("hop", vtime.Time(i), vtime.Time(i).Add(dur))
		sp.Finish(vtime.Time(i).Add(dur))
	}
	recent := tr.Recent()
	if len(recent) != recentSpans {
		t.Fatalf("recent ring has %d, want %d", len(recent), recentSpans)
	}
	// Newest span end first: the slow span at i=60 ends at 1060, after
	// every plain 100ns span — it leads despite being claimed earlier.
	if recent[0].Start != vtime.Time(60) {
		t.Fatalf("recent[0].Start = %d, want 60 (latest End leads)", recent[0].Start)
	}
	for i := 1; i < len(recent); i++ {
		if recent[i].End > recent[i-1].End {
			t.Fatalf("recent not sorted by End desc at %d: %d after %d", i, recent[i].End, recent[i-1].End)
		}
	}
	slow := tr.Slow()
	if len(slow) == 0 {
		t.Fatal("no slow spans retained")
	}
	for _, r := range slow {
		if r.Duration() < 500 {
			t.Fatalf("fast span %v in slow log", r.Duration())
		}
	}
	if tr.started.Value() != int64(recentSpans+5) || tr.finished.Value() != int64(recentSpans+5) {
		t.Fatalf("span accounting: started=%d finished=%d", tr.started.Value(), tr.finished.Value())
	}
}

func TestTracerSampling(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 4, 1e9)
	sampled := 0
	for i := 0; i < 100; i++ {
		sp := tr.Start("op", "t", 0, 0)
		if sp == nil {
			t.Fatal("every op claims a span; nil means pool exhaustion")
		}
		if sp.Sampled() {
			sampled++
		}
		sp.Finish(1)
	}
	if sampled != 25 {
		t.Fatalf("sampled %d of 100 at every=4", sampled)
	}
	// Fast unsampled spans take neither ring.
	if got := len(tr.Recent()); got != 25 {
		t.Fatalf("recent ring has %d, want 25 sampled", got)
	}
}

func TestSpanRecordString(t *testing.T) {
	r := SpanRecord{Op: "write", Target: "rbd/x", Bytes: 4096, Start: 0, End: 150, NHops: 2}
	r.Hops[0] = Hop{Name: "msgr:req", Start: 0, End: 30}
	r.Hops[1] = Hop{Name: "osd:serve", Start: 30, End: 140}
	s := r.String()
	for _, want := range []string{"write", "rbd/x", "4096B", "msgr:req", "osd:serve"} {
		if !strings.Contains(s, want) {
			t.Errorf("span string missing %q: %s", want, s)
		}
	}
}
