package health

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/history"
	"repro/internal/vtime"
)

const ms = vtime.Duration(1e6)

// ruleSet builds a registry carrying one series for every family the
// default rules watch, a history over it, and an engine with the stock
// rules.
type ruleSet struct {
	reg    *telemetry.Registry
	hist   *history.History
	eng    *Engine
	errs   *telemetry.Counter
	reqs   *telemetry.Counter
	faults *telemetry.Counter
	bad    *telemetry.Counter
	rep    *telemetry.Counter
	inline *telemetry.Counter
	debt   *telemetry.Gauge
	lat    *telemetry.Histogram
	serve0 *telemetry.Histogram
	serve1 *telemetry.Histogram
}

func newRuleSet() *ruleSet {
	reg := telemetry.NewRegistry()
	s := &ruleSet{
		reg:    reg,
		errs:   reg.NewCounter("client_errors_total", "test"),
		reqs:   reg.NewCounter("client_requests_total", "test"),
		faults: reg.NewCounter("fault_injections_total", "test"),
		bad:    reg.NewCounter("scrub_blocks_bad_total", "test"),
		rep:    reg.NewCounter("scrub_blocks_repaired_total", "test"),
		inline: reg.NewCounter("core_dp_inline_total", "test"),
		debt:   reg.NewGauge("rekey_pacer_debt_ns", "test"),
		lat:    reg.NewHistogram("fio_op_vtime", "test"),
	}
	sv := reg.NewHistogramVec("osd_serve_vtime", "test", "osd")
	s.serve0, s.serve1 = sv.With("0"), sv.With("1")
	s.hist = history.New(reg, 8)
	s.eng = NewEngine(s.hist)
	return s
}

func verdictOf(rep Report, name string) Verdict {
	for _, v := range rep.Verdicts {
		if v.Rule == name {
			return v
		}
	}
	return Verdict{Rule: "missing:" + name}
}

// TestDefaultRulesFire drives every default rule across one degraded
// window and checks the verdicts individually, then clears the causes
// and checks the engine goes healthy again.
func TestDefaultRulesFire(t *testing.T) {
	s := newRuleSet()

	// With a single sample no window exists: everything is healthy.
	s.hist.Record(0)
	if rep := s.eng.Eval(0); rep.Status != Healthy {
		t.Fatalf("empty history evaluated %v, want healthy:\n%s", rep.Status, rep)
	}

	// One bad 100 ms window: errors, faults, slow ops, stuck pacer debt,
	// unrepaired scrub findings, a saturated datapath queue, and osd 1
	// silent while clients are active.
	s.reqs.Add(100)
	s.errs.Add(50)
	s.faults.Add(20)
	s.bad.Add(3)
	s.inline.Add(50) // 500/s over the 100 ms window, ceiling is 100/s
	s.debt.Set(200 * 1e6)
	for i := 0; i < 100; i++ {
		s.lat.Observe(30 * ms) // p99 ceiling is 20 ms
		s.serve0.Observe(1 * ms)
	}
	s.hist.Record(vtime.Time(100 * 1e6))
	rep := s.eng.Eval(vtime.Time(100 * 1e6))

	if rep.Status != Critical {
		t.Fatalf("degraded window evaluated %v, want critical:\n%s", rep.Status, rep)
	}
	for _, want := range []struct {
		rule     string
		severity Status
	}{
		{"foreground-p99", Degraded},
		{"client-error-rate", Degraded},
		{"fault-injection-rate", Degraded},
		{"scrub-findings-outstanding", Critical},
		{"rekey-pacer-debt-growth", Degraded},
		{"osd-silence", Critical},
		{"datapath-queue-saturation", Degraded},
	} {
		v := verdictOf(rep, want.rule)
		if !v.Firing || v.Severity != want.severity {
			t.Errorf("rule %s: firing=%v severity=%v, want firing at %v\n%s",
				want.rule, v.Firing, v.Severity, want.severity, rep)
		}
	}
	if v := verdictOf(rep, "flatten-pacer-debt-growth"); v.Firing {
		t.Errorf("flatten-pacer-debt-growth fired with no flatten series:\n%s", rep)
	}
	if v := verdictOf(rep, "osd-silence"); !strings.Contains(v.Detail, `osd="1"`) {
		t.Errorf("osd-silence detail does not name the silent OSD: %q", v.Detail)
	}

	// Clear the causes over the next window: repairs catch up, debt
	// drains, the datapath queue drains, both OSDs serve, ops run fast,
	// no new errors or faults.
	s.reqs.Add(100)
	s.rep.Add(3)
	s.debt.Set(0)
	for i := 0; i < 100; i++ {
		s.lat.Observe(1 * ms)
		s.serve0.Observe(1 * ms)
		s.serve1.Observe(1 * ms)
	}
	s.hist.Record(vtime.Time(200 * 1e6))
	rep = s.eng.Eval(vtime.Time(200 * 1e6))
	if rep.Status != Healthy {
		t.Fatalf("recovered window evaluated %v, want healthy:\n%s", rep.Status, rep)
	}
	if got := len(rep.Firing()); got != 0 {
		t.Fatalf("%d rules still firing after recovery:\n%s", got, rep)
	}
}

// TestSilentWhileNeedsLoad pins the baseline gate: an idle cluster is
// not an OSD failure, so osd-silence must stay quiet when clients are
// quiet too.
func TestSilentWhileNeedsLoad(t *testing.T) {
	s := newRuleSet()
	s.hist.Record(0)
	// Nothing moves at all over the window.
	s.hist.Record(vtime.Time(100 * 1e6))
	rep := s.eng.Eval(vtime.Time(100 * 1e6))
	if v := verdictOf(rep, "osd-silence"); v.Firing {
		t.Fatalf("osd-silence fired on an idle cluster:\n%s", rep)
	}
}

// TestReportRendering covers the human surfaces rbdctl prints.
func TestReportRendering(t *testing.T) {
	s := newRuleSet()
	s.hist.Record(0)
	s.errs.Add(10)
	s.reqs.Add(10)
	s.serve0.Observe(1 * ms)
	s.serve1.Observe(1 * ms)
	s.hist.Record(vtime.Time(100 * 1e6))
	rep := s.eng.Eval(vtime.Time(100 * 1e6))
	out := rep.String()
	if !strings.Contains(out, "health: degraded") {
		t.Errorf("report header missing status: %q", out)
	}
	if !strings.Contains(out, "client-error-rate") || !strings.Contains(out, "threshold=") {
		t.Errorf("report missing verdict rows: %q", out)
	}
}

// TestMonitor covers the bundled Observe/Report surface and its meta
// telemetry.
func TestMonitor(t *testing.T) {
	reg := telemetry.NewRegistry()
	errs := reg.NewCounter("client_errors_total", "test")
	m := NewMonitor(reg)
	before := mEvals.Value()
	m.Observe(0)
	errs.Add(5)
	rep := m.Report(vtime.Time(100 * 1e6))
	if rep.Status != Healthy {
		// Only one sample windowed queries see nothing yet; Report's own
		// snapshotless eval must not fire.
		t.Fatalf("monitor with one sample evaluated %v:\n%s", rep.Status, rep)
	}
	m.Observe(vtime.Time(100 * 1e6))
	rep = m.Report(vtime.Time(100 * 1e6))
	if v := verdictOf(rep, "client-error-rate"); !v.Firing {
		t.Fatalf("client-error-rate did not fire through Monitor:\n%s", rep)
	}
	if mEvals.Value() != before+2 {
		t.Errorf("health_evals_total moved %d, want 2", mEvals.Value()-before)
	}
	if m.History().Samples() != 2 {
		t.Errorf("monitor recorded %d samples, want 2", m.History().Samples())
	}
}
