// Package health is the declarative SLO/health engine: rules evaluated
// over the history ring's windowed queries, producing one verdict per
// rule plus an overall cluster status. Rules are data, not code — a
// rule names a metric family, a window, a threshold and a severity, and
// the engine computes the rest — so the rule set (foreground p99
// ceiling, client-error and fault-injection rates, scrub findings
// outstanding, pacer debt growth, OSD silence, datapath backpressure)
// is one slice literal, DefaultRules, over one window.
//
// Evaluation is a monitoring-path operation, not a datapath one: it
// walks the history under its lock and formats verdict details, so it
// may allocate. The recording side it depends on (history.Record,
// Journal.Append) stays alloc-free.
package health

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/telemetry"
	"repro/internal/telemetry/history"
	"repro/internal/vtime"
)

// Status is an overall or per-rule health level, ordered by severity.
type Status int

// Status levels. A firing rule raises the overall status to at least
// its severity; Healthy means no rule fired.
const (
	Healthy Status = iota
	Degraded
	Critical
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Critical:
		return "critical"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// RuleKind enumerates the rule grammar: what the engine computes from
// the history before comparing against the threshold.
type RuleKind int

const (
	// RateAbove fires when the family's summed per-virtual-second rate
	// over the window exceeds Threshold.
	RateAbove RuleKind = iota
	// QuantileAbove fires when the q-quantile of the family's
	// observations inside the window (histogram-delta, merged across
	// series) exceeds Threshold virtual nanoseconds.
	QuantileAbove
	// GaugeGrowth fires when any series of the family grew by more than
	// Threshold over the window (pacer debt creep).
	GaugeGrowth
	// GaugeAbove fires when the family's live value, summed across
	// series, exceeds Threshold (scrub's unrepaired bad blocks).
	GaugeAbove
	// SilentWhile fires when some series of the family recorded no
	// movement over the window while the Baseline family's summed delta
	// was positive (an OSD gone quiet under client load).
	SilentWhile
)

// Rule is one declarative health check.
type Rule struct {
	Name      string         // verdict key, stable across evals
	Kind      RuleKind       //
	Family    string         // subject metric family
	Baseline  string         // SilentWhile's activity witness
	Q         float64        // quantile for QuantileAbove
	Window    vtime.Duration // query window for windowed kinds
	Threshold float64        // rate: per virtual second; quantile/growth: value units; silence: series count
	Severity  Status         // status contributed when firing
}

// Verdict is one rule's evaluation result.
type Verdict struct {
	Rule      string
	Firing    bool
	Severity  Status
	Value     float64
	Threshold float64
	Detail    string
}

// String renders one verdict table row.
func (v Verdict) String() string {
	state := "ok"
	if v.Firing {
		state = v.Severity.String()
	}
	s := fmt.Sprintf("%-28s %-9s value=%.6g threshold=%.6g", v.Rule, state, v.Value, v.Threshold)
	if v.Detail != "" {
		s += " (" + v.Detail + ")"
	}
	return s
}

// Report is one full evaluation: the overall status plus every rule's
// verdict in rule order.
type Report struct {
	At       vtime.Time
	Status   Status
	Verdicts []Verdict
}

// Firing returns the verdicts that fired.
func (r Report) Firing() []Verdict {
	var out []Verdict
	for _, v := range r.Verdicts {
		if v.Firing {
			out = append(out, v)
		}
	}
	return out
}

// String renders the verdict table with the overall status on top.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "health: %s (t=%d)\n", r.Status, int64(r.At))
	for _, v := range r.Verdicts {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	return strings.TrimRight(b.String(), "\n")
}

// Engine meta-telemetry, registered in the Default registry (shared by
// every engine in the process; the most recent Eval wins the gauges).
var (
	mStatus = telemetry.NewGauge("health_status", "overall health from the last evaluation (0 healthy, 1 degraded, 2 critical)")
	mFiring = telemetry.NewGauge("health_rules_firing", "rules firing in the last evaluation")
	mEvals  = telemetry.NewCounter("health_evals_total", "health rule evaluations")
)

// Engine evaluates DefaultRules over a history ring.
type Engine struct {
	hist  *history.History
	rules []Rule
}

// NewEngine builds an engine over h.
func NewEngine(h *history.History) *Engine {
	return &Engine{hist: h, rules: DefaultRules()}
}

// Eval evaluates every rule against the history as of at.
func (e *Engine) Eval(at vtime.Time) Report {
	rep := Report{At: at, Verdicts: make([]Verdict, 0, len(e.rules))}
	for _, r := range e.rules {
		v := e.eval(r)
		if v.Firing && v.Severity > rep.Status {
			rep.Status = v.Severity
		}
		rep.Verdicts = append(rep.Verdicts, v)
	}
	mStatus.Set(int64(rep.Status))
	mFiring.Set(int64(len(rep.Firing())))
	mEvals.Inc()
	return rep
}

func (e *Engine) eval(r Rule) Verdict {
	v := Verdict{Rule: r.Name, Severity: r.Severity, Threshold: r.Threshold}
	h := e.hist
	switch r.Kind {
	case RateAbove:
		v.Value = h.RateSum(r.Family, r.Window)
		v.Detail = fmt.Sprintf("%s/s over %v", r.Family, r.Window)
	case QuantileAbove:
		v.Value = float64(h.QuantileOver(r.Family, r.Q, r.Window))
		v.Detail = fmt.Sprintf("p%g(%s) over %v", r.Q*100, r.Family, r.Window)
	case GaugeGrowth:
		v.Value = float64(h.DeltaMax(r.Family, r.Window))
		v.Detail = fmt.Sprintf("max Δ%s over %v", r.Family, r.Window)
	case GaugeAbove:
		v.Value = float64(h.LastSum(r.Family))
		v.Detail = r.Family
	case SilentWhile:
		if h.DeltaSum(r.Baseline, r.Window) <= 0 {
			v.Detail = fmt.Sprintf("%s idle over %v", r.Baseline, r.Window)
			return v
		}
		var silent []string
		h.EachDelta(r.Family, r.Window, func(labels string, delta int64, ok bool) {
			if ok && delta == 0 {
				silent = append(silent, labels)
			}
		})
		v.Value = float64(len(silent))
		if len(silent) > 0 {
			v.Detail = fmt.Sprintf("silent under load: %s", strings.Join(silent, " "))
		} else {
			v.Detail = fmt.Sprintf("all %s series moving", r.Family)
		}
		v.Firing = v.Value > r.Threshold
		return v
	}
	v.Firing = v.Value > r.Threshold
	return v
}

// DefaultWindow is the query window the rule set evaluates over:
// 100 ms of virtual time, a few thousand ops at the paper's simulated
// service times.
const DefaultWindow = vtime.Duration(100 * 1e6)

// DefaultRules is the cluster rule set every Engine evaluates.
func DefaultRules() []Rule {
	const w = DefaultWindow
	return []Rule{
		// Foreground latency: p99 of the fio op histogram inside the
		// window must stay under 20 ms virtual.
		{Name: "foreground-p99", Kind: QuantileAbove, Family: "fio_op_vtime",
			Q: 0.99, Window: w, Threshold: 20 * 1e6, Severity: Degraded},
		// Client-visible errors are never routine.
		{Name: "client-error-rate", Kind: RateAbove, Family: "client_errors_total",
			Window: w, Threshold: 1, Severity: Degraded},
		// Injected faults firing means a chaos plan (or a real failure
		// domain) is active.
		{Name: "fault-injection-rate", Kind: RateAbove, Family: "fault_injections_total",
			Window: w, Threshold: 1, Severity: Degraded},
		// An image's last finished scrub found corruption it could not
		// repair.
		{Name: "scrub-findings-outstanding", Kind: GaugeAbove, Family: "scrub_blocks_outstanding",
			Threshold: 0, Severity: Critical},
		// Background walkers accumulating pacer debt faster than they
		// drain it will starve or stampede.
		{Name: "rekey-pacer-debt-growth", Kind: GaugeGrowth, Family: "rekey_pacer_debt_ns",
			Window: w, Threshold: 100 * 1e6, Severity: Degraded},
		{Name: "flatten-pacer-debt-growth", Kind: GaugeGrowth, Family: "flatten_pacer_debt_ns",
			Window: w, Threshold: 100 * 1e6, Severity: Degraded},
		{Name: "scrub-pacer-debt-growth", Kind: GaugeGrowth, Family: "scrub_pacer_debt_ns",
			Window: w, Threshold: 100 * 1e6, Severity: Degraded},
		// An OSD serving nothing while clients are active is down or
		// partitioned.
		{Name: "osd-silence", Kind: SilentWhile, Family: "osd_serve_vtime",
			Baseline: "client_requests_total", Window: w, Threshold: 0, Severity: Critical},
		// Why-signals from the attribution plane. Sustained datapath
		// pool saturation: chunks degrading to inline execution because
		// the queue is full (core_dp_inline_total counts them).
		{Name: "datapath-queue-saturation", Kind: RateAbove, Family: "core_dp_inline_total",
			Window: w, Threshold: 100, Severity: Degraded},
	}
}

// Monitor bundles a history ring with an engine behind the two calls
// the surfaces need: Observe (refresh + record a snapshot) and Report
// (evaluate). Safe for concurrent use.
type Monitor struct {
	mu   sync.Mutex
	hist *history.History
	eng  *Engine
}

// NewMonitor builds a monitor over reg with a history ring of
// history.DefaultSlots.
func NewMonitor(reg *telemetry.Registry) *Monitor {
	h := history.New(reg, history.DefaultSlots)
	return &Monitor{hist: h, eng: NewEngine(h)}
}

// Observe picks up newly registered series and records one snapshot at
// virtual time at.
func (m *Monitor) Observe(at vtime.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.hist.Refresh()
	m.hist.Record(at)
}

// Report evaluates the rule set as of at.
func (m *Monitor) Report(at vtime.Time) Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.eng.Eval(at)
}

// History exposes the underlying ring (rbdctl top reads windowed
// queries straight off it).
func (m *Monitor) History() *history.History { return m.hist }
