// Package attr is the tail-latency attribution plane on top of
// internal/telemetry: always-on per-phase vtime accounting for 100% of
// traffic (not the tracer's 1-in-N sample), plus the critical-path
// analyzer (critpath.go) that reduces a finished trace span to the
// chain of hops that actually bounded its latency.
//
// The phase model slices one op's wall time into the stages the paper's
// cost model charges: client queue/admission, marshal, wire transit,
// OSD serve, replicate fan-out, seal/open crypto, and device I/O. Each
// instrumented layer feeds its own phase at the point where the vtime
// is charged (OSD serve path, msgr transmit, core crypto charge,
// simdisk command), so the numbers come from the source of truth rather
// than from subtracting trace hops. Ops are bucketed into three classes
// (read/write/other) to keep series cardinality fixed.
//
// Recording is the hot path: two bounds checks and a histogram Observe —
// no locks, no allocation (TestAttributionAllocBudget pins
// AllocsPerRun==0). All series are pre-resolved into arrays at package
// init, and there is no off switch: always-on is the point.
package attr

import (
	"fmt"
	"strings"

	"repro/internal/telemetry"
	"repro/internal/vtime"
)

// Phase enumerates the stages an op's virtual time is attributed to.
type Phase int

// Phases, in rough datapath order.
const (
	PhaseQueue     Phase = iota // admission delay: OSD CPU queue, pool backpressure
	PhaseMarshal                // request/reply codec work (vtime-free in the cost model)
	PhaseWire                   // msgr link transit, both directions
	PhaseServe                  // OSD serve: lock, execute, local commit
	PhaseReplicate              // primary-copy fan-out window (slowest replica bounds it)
	PhaseSeal                   // client-side seal crypto (writes)
	PhaseOpen                   // client-side open crypto (reads)
	PhaseDevice                 // simulated device command time
	NumPhases                   // count, not a phase
)

var phaseNames = [NumPhases]string{
	"queue", "marshal", "wire", "serve", "replicate", "seal", "open", "device",
}

// String implements fmt.Stringer (the `phase` label value).
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

// Op classes. Three buckets, not the ten rados op kinds: attribution
// answers "where does a read/write spend its time", and the fixed set
// bounds series cardinality at NumOps*NumPhases.
const (
	OpRead = iota
	OpWrite
	OpOther
	NumOps
)

var opNames = [NumOps]string{"read", "write", "other"}

// OpName returns the class's `op` label value.
func OpName(op int) string {
	if op < 0 || op >= NumOps {
		return "other"
	}
	return opNames[op]
}

// Pre-resolved series: setup (label resolution, registration) happens
// once at package init so Observe is a pure array index + atomic adds.
var (
	opTotal [NumOps]*telemetry.Histogram
	phases  [NumOps][NumPhases]*telemetry.Histogram
)

func init() {
	tot := telemetry.NewHistogramVec("attr_op_vtime",
		"end-to-end op virtual time by attribution class (always-on, 100% of traffic)", "op")
	ph := telemetry.NewHistogramVec("attr_phase_vtime",
		"per-phase op virtual time by attribution class and datapath phase (always-on)", "op", "phase")
	for op := 0; op < NumOps; op++ {
		opTotal[op] = tot.With(opNames[op])
		for p := Phase(0); p < NumPhases; p++ {
			phases[op][p] = ph.With(opNames[op], p.String())
		}
	}
}

// Observe attributes d of virtual time to one phase of one op class.
// Zero-alloc, lock-free; out-of-range classes/phases are dropped.
func Observe(op int, p Phase, d vtime.Duration) {
	if op < 0 || op >= NumOps || p < 0 || p >= NumPhases {
		return
	}
	phases[op][p].Observe(d)
}

// ObserveOp records one op's end-to-end virtual time for its class.
func ObserveOp(op int, d vtime.Duration) {
	if op < 0 || op >= NumOps {
		return
	}
	opTotal[op].Observe(d)
}

// PhaseOfHop maps a trace-hop name ("osd3:serve", "msgr:req") to the
// phase it spends time in, or -1 for unrecognized names.
func PhaseOfHop(name string) Phase {
	switch {
	case strings.HasSuffix(name, ":serve"):
		return PhaseServe
	case strings.HasSuffix(name, ":replicate"):
		return PhaseReplicate
	case name == "msgr:req" || name == "msgr:resp":
		return PhaseWire
	case name == "marshal":
		return PhaseMarshal
	}
	return -1
}

// PhaseRow is one phase's aggregate within an op class.
type PhaseRow struct {
	Phase Phase
	Count int64
	Sum   vtime.Duration
	P50   vtime.Duration
	P99   vtime.Duration
	Share float64 // fraction of the class's summed phase vtime
}

// OpTable is one op class's attribution table.
type OpTable struct {
	Op     string
	Count  int64          // ops observed end-to-end
	Total  vtime.Duration // summed end-to-end vtime
	P50    vtime.Duration // end-to-end quantiles
	P99    vtime.Duration
	Phases []PhaseRow // phases with at least one observation, by share desc
}

// Report is a point-in-time attribution snapshot across op classes.
type Report struct {
	Ops []OpTable // classes with traffic, in class order
}

// Table snapshots the always-on attribution series into a report.
func Table() Report {
	var rep Report
	for op := 0; op < NumOps; op++ {
		ts := opTotal[op].Snapshot()
		var rows []PhaseRow
		var phaseSum vtime.Duration
		for p := Phase(0); p < NumPhases; p++ {
			s := phases[op][p].Snapshot()
			if s.Count == 0 {
				continue
			}
			rows = append(rows, PhaseRow{
				Phase: p,
				Count: s.Count,
				Sum:   s.Sum,
				P50:   s.Quantile(0.50),
				P99:   s.Quantile(0.99),
			})
			phaseSum += s.Sum
		}
		if ts.Count == 0 && len(rows) == 0 {
			continue
		}
		for i := range rows {
			if phaseSum > 0 {
				rows[i].Share = float64(rows[i].Sum) / float64(phaseSum)
			}
		}
		for i := 1; i < len(rows); i++ { // insertion sort by share desc; N<=8
			for j := i; j > 0 && rows[j].Share > rows[j-1].Share; j-- {
				rows[j], rows[j-1] = rows[j-1], rows[j]
			}
		}
		rep.Ops = append(rep.Ops, OpTable{
			Op:     OpName(op),
			Count:  ts.Count,
			Total:  ts.Sum,
			P50:    ts.Quantile(0.50),
			P99:    ts.Quantile(0.99),
			Phases: rows,
		})
	}
	return rep
}

// String renders the report as an aligned text table with share bars —
// the `fiosim -attr` / `rbdctl slow` surface.
func (r Report) String() string {
	if len(r.Ops) == 0 {
		return "attribution: no traffic recorded\n"
	}
	var b strings.Builder
	for _, t := range r.Ops {
		fmt.Fprintf(&b, "%s: %d ops, total %v, p50 %v, p99 %v\n",
			t.Op, t.Count, t.Total, t.P50, t.P99)
		for _, row := range t.Phases {
			fmt.Fprintf(&b, "  %-9s %5.1f%% %-20s p50 %-10v p99 %-10v (%d obs)\n",
				row.Phase, row.Share*100, shareBar(row.Share), row.P50, row.P99, row.Count)
		}
	}
	return b.String()
}

// shareBar renders a 20-char bar for a [0,1] share.
func shareBar(share float64) string {
	n := int(share*20 + 0.5)
	if n > 20 {
		n = 20
	}
	return strings.Repeat("#", n)
}
