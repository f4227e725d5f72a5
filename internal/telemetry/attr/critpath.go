package attr

// critpath.go reduces a finished trace span to its critical path. A
// replicated write's hop list (recorded into the op's span by the
// transport and every OSD that served it) is flat but structured by
// construction: the primary's serve hop starts before its replicate
// hop, and every replica leg's hops — transport and serve — nest
// inside the replicate window. The analyzer rebuilds that parent/child
// tree, names the straggler replica that bounded the fan-out, and
// reports the dominant phase — the "where did the time go" answer for
// one slow op.

import (
	"fmt"
	"strings"

	"repro/internal/telemetry"
	"repro/internal/vtime"
)

// Step is one hop of an analyzed span, annotated with its role.
type Step struct {
	Name      string
	Phase     Phase
	Start     vtime.Time
	End       vtime.Time
	Child     bool // replica-leg hop nested inside the replicate window
	Critical  bool // on the critical path
	Straggler bool // the replica serve that bounded the replicate window
}

// Duration is the step's elapsed virtual time.
func (s Step) Duration() vtime.Duration { return s.End.Sub(s.Start) }

// osd returns the step's OSD name ("osd3" from "osd3:serve"), or "".
func (s Step) osd() string {
	if i := strings.IndexByte(s.Name, ':'); i > 0 {
		return s.Name[:i]
	}
	return ""
}

// CriticalPath is the analyzer's verdict on one span.
type CriticalPath struct {
	Op        string
	Target    string
	Total     vtime.Duration
	Steps     []Step // hop tree in start order, children after their parent
	Dominant  Phase  // phase with the largest share of the span's hop time
	Straggler string // straggler replica OSD ("" when not a replicated write)
}

// AnalyzeSpan rebuilds rec's hop tree and extracts the critical path.
// Hops arrive in recording order (a hop is recorded when it ends), not
// start order; structure is recovered from the timestamps.
func AnalyzeSpan(rec telemetry.SpanRecord) CriticalPath {
	cp := CriticalPath{Op: rec.Op, Target: rec.Target, Total: rec.Duration(), Dominant: -1}
	if rec.NHops == 0 {
		return cp
	}

	steps := make([]Step, 0, rec.NHops)
	repl := -1 // index of the replicate hop in steps
	for i := 0; i < rec.NHops; i++ {
		h := rec.Hops[i]
		st := Step{Name: h.Name, Phase: PhaseOfHop(h.Name), Start: h.Start, End: h.End}
		steps = append(steps, st)
		if st.Phase == PhaseReplicate {
			repl = len(steps) - 1
		}
	}

	// Classify hops against the replicate window: every hop starting in
	// [Start, End) belongs to a replica leg and is a child. The window is
	// half-open because the client's msgr:resp starts exactly at its
	// end. The child serve ending last is the straggler that bounded the
	// fan-out.
	straggler := -1
	if repl >= 0 {
		w := steps[repl]
		for i := range steps {
			if i == repl || steps[i].Start < w.Start || steps[i].Start >= w.End {
				continue
			}
			steps[i].Child = true
			if steps[i].Phase == PhaseServe && (straggler < 0 || steps[i].End > steps[straggler].End) {
				straggler = i
			}
		}
		if straggler >= 0 {
			steps[straggler].Straggler = true
			cp.Straggler = steps[straggler].osd()
		}
	}

	// Dominant phase: largest total hop time per phase. Children are
	// excluded — their time is already covered by the replicate window
	// they nest in.
	var perPhase [NumPhases]vtime.Duration
	for _, st := range steps {
		if st.Phase < 0 || st.Child {
			continue
		}
		perPhase[st.Phase] += st.Duration()
	}
	for p := Phase(0); p < NumPhases; p++ {
		if perPhase[p] > 0 && (cp.Dominant < 0 || perPhase[p] > perPhase[cp.Dominant]) {
			cp.Dominant = p
		}
	}

	// Critical path: every top-level hop plus, inside the replicate
	// window, only the straggler.
	for i := range steps {
		if !steps[i].Child || steps[i].Straggler {
			steps[i].Critical = true
		}
	}

	// Stable order: by start time, children after parents on ties.
	for i := 1; i < len(steps); i++ {
		for j := i; j > 0 && less(steps[j], steps[j-1]); j-- {
			steps[j], steps[j-1] = steps[j-1], steps[j]
		}
	}
	cp.Steps = steps
	return cp
}

func less(a, b Step) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Child != b.Child {
		return !a.Child
	}
	return a.End < b.End
}

// String renders the hop tree with critical-path and straggler markers.
func (cp CriticalPath) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %v", cp.Op, cp.Target, cp.Total)
	if cp.Dominant >= 0 {
		fmt.Fprintf(&b, " dominant=%s", cp.Dominant)
	}
	if cp.Straggler != "" {
		fmt.Fprintf(&b, " straggler=%s", cp.Straggler)
	}
	b.WriteByte('\n')
	for _, st := range cp.Steps {
		indent := "  "
		if st.Child {
			indent = "      "
		}
		fmt.Fprintf(&b, "%s%-16s %v", indent, st.Name, st.Duration())
		switch {
		case st.Straggler:
			b.WriteString("  <- straggler")
		case st.Critical && st.Child:
			b.WriteString("  <- critical")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SlowOp pairs a retained slow-span record with its analysis.
type SlowOp struct {
	Record telemetry.SpanRecord
	Path   CriticalPath
}

// SlowOps returns the process tracer's retained slow spans, newest
// first, each with its critical path — the `rbdctl slow` surface.
func SlowOps() []SlowOp {
	recs := telemetry.Ops.Slow()
	out := make([]SlowOp, 0, len(recs))
	for _, r := range recs {
		out = append(out, SlowOp{Record: r, Path: AnalyzeSpan(r)})
	}
	return out
}
