package attr

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestAttributionAllocBudget pins the recording path at zero
// allocations: attribution is always-on for 100% of traffic, so any
// alloc here is an alloc per op across the whole datapath. CI runs this
// test by name in the alloc-budget step.
func TestAttributionAllocBudget(t *testing.T) {
	if n := testing.AllocsPerRun(1000, func() {
		Observe(OpWrite, PhaseServe, 1000)
		Observe(OpRead, PhaseOpen, 500)
		ObserveOp(OpWrite, 2000)
	}); n != 0 {
		t.Fatalf("attribution recording allocated %.1f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		PhaseOfHop("osd3:serve")
		PhaseOfHop("msgr:req")
	}); n != 0 {
		t.Fatalf("PhaseOfHop allocated %.1f per run, want 0", n)
	}
}

// TestObserveAndTable drives known observations through the recording
// path and checks they come back out of Table with shares sorted
// descending. Counts are checked as deltas: the package-level series
// are shared across the test binary.
func TestObserveAndTable(t *testing.T) {
	beforeServe := phases[OpWrite][PhaseServe].Snapshot().Count
	beforeOps := opTotal[OpWrite].Snapshot().Count

	for i := 0; i < 10; i++ {
		Observe(OpWrite, PhaseServe, 8*1e6) // 80 ms total
		Observe(OpWrite, PhaseSeal, 1*1e6)  // 10 ms total
		Observe(OpWrite, PhaseWire, 1*1e6)  // 10 ms total
		ObserveOp(OpWrite, 10*1e6)
	}

	if got := phases[OpWrite][PhaseServe].Snapshot().Count - beforeServe; got != 10 {
		t.Fatalf("serve phase recorded %d observations, want 10", got)
	}
	if got := opTotal[OpWrite].Snapshot().Count - beforeOps; got != 10 {
		t.Fatalf("op total recorded %d observations, want 10", got)
	}

	rep := Table()
	var wr *OpTable
	for i := range rep.Ops {
		if rep.Ops[i].Op == "write" {
			wr = &rep.Ops[i]
		}
	}
	if wr == nil {
		t.Fatalf("write class missing from report: %s", rep)
	}
	if len(wr.Phases) == 0 || wr.Phases[0].Phase != PhaseServe {
		t.Fatalf("dominant write phase is not serve: %s", rep)
	}
	for i := 1; i < len(wr.Phases); i++ {
		if wr.Phases[i].Share > wr.Phases[i-1].Share {
			t.Fatalf("phase rows not sorted by share desc: %s", rep)
		}
	}
	if !strings.Contains(rep.String(), "serve") || !strings.Contains(rep.String(), "#") {
		t.Fatalf("report rendering missing phase rows or share bars:\n%s", rep)
	}
}

// TestObserveDropsOutOfRange pins the input guard: out-of-range classes
// and phases are dropped silently, never indexed.
func TestObserveDropsOutOfRange(t *testing.T) {
	before := phases[OpRead][PhaseDevice].Snapshot().Count
	Observe(-1, PhaseDevice, 1000)
	Observe(NumOps, PhaseDevice, 1000)
	Observe(OpRead, Phase(-1), 1000)
	Observe(OpRead, NumPhases, 1000)
	ObserveOp(-1, 1000)
	ObserveOp(NumOps, 1000)
	if got := phases[OpRead][PhaseDevice].Snapshot().Count; got != before {
		t.Fatalf("out-of-range Observe recorded (%d -> %d)", before, got)
	}
}

func TestPhaseOfHop(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Phase
	}{
		{"osd0:serve", PhaseServe},
		{"osd12:serve", PhaseServe},
		{"osd0:replicate", PhaseReplicate},
		{"msgr:req", PhaseWire},
		{"msgr:resp", PhaseWire},
		{"marshal", PhaseMarshal},
		{"mystery", -1},
	} {
		if got := PhaseOfHop(tc.name); got != tc.want {
			t.Errorf("PhaseOfHop(%q) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// replicatedWriteSpan builds the canonical hop shape of a traced
// replicated write: request transit, primary serve, fan-out window with
// two replica serves nested inside (osd2 the straggler), reply transit.
func replicatedWriteSpan() telemetry.SpanRecord {
	rec := telemetry.SpanRecord{
		Op: "write", Target: "rbd/img/obj.3",
		Start: 0, End: 1000, Sampled: true,
	}
	hops := []telemetry.Hop{
		{Name: "msgr:req", Start: 0, End: 100},
		{Name: "osd0:serve", Start: 100, End: 300},
		// Harvest order interleaves under concurrency: children before
		// the replicate window they nest in.
		{Name: "osd2:serve", Start: 320, End: 880},
		{Name: "osd1:serve", Start: 310, End: 500},
		{Name: "osd0:replicate", Start: 300, End: 900},
		{Name: "msgr:resp", Start: 900, End: 1000},
	}
	for i, h := range hops {
		rec.Hops[i] = h
	}
	rec.NHops = len(hops)
	return rec
}

// TestAnalyzeSpan pins the critical-path analyzer: parent/child
// recovery from timestamps alone, straggler naming, dominant phase, and
// start-ordered rendering.
func TestAnalyzeSpan(t *testing.T) {
	cp := AnalyzeSpan(replicatedWriteSpan())

	if cp.Straggler != "osd2" {
		t.Fatalf("straggler = %q, want osd2\n%s", cp.Straggler, cp)
	}
	if cp.Dominant != PhaseReplicate {
		t.Fatalf("dominant = %v, want replicate\n%s", cp.Dominant, cp)
	}
	if cp.Total != 1000 {
		t.Fatalf("total = %v, want 1000", cp.Total)
	}

	// Steps come back in start order with children flagged.
	wantOrder := []string{"msgr:req", "osd0:serve", "osd0:replicate", "osd1:serve", "osd2:serve", "msgr:resp"}
	if len(cp.Steps) != len(wantOrder) {
		t.Fatalf("got %d steps, want %d\n%s", len(cp.Steps), len(wantOrder), cp)
	}
	for i, want := range wantOrder {
		if cp.Steps[i].Name != want {
			t.Fatalf("step %d = %s, want %s\n%s", i, cp.Steps[i].Name, want, cp)
		}
	}
	for _, st := range cp.Steps {
		wantChild := st.Name == "osd1:serve" || st.Name == "osd2:serve"
		if st.Child != wantChild {
			t.Errorf("step %s child=%v, want %v", st.Name, st.Child, wantChild)
		}
		wantCritical := !wantChild || st.Name == "osd2:serve"
		if st.Critical != wantCritical {
			t.Errorf("step %s critical=%v, want %v", st.Name, st.Critical, wantCritical)
		}
	}

	out := cp.String()
	if !strings.Contains(out, "straggler=osd2") || !strings.Contains(out, "<- straggler") {
		t.Errorf("rendering missing straggler markers:\n%s", out)
	}
	if !strings.Contains(out, "dominant=replicate") {
		t.Errorf("rendering missing dominant phase:\n%s", out)
	}
}

// TestAnalyzeSpanReplicaLegWire feeds the analyzer the hop list a
// 3-replica write records, in recording order: each replica leg's
// msgr:req, serve and msgr:resp nest inside the replicate window, and
// their wire time (550) plus the client's (200) exceeds the window
// (600). Every hop starting in [replicate.Start, replicate.End) is a
// child, so the legs' wire time is not counted twice and replicate
// dominates. The
// client's msgr:resp starts exactly at the window's end and stays
// top-level.
func TestAnalyzeSpanReplicaLegWire(t *testing.T) {
	rec := telemetry.SpanRecord{Op: "write", Target: "rbd/img/obj.5", Start: 0, End: 1000}
	hops := []telemetry.Hop{
		{Name: "msgr:req", Start: 0, End: 100},
		{Name: "msgr:req", Start: 300, End: 400},
		{Name: "osd1:serve", Start: 400, End: 500},
		{Name: "msgr:resp", Start: 500, End: 600},
		{Name: "msgr:req", Start: 300, End: 450},
		{Name: "osd2:serve", Start: 450, End: 700},
		{Name: "msgr:resp", Start: 700, End: 900},
		{Name: "osd0:serve", Start: 100, End: 300},
		{Name: "osd0:replicate", Start: 300, End: 900},
		{Name: "msgr:resp", Start: 900, End: 1000},
	}
	for i, h := range hops {
		rec.Hops[i] = h
	}
	rec.NHops = len(hops)

	cp := AnalyzeSpan(rec)
	if cp.Dominant != PhaseReplicate {
		t.Fatalf("dominant = %v, want replicate\n%s", cp.Dominant, cp)
	}
	if cp.Straggler != "osd2" {
		t.Fatalf("straggler = %q, want osd2\n%s", cp.Straggler, cp)
	}
	children := 0
	for _, st := range cp.Steps {
		inWindow := st.Name != "osd0:replicate" && st.Start >= 300 && st.Start < 900
		if st.Child != inWindow {
			t.Errorf("step %s [%d,%d) child=%v, want %v", st.Name, st.Start, st.End, st.Child, inWindow)
		}
		if st.Child {
			children++
		}
		if st.Name == "msgr:resp" && st.Start == 900 && (st.Child || !st.Critical) {
			t.Errorf("client msgr:resp at the window end: child=%v critical=%v, want top-level", st.Child, st.Critical)
		}
	}
	if children != 6 {
		t.Errorf("%d children, want 6 (three hops per replica leg)\n%s", children, cp)
	}
	// The straggler is osd2's whole leg: its request transit, serve and
	// reply transit are all on the critical path, osd1's leg is not.
	for _, st := range cp.Steps {
		if !st.Child {
			continue
		}
		wantCritical := st.Start == 300 && st.End == 450 || st.Name == "osd2:serve" || st.Start == 700 && st.End == 900
		if st.Critical != wantCritical {
			t.Errorf("step %s [%d,%d) critical=%v, want %v\n%s", st.Name, st.Start, st.End, st.Critical, wantCritical, cp)
		}
	}
}

// TestAnalyzeSpanUnreplicated covers the read shape: no replicate
// window, no children, dominant is just the largest hop.
func TestAnalyzeSpanUnreplicated(t *testing.T) {
	rec := telemetry.SpanRecord{Op: "read", Target: "rbd/img/obj.0", Start: 0, End: 500}
	hops := []telemetry.Hop{
		{Name: "msgr:req", Start: 0, End: 50},
		{Name: "osd1:serve", Start: 50, End: 450},
		{Name: "msgr:resp", Start: 450, End: 500},
	}
	for i, h := range hops {
		rec.Hops[i] = h
	}
	rec.NHops = len(hops)

	cp := AnalyzeSpan(rec)
	if cp.Straggler != "" {
		t.Fatalf("unreplicated span named straggler %q", cp.Straggler)
	}
	if cp.Dominant != PhaseServe {
		t.Fatalf("dominant = %v, want serve", cp.Dominant)
	}
	for _, st := range cp.Steps {
		if st.Child || !st.Critical {
			t.Fatalf("unreplicated step %s child=%v critical=%v", st.Name, st.Child, st.Critical)
		}
	}

	// No hops at all: analyzer degrades to totals only.
	empty := AnalyzeSpan(telemetry.SpanRecord{Op: "read", Start: 0, End: 9})
	if len(empty.Steps) != 0 || empty.Dominant != -1 {
		t.Fatalf("hopless span produced steps: %+v", empty)
	}
}
