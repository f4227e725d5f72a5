package rados

// tailcapture_test.go pins the tail-latency capture contract: slow-op
// retention is exact, not sampled. With the tracer sampling 1-in-64 and
// a latency spike injected on one replica OSD, EVERY over-threshold
// write must land in the slow ring with its phase breakdown — every op's
// span holds every hop, sampled or not — and the critical-path analyzer
// must name the straggler OSD's replicate phase.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/telemetry/attr"
	"repro/internal/vtime"
)

// spikeOSD arms a permanent latency spike on every device of one OSD,
// leaving the rest of the cluster clean, and returns the disarm func.
func spikeOSD(c *Cluster, id int, delay time.Duration) func() {
	plan := fault.NewPlan(7, fault.Config{})
	osd := c.OSDs()[id]
	for _, st := range osd.Stores() {
		st.Disk().SetFaults(plan.InjectorWith("disk/"+st.Disk().Name(), fault.Config{
			Prob:  map[fault.Kind]float64{fault.LatencySpike: 1},
			Delay: delay,
		}))
	}
	return func() {
		for _, st := range osd.Stores() {
			st.Disk().SetFaults(nil)
		}
	}
}

// writeReplicateCount reads the always-on attribution count for the
// write class's replicate phase (0 when no traffic yet).
func writeReplicateCount() int64 {
	for _, op := range attr.Table().Ops {
		if op.Op != "write" {
			continue
		}
		for _, row := range op.Phases {
			if row.Phase == attr.PhaseReplicate {
				return row.Count
			}
		}
	}
	return 0
}

func TestTailCaptureLatencySpike(t *testing.T) {
	// Stride-misaligned sampling: 1-in-64 with ~20 ops means at
	// most one op is in the trace sample. Capture must not care.
	telemetry.Ops.SetSampleEvery(64)
	defer telemetry.Ops.SetSampleEvery(64)
	thresh := telemetry.Ops.SlowThreshold()

	attrBefore := writeReplicateCount()

	const spikedID = 2
	spiked := fmt.Sprintf("osd%d", spikedID)
	const writes = 20

	c, cl := newWireCluster(t, 3, 3)
	t.Run("typed", func(t *testing.T) {
		// 30 ms spike vs the 10 ms default threshold: with 3-way
		// replication on 3 OSDs every write touches the spiked OSD as
		// primary or replica, so every write is over threshold.
		disarm := spikeOSD(c, spikedID, 30*time.Millisecond)
		defer disarm()

		data := bytes.Repeat([]byte{0xC3}, 4096)
		targets := make(map[string]bool, writes)
		var at vtime.Time
		for i := 0; i < writes; i++ {
			obj := fmt.Sprintf("tail-typed-%d", i)
			targets[obj] = true
			// Sequential in virtual time: each write starts when the
			// previous finished, so no op queues on the client NIC and
			// the spike is the only latency source.
			_, end, err := cl.Operate(at, "rbd", obj, SnapContext{}, 0,
				[]Op{{Kind: OpWrite, Off: 0, Data: data}})
			if err != nil {
				t.Fatal(err)
			}
			at = end
		}

		slow := telemetry.Ops.Slow()
		captured := map[string]telemetry.SpanRecord{}
		unsampled := 0
		for _, rec := range slow {
			if targets[rec.Target] {
				captured[rec.Target] = rec
				if !rec.Sampled {
					unsampled++
				}
			}
		}

		// 100% capture: every over-threshold write is in the ring.
		if len(captured) != writes {
			t.Fatalf("captured %d of %d over-threshold writes; slow ring holds %d",
				len(captured), writes, len(slow))
		}
		// The point of the contract: nearly all of them were outside
		// the 1-in-64 trace sample and still carry full breakdowns.
		if unsampled == 0 {
			t.Fatalf("all %d captured writes were trace-sampled; stride misalignment not exercised", writes)
		}

		stragglers := 0
		for obj, rec := range captured {
			if rec.Duration() < thresh {
				t.Errorf("%s captured below threshold: %v < %v", obj, rec.Duration(), thresh)
			}
			p := profileOf(rec)
			// Phase breakdown: the primary's serve and replicate hops
			// and the spiked OSD's serve hop, on unsampled ops too.
			if !p.serves[spiked+":serve"] {
				t.Errorf("%s (sampled=%v) missing %s serve hop: serves=%v",
					obj, rec.Sampled, spiked, p.serves)
			}
			if len(p.replicates) != 1 {
				t.Errorf("%s (sampled=%v) carries %d replicate hops, want 1",
					obj, rec.Sampled, len(p.replicates))
			}

			cp := attr.AnalyzeSpan(rec)
			for name := range p.replicates {
				if strings.HasPrefix(name, spiked+":") {
					continue // spiked OSD was the primary: no straggler child
				}
				// Spiked OSD was a replica: the analyzer must name it as
				// the straggler and blame the replicate phase.
				stragglers++
				if cp.Straggler != spiked {
					t.Errorf("%s: straggler = %q, want %s\n%s", obj, cp.Straggler, spiked, cp)
				}
				if cp.Dominant != attr.PhaseReplicate {
					t.Errorf("%s: dominant = %v, want replicate\n%s", obj, cp.Dominant, cp)
				}
			}
		}
		// With 16 PGs over 3 OSDs some writes land the spiked OSD as a
		// replica, not the primary — the straggler shape must occur.
		if stragglers == 0 {
			t.Errorf("no write had %s as a replica straggler across %d objects", spiked, writes)
		}

		// Slow ring comes back sorted by span end, newest first.
		for i := 1; i < len(slow); i++ {
			if slow[i].End > slow[i-1].End {
				t.Errorf("slow ring not sorted by end: [%d]=%d after [%d]=%d",
					i, slow[i].End, i-1, slow[i-1].End)
			}
		}
	})

	// The always-on accounting saw every replicated write, spiked or
	// not — it is fed by the serve path, not the trace sample.
	if got := writeReplicateCount() - attrBefore; got < writes {
		t.Errorf("attribution recorded %d write replicate phases, want >= %d", got, writes)
	}
}
