package rados

// trace_test.go pins wire trace-context propagation: a replicated
// write's span must carry the transport hops plus a serve hop from the
// PRIMARY AND EVERY REPLICA and the primary's replication window — on
// the typed fast path and, crucially, on the byte path, where the hops
// can only have crossed inside the marshalled reply. Before trace ids
// rode the request header, replica forwards carried a nil span and the
// replica serve hops silently vanished from the timeline.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/vtime"
)

// hopProfile classifies one finished span's hops.
type hopProfile struct {
	msgrReq, msgrResp bool
	serves            map[string]bool
	replicates        map[string]bool
}

func profileOf(rec telemetry.SpanRecord) hopProfile {
	p := hopProfile{serves: map[string]bool{}, replicates: map[string]bool{}}
	for i := 0; i < rec.NHops; i++ {
		switch name := rec.Hops[i].Name; {
		case name == "msgr:req":
			p.msgrReq = true
		case name == "msgr:resp":
			p.msgrResp = true
		case strings.HasSuffix(name, ":serve"):
			p.serves[name] = true
		case strings.HasSuffix(name, ":replicate"):
			p.replicates[name] = true
		}
	}
	return p
}

func TestTraceCompletenessReplicatedWrite(t *testing.T) {
	telemetry.Ops.SetSampleEvery(1)
	defer telemetry.Ops.SetSampleEvery(64)

	_, typedCl := newWireCluster(t, 3, 3)
	_, rawCl := newWireCluster(t, 3, 3)
	byteCl := byteClient(rawCl)

	for _, tc := range []struct {
		path string
		cl   *Client
		// The typed messenger sees the span and records the transport
		// hops; the byte codec carries only the trace id, so its spans
		// hold the OSD-reported hops alone.
		wantMsgr bool
	}{
		{"typed", typedCl, true},
		{"bytes", byteCl, false},
	} {
		t.Run(tc.path, func(t *testing.T) {
			obj := fmt.Sprintf("trace-%s", tc.path)
			data := bytes.Repeat([]byte{0x5A}, 4096)
			if _, _, err := tc.cl.Operate(0, "rbd", obj, SnapContext{}, 0,
				[]Op{{Kind: OpWrite, Off: 0, Data: data}}); err != nil {
				t.Fatal(err)
			}

			var rec telemetry.SpanRecord
			found := false
			for _, r := range telemetry.Ops.Recent() {
				if r.Target == obj {
					rec, found = r, true
					break
				}
			}
			if !found {
				t.Fatalf("no finished span for %s among %d recent", obj, len(telemetry.Ops.Recent()))
			}

			p := profileOf(rec)
			// Replicas=3 on 3 OSDs: the primary and both replicas each
			// contribute their own per-OSD serve hop, and the primary
			// reports one replication window.
			if tc.wantMsgr && (!p.msgrReq || !p.msgrResp) {
				t.Errorf("transport hops missing: req=%v resp=%v", p.msgrReq, p.msgrResp)
			}
			if len(p.serves) != 3 {
				t.Errorf("span carries %d serve hops %v, want 3 (primary + 2 replicas)", len(p.serves), p.serves)
			}
			if len(p.replicates) != 1 {
				t.Errorf("span carries %d replicate hops %v, want 1", len(p.replicates), p.replicates)
			}
			for i := 0; i < rec.NHops; i++ {
				h := rec.Hops[i]
				if h.End < h.Start || vtime.Time(h.Start) < rec.Start {
					t.Errorf("hop %s has incoherent timeline [%d,%d] in span [%d,%d]",
						h.Name, h.Start, h.End, rec.Start, rec.End)
				}
			}
		})
	}
}

// TestReplicationCountedOnlyWhenForwarded pins osd_replications_total's
// definition ("primary-to-replica fan-outs issued"): a write whose
// replica set is the primary alone forwards nothing, so the counter, the
// osd_replicate_vtime histogram, the write/replicate attribution phase
// and the span's hop set must not record a replication; on a 3-replica
// cluster every write records exactly one.
func TestReplicationCountedOnlyWhenForwarded(t *testing.T) {
	telemetry.Ops.SetSampleEvery(1)
	defer telemetry.Ops.SetSampleEvery(64)

	const writes = 8
	for _, tc := range []struct {
		osds, replicas int
		want           int64 // replications recorded per write
	}{
		{1, 1, 0},
		{3, 3, 1},
	} {
		t.Run(fmt.Sprintf("replicas=%d", tc.replicas), func(t *testing.T) {
			c, cl := newWireCluster(t, tc.osds, tc.replicas)
			counted := func() (n, observed int64) {
				for _, o := range c.OSDs() {
					n += o.met.replications.Value()
					observed += o.met.replLat.Snapshot().Count
				}
				return n, observed
			}
			n0, obs0 := counted()
			ph0 := writeReplicateCount()
			for i := 0; i < writes; i++ {
				obj := fmt.Sprintf("fwd-r%d-%d", tc.replicas, i)
				if _, _, err := cl.Operate(0, "rbd", obj, SnapContext{}, 0,
					[]Op{{Kind: OpWrite, Off: 0, Data: make([]byte, 4096)}}); err != nil {
					t.Fatal(err)
				}
			}
			n1, obs1 := counted()
			want := tc.want * writes
			if got := n1 - n0; got != want {
				t.Errorf("osd_replications_total moved by %d, want %d", got, want)
			}
			if got := obs1 - obs0; got != want {
				t.Errorf("osd_replicate_vtime count moved by %d, want %d", got, want)
			}
			if got := writeReplicateCount() - ph0; got != want {
				t.Errorf("write/replicate phase count moved by %d, want %d", got, want)
			}
			spans := 0
			for _, rec := range telemetry.Ops.Recent() {
				if !strings.HasPrefix(rec.Target, fmt.Sprintf("fwd-r%d-", tc.replicas)) {
					continue
				}
				spans++
				if got := int64(len(profileOf(rec).replicates)); got != tc.want {
					t.Errorf("span %s carries %d replicate hops, want %d", rec.Target, got, tc.want)
				}
			}
			if spans != writes {
				t.Fatalf("%d finished spans for %d writes", spans, writes)
			}
		})
	}
}

// TestFailedOpSpanCoversItsHops pins the one failure rule of the client
// tail: an op the transport failed is finished at, and returns, the time
// the transport got to — the request's arrival for a reset (the server
// never saw it), the handler's completion for a dropped reply (it ran) —
// so the span never ends before its own msgr:req hop.
func TestFailedOpSpanCoversItsHops(t *testing.T) {
	telemetry.Ops.SetSampleEvery(1)
	defer telemetry.Ops.SetSampleEvery(64)

	for _, kind := range []fault.Kind{fault.ConnReset, fault.DropReply} {
		t.Run(kind.String(), func(t *testing.T) {
			c, cl := newWireCluster(t, 1, 1)
			c.OSDs()[0].Server().SetFaults(fault.NewPlan(1, fault.Config{
				Prob: map[fault.Kind]float64{kind: 1},
			}).Injector("osd0/msgr"))

			const at = vtime.Time(1000)
			obj := "failed-" + kind.String()
			_, end, err := cl.Operate(at, "rbd", obj, SnapContext{}, 0,
				[]Op{{Kind: OpWrite, Off: 0, Data: make([]byte, 4096)}})
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("err = %v, want an injected fault", err)
			}
			if end <= at {
				t.Errorf("returned time %d, want past the issue time %d", end, at)
			}
			for _, rec := range telemetry.Ops.Recent() {
				if rec.Target != obj {
					continue
				}
				if rec.End != end {
					t.Errorf("span ends at %d, op returned %d", rec.End, end)
				}
				if rec.NHops == 0 {
					t.Error("span lost its msgr:req hop")
				}
				for _, h := range rec.Hops[:rec.NHops] {
					if h.End > rec.End {
						t.Errorf("hop %s ends at %d, after its span (%d)", h.Name, h.End, rec.End)
					}
				}
				return
			}
			t.Fatalf("no finished span for %s", obj)
		})
	}
}
