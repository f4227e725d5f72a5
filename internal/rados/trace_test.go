package rados

// trace_test.go pins the op span as the one trace context: a
// replicated write's span must carry the transport hops of every leg, a
// serve hop from the PRIMARY AND EVERY REPLICA and the primary's
// replication window, all recorded in place by the component that did
// the work — and none of it may move virtual time.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/vtime"
)

// hopProfile classifies one finished span's hops.
type hopProfile struct {
	serves, replicates map[string]bool
}

func profileOf(rec telemetry.SpanRecord) hopProfile {
	p := hopProfile{serves: map[string]bool{}, replicates: map[string]bool{}}
	for i := 0; i < rec.NHops; i++ {
		switch name := rec.Hops[i].Name; {
		case strings.HasSuffix(name, ":serve"):
			p.serves[name] = true
		case strings.HasSuffix(name, ":replicate"):
			p.replicates[name] = true
		}
	}
	return p
}

// TestTraceCompletenessReplicatedWrite asserts the full breakdown of a
// 3-replica typed write: the client's msgr:req and msgr:resp, the
// primary's serve and replicate, and msgr:req, serve and msgr:resp per
// replica — 10 hops. Sampling only picks the ring a span lands in: with
// the slow threshold at 0, an unsampled op's span files into the slow
// ring with the same 10 hops.
func TestTraceCompletenessReplicatedWrite(t *testing.T) {
	defer telemetry.Ops.SetSampleEvery(64)
	defer telemetry.Ops.SetSlowThreshold(telemetry.Ops.SlowThreshold())

	_, cl := newWireCluster(t, 3, 3)
	for _, tc := range []struct {
		name   string
		every  int64
		thresh vtime.Duration
		ring   func() []telemetry.SpanRecord
	}{
		{"typed", 1, telemetry.Ops.SlowThreshold(), telemetry.Ops.Recent},
		{"unsampled-slow", 1 << 30, 0, telemetry.Ops.Slow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			telemetry.Ops.SetSampleEvery(tc.every)
			telemetry.Ops.SetSlowThreshold(tc.thresh)
			obj := "trace-" + tc.name
			data := bytes.Repeat([]byte{0x5A}, 4096)
			if _, _, err := cl.Operate(0, "rbd", obj, SnapContext{}, 0,
				[]Op{{Kind: OpWrite, Off: 0, Data: data}}); err != nil {
				t.Fatal(err)
			}

			var rec telemetry.SpanRecord
			found := false
			for _, r := range tc.ring() {
				if r.Target == obj {
					rec, found = r, true
					break
				}
			}
			if !found {
				t.Fatalf("no finished span for %s in the ring", obj)
			}
			if rec.Sampled != (tc.every == 1) {
				t.Errorf("span sampled=%v at every=%d", rec.Sampled, tc.every)
			}

			osds := cl.ReplicasFor("rbd", obj)
			primary := fmt.Sprintf("osd%d", osds[0])
			want := map[string]int{
				"msgr:req":             3,
				"msgr:resp":            3,
				primary + ":replicate": 1,
			}
			for _, id := range osds {
				want[fmt.Sprintf("osd%d:serve", id)] = 1
			}
			got := map[string]int{}
			for _, h := range rec.Hops[:rec.NHops] {
				got[h.Name]++
				if h.End < h.Start || h.Start < rec.Start || h.End > rec.End {
					t.Errorf("hop %s has incoherent timeline [%d,%d] in span [%d,%d]",
						h.Name, h.Start, h.End, rec.Start, rec.End)
				}
			}
			if rec.NHops != 10 || !reflect.DeepEqual(got, want) {
				t.Fatalf("span carries %d hops %v, want 10: %v", rec.NHops, got, want)
			}
			// The client's own transport hops open and close the span.
			first, last := rec.Hops[0], rec.Hops[rec.NHops-1]
			if first.Name != "msgr:req" || first.Start != rec.Start {
				t.Errorf("first hop %+v, want the client's msgr:req from %d", first, rec.Start)
			}
			if last.Name != "msgr:resp" || last.End != rec.End {
				t.Errorf("last hop %+v, want the client's msgr:resp to %d", last, rec.End)
			}
		})
	}
}

// TestTracingNeverMovesVirtualTime runs one fixed sequence of
// replicated writes, reads and an OMAP op on fresh clusters under every
// tracing setting: the span is client-local, so every op must end at
// the same instant whether it is sampled, unsampled, or filed as slow.
func TestTracingNeverMovesVirtualTime(t *testing.T) {
	defer telemetry.Ops.SetSampleEvery(64)
	defer telemetry.Ops.SetSlowThreshold(telemetry.Ops.SlowThreshold())
	thresh := telemetry.Ops.SlowThreshold()

	const pairs = 40
	run := func(every int64, slow vtime.Duration) []vtime.Time {
		telemetry.Ops.SetSampleEvery(every)
		telemetry.Ops.SetSlowThreshold(slow)
		_, cl := newWireCluster(t, 3, 3)
		data := bytes.Repeat([]byte{0x3C}, 4096)
		iv := bytes.Repeat([]byte{0xAB}, 16)
		var ends []vtime.Time
		var at vtime.Time
		step := func(obj string, ops []Op) {
			_, end, err := cl.Operate(at, "rbd", obj, SnapContext{}, 0, ops)
			if err != nil {
				t.Fatal(err)
			}
			ends = append(ends, end)
			at = end
		}
		for i := 0; i < pairs; i++ {
			obj := fmt.Sprintf("vt-%d", i%5)
			step(obj, []Op{{Kind: OpWrite, Off: int64(i%3) * 4096, Data: data}})
			step(obj, []Op{{Kind: OpRead, Off: int64(i%3) * 4096, Len: 4096}})
		}
		step("vt-omap", []Op{{Kind: OpOmapSet, Pairs: []Pair{{Key: []byte("iv.0"), Value: iv}}}})
		return ends
	}

	base := run(1<<30, thresh)
	for _, tc := range []struct {
		name  string
		every int64
		slow  vtime.Duration
	}{
		{"sample-every-op", 1, thresh},
		{"slow-threshold-0", 1 << 30, 0},
	} {
		got := run(tc.every, tc.slow)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("%s: op %d ends at %d, %d with sampling off", tc.name, i, got[i], base[i])
			}
		}
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
