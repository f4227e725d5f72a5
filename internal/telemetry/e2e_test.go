package telemetry_test

// End-to-end observability acceptance: a workload over several
// scheme×layout combinations on a live cluster must leave (a) per-label
// datapath series in the Prometheus snapshot, (b) at least one complete
// trace span carrying the full client -> msgr -> OSD serve -> replicate
// hop timeline, and (c) rekey walker gauges that move while the walk is
// live. This is the wiring test — the primitives themselves are covered
// in telemetry_test.go.

import (
	"fmt"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/telemetry"
)

func TestEndToEndObservability(t *testing.T) {
	cluster, err := repro.NewCluster(repro.TestClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client := cluster.NewClient("e2e")

	// Sample every request so the trace assertion is deterministic.
	telemetry.Ops.SetSampleEvery(1)
	defer telemetry.Ops.SetSampleEvery(64)

	matrix := []struct {
		scheme core.Scheme
		layout core.Layout
	}{
		{core.SchemeLUKS2, core.LayoutNone},
		{core.SchemeXTSRand, core.LayoutObjectEnd},
		{core.SchemeXTSRand, core.LayoutOMAP},
	}
	var rekeyImg *repro.EncryptedImage
	for i, m := range matrix {
		name := fmt.Sprintf("e2e-%d", i)
		img, err := repro.CreateEncryptedImage(client, "rbd", name, 8<<20,
			[]byte("pass"), repro.Options{Scheme: m.scheme, Layout: m.layout})
		if err != nil {
			t.Fatal(err)
		}
		now, err := fio.Precondition(img, 2<<20, 4096, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pat := range []fio.Pattern{fio.RandWrite, fio.RandRead} {
			res, err := fio.Run(fio.Spec{
				Pattern: pat, BlockSize: 4096, QueueDepth: 4,
				Span: 2 << 20, TotalOps: 32,
			}, img, now)
			if err != nil {
				t.Fatal(err)
			}
			now = res.End
		}
		rekeyImg = img
	}

	// Walker gauges: resolve the same series the walker publishes into
	// (family registration is idempotent) and watch them move.
	gDone := telemetry.NewGaugeVec("rekey_objects_done",
		"objects the rekey walker has completed", "image").With(rekeyImg.Image().Name())
	r, err := repro.StartRekey(rekeyImg)
	if err != nil {
		t.Fatal(err)
	}
	before := gDone.Value()
	var at repro.Time
	for {
		done, end, err := r.Step(at)
		if err != nil {
			t.Fatal(err)
		}
		at = end
		if gDone.Value() > before {
			break // the gauge moved while the walk was live
		}
		if done {
			t.Fatal("rekey finished without rekey_objects_done ever advancing")
		}
	}
	if _, err := r.Run(at); err != nil {
		t.Fatal(err)
	}

	// (a) Per-label datapath series for every matrix member, plus the
	// walker and transport families.
	snap := repro.MetricsSnapshot()
	for _, want := range []string{
		`core_seal_ops_total{scheme="luks2",layout="none"}`,
		`core_seal_ops_total{scheme="xts-rand",layout="object-end"}`,
		`core_seal_ops_total{scheme="xts-rand",layout="omap"}`,
		`core_read_vtime_count{scheme="xts-rand",layout="object-end"}`,
		`client_requests_total`,
		`osd_requests_total{role="primary",osd="`,
		`osd_requests_total{role="replica",osd="`,
		`device_write_ops_total{osd="0"}`,
		`msgr_calls_total{path="typed"}`,
		`rekey_blocks_resealed_total{image="e2e-2"}`,
		`fio_op_vtime_count{op="write"}`,
		`trace_spans_finished_total`,
	} {
		if !strings.Contains(snap, want) {
			t.Errorf("snapshot missing series %s", want)
		}
	}

	// (b) At least one complete replicated-write span: transport hops from
	// the client's messenger, the primary's serve, every replica's serve
	// (replica forwards keep the op's span), and the primary's
	// replication fan-out. Replicas=3 on the 3-OSD test cluster, so a
	// full timeline carries three distinct per-OSD serve hops.
	complete := false
	for _, rec := range telemetry.Ops.Recent() {
		got := map[string]bool{}
		serves, replicates := 0, 0
		for i := 0; i < rec.NHops; i++ {
			name := rec.Hops[i].Name
			if !got[name] {
				got[name] = true
				switch {
				case strings.HasSuffix(name, ":serve"):
					serves++
				case strings.HasSuffix(name, ":replicate"):
					replicates++
				}
			}
		}
		if got["msgr:req"] && got["msgr:resp"] && serves >= 3 && replicates >= 1 && rec.End >= rec.Start {
			complete = true
			break
		}
	}
	if !complete {
		t.Errorf("no complete replicated-write span (msgr:req/resp + 3 per-OSD serves + replicate) among %d recent spans", len(telemetry.Ops.Recent()))
	}
}
