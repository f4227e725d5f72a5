package health_test

// e2e_test.go: the health-plane acceptance loop — red under chaos,
// green after repair. An armed network fault plan under an fio workload
// must flip overall health to degraded with the fault-rate, error-rate
// and p99 rules firing; disarming, repairing planted ciphertext rot
// with a scrub sweep, and running clean again must return the verdict
// to healthy — with the per-OSD-labelled series moving and the event
// journal carrying the whole story. CI's chaos job runs this test.

import (
	"errors"
	"testing"
	"time"

	"repro"
	"repro/internal/fault"
	"repro/internal/fio"
	"repro/internal/rados"
	"repro/internal/telemetry"
	"repro/internal/telemetry/health"
	"repro/internal/vtime"
)

const (
	healthSpan = 2 << 20
	healthBS   = int64(4096)
	healthObj  = int64(1 << 20) // facade striping
)

func firingNames(rep health.Report) map[string]bool {
	names := map[string]bool{}
	for _, v := range rep.Firing() {
		names[v.Rule] = true
	}
	return names
}

func TestHealthChaosRedGreen(t *testing.T) {
	cluster, err := repro.NewCluster(repro.TestClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client := cluster.NewClient("health-e2e")

	img, err := repro.CreateEncryptedImage(client, "rbd", "hvol", 8<<20,
		[]byte("pass"), repro.Options{Scheme: repro.SchemeGCM, Layout: repro.LayoutObjectEnd})
	if err != nil {
		t.Fatal(err)
	}

	mon := repro.NewHealthMonitor()
	v := fio.NewVerifier(img, healthBS)
	v.Tolerate = func(err error) bool { return errors.Is(err, fault.ErrInjected) }

	now, err := fio.Precondition(v, healthSpan, healthBS, 0)
	if err != nil {
		t.Fatal(err)
	}
	mon.Observe(now)

	// Red phase: network chaos under load. Delayed replies are sized
	// well past the foreground p99 ceiling so the latency rule fires
	// alongside the fault- and error-rate rules.
	plan := repro.NewFaultPlan(7, repro.FaultConfig{
		Prob: map[fault.Kind]float64{
			fault.DropReply:  0.05,
			fault.DelayReply: 0.08,
			fault.ConnReset:  0.03,
		},
		Delay: 30 * time.Millisecond,
	})
	cluster.ArmFaults(plan)
	for _, pat := range []fio.Pattern{fio.RandWrite, fio.RandRead} {
		res, err := fio.Run(fio.Spec{Pattern: pat, BlockSize: healthBS, QueueDepth: 4,
			Span: healthSpan, TotalOps: 400, Seed: 7}, v, now)
		if err != nil {
			t.Fatalf("%v under faults aborted: %v", pat, err)
		}
		now = res.End
	}
	if v.Stats().InjectedErrors == 0 {
		t.Fatal("fault plan never fired; the red phase tested nothing")
	}

	mon.Observe(now)
	red := mon.Report(now)
	t.Logf("red verdict:\n%s", red)
	if red.Status == health.Healthy {
		t.Fatalf("health stayed %v under an armed fault plan:\n%s", red.Status, red)
	}
	firing := firingNames(red)
	for _, rule := range []string{"fault-injection-rate", "client-error-rate", "foreground-p99"} {
		if !firing[rule] {
			t.Errorf("rule %s did not fire in the red phase:\n%s", rule, red)
		}
	}

	// Green phase: disarm, plant ciphertext rot on two primary copies
	// (seed-replayable positions), repair it with a scrub sweep, then
	// run clean long enough that the health window sees only the
	// recovered cluster.
	cluster.ArmFaults(nil)
	in := plan.Injector("health/rot")
	planted := map[[2]int64]bool{}
	for len(planted) < 2 {
		obj := int64(in.Intn(int(healthSpan / healthObj)))
		blk := int64(in.Intn(int(healthObj / healthBS)))
		if planted[[2]int64{obj, blk}] {
			continue
		}
		planted[[2]int64{obj, blk}] = true
		plantRot(t, img, obj, blk)
	}

	s, err := repro.StartScrub(img)
	if err != nil {
		t.Fatal(err)
	}
	now, err = s.Run(now)
	if err != nil {
		t.Fatal(err)
	}
	prog := s.Progress()
	if prog.Found < int64(len(planted)) || prog.Repaired != prog.Found {
		t.Fatalf("scrub found=%d repaired=%d, want >=%d found and all repaired",
			prog.Found, prog.Repaired, len(planted))
	}

	greenStart := now
	mon.Observe(greenStart)
	for now.Sub(greenStart) < health.DefaultWindow+50*vtime.Duration(1e6) {
		res, err := fio.Run(fio.Spec{Pattern: fio.RandWrite, BlockSize: healthBS, QueueDepth: 4,
			Span: healthSpan, TotalOps: 200, Seed: 11}, v, now)
		if err != nil {
			t.Fatalf("clean workload aborted: %v", err)
		}
		now = res.End
	}
	mon.Observe(now)
	green := mon.Report(now)
	t.Logf("green verdict:\n%s", green)
	if green.Status != health.Healthy {
		t.Fatalf("health still %v after disarm + scrub repair:\n%s", green.Status, green)
	}
	if s := v.Stats(); s.GarbageBlocks != 0 {
		t.Fatalf("silent garbage during the health loop: %v", s)
	}

	// The per-OSD series moved inside the final window: every OSD's
	// device write counters advanced under the replicated clean load.
	hist := mon.History()
	window := now.Sub(greenStart)
	moving := 0
	hist.EachDelta("device_write_ops_total", window, func(labels string, delta int64, ok bool) {
		if ok && delta > 0 {
			moving++
		}
	})
	if moving < 3 {
		t.Errorf("only %d per-OSD device_write_ops_total series moved in the green window, want 3", moving)
	}

	// The event journal carries the whole story: faults fired in the
	// red phase, the scrub ran to completion, and the repair landed.
	counts := map[telemetry.EventKind]int64{}
	for _, k := range []telemetry.EventKind{
		telemetry.EventFaultFired, telemetry.EventScrubStart,
		telemetry.EventScrubFinish, telemetry.EventRepairDone,
	} {
		counts[k] = telemetry.Log.Count(k)
	}
	for k, n := range counts {
		if n == 0 {
			t.Errorf("event journal recorded no %v events", k)
		}
	}
}

// plantRot overwrites one block's ciphertext on the primary copy of an
// object — the single-copy damage replica repair exists for.
func plantRot(t *testing.T, img *repro.EncryptedImage, objIdx, block int64) {
	t.Helper()
	garbage := make([]byte, healthBS)
	for i := range garbage {
		garbage[i] = byte(0xA5 ^ i)
	}
	primary := img.Image().Replicas(objIdx)[0]
	res, _, err := img.Image().OperateOn(0, primary, objIdx, 0,
		[]rados.Op{{Kind: rados.OpWrite, Off: block * healthBS, Data: garbage}})
	if err != nil {
		t.Fatalf("plant rot on osd%d obj %d: %v", primary, objIdx, err)
	}
	for _, r := range res {
		if err := r.Status.Err(); err != nil {
			t.Fatalf("plant rot on osd%d obj %d: %v", primary, objIdx, err)
		}
	}
}
