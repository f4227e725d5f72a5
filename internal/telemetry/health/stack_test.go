package health_test

// stack_test.go: the default rules that TestHealthChaosRedGreen does not
// fire, each fired by the real condition it names on a live stack
// rather than by synthetic series. Every case observes into a private
// monitor before and after the condition, so the two samples bracket
// exactly the window under test. scrub-findings-outstanding is fired in
// internal/scrub (TestScrubCheckOnlyCountsWithoutRepair): its value is
// the sum of every image's unrepaired findings from its last finished
// sweep, which a check-only sweep leaves raised until a repairing sweep
// of that image.

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"repro"
	"repro/internal/fault"
	"repro/internal/fio"
	"repro/internal/telemetry/health"
	"repro/internal/vtime"
)

// stackImage builds a cluster and an encrypted image named name with
// its first 2 MiB written, returning the virtual time the writes ended.
func stackImage(t *testing.T, name string) (*repro.Cluster, *repro.Client, *repro.EncryptedImage, vtime.Time) {
	t.Helper()
	cluster, err := repro.NewCluster(repro.TestClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	client := cluster.NewClient(name)
	img, err := repro.CreateEncryptedImage(client, "rbd", name, 4<<20,
		[]byte("pass"), repro.Options{Scheme: repro.SchemeGCM, Layout: repro.LayoutObjectEnd})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 2<<20)
	for i := range data {
		data[i] = byte(i*7) | 1
	}
	now, err := img.WriteAt(0, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cluster, client, img, now
}

// mustFire fails unless rule fires in rep.
func mustFire(t *testing.T, rep health.Report, rule string) {
	t.Helper()
	if !firingNames(rep)[rule] {
		t.Fatalf("rule %s did not fire:\n%s", rule, rep)
	}
}

// TestWalkerPacerDebtRulesFire: a walker whose pacer allows 1 MiB/s
// charges about a second of debt for each 1 MiB object it visits, so a
// single step grows its <walker>_pacer_debt_ns gauge far past the
// rules' 100 ms ceiling.
func TestWalkerPacerDebtRulesFire(t *testing.T) {
	for _, walker := range []string{"rekey", "flatten", "scrub"} {
		t.Run(walker, func(t *testing.T) {
			_, client, img, now := stackImage(t, "debt-"+walker)
			pace := repro.NewPacer(0, 1<<20)
			var step func(vtime.Time) (bool, vtime.Time, error)
			switch walker {
			case "rekey":
				r, err := repro.StartRekey(img)
				if err != nil {
					t.Fatal(err)
				}
				r.SetPace(pace)
				step = r.Step
			case "scrub":
				s, err := repro.StartScrub(img)
				if err != nil {
					t.Fatal(err)
				}
				s.SetPace(pace)
				step = s.Step
			case "flatten":
				var err error
				if _, now, err = img.CreateSnap(now, "g"); err != nil {
					t.Fatal(err)
				}
				keys := repro.Keychain{"debt-flatten": []byte("pass"), "debt-flatten-c": []byte("child")}
				child, err := repro.CloneEncryptedImage(client, "rbd", "debt-flatten", "g", "debt-flatten-c",
					keys, repro.Options{Scheme: repro.SchemeGCM, Layout: repro.LayoutObjectEnd})
				if err != nil {
					t.Fatal(err)
				}
				f, err := repro.StartFlatten(child)
				if err != nil {
					t.Fatal(err)
				}
				f.SetPace(pace)
				step = f.Step
			}

			mon := repro.NewHealthMonitor()
			mon.Observe(now)
			if _, end, err := step(now); err != nil {
				t.Fatal(err)
			} else {
				now = end
			}
			mon.Observe(now)
			mustFire(t, mon.Report(now), walker+"-pacer-debt-growth")
		})
	}
}

// TestOSDSilenceFires: one OSD inside a fault-plan Down window serves
// nothing while a write workload keeps the others busy.
func TestOSDSilenceFires(t *testing.T) {
	cluster, _, img, now := stackImage(t, "silence")
	victim := cluster.OSDs()[len(cluster.OSDs())-1]
	plan := repro.NewFaultPlan(3, repro.FaultConfig{})
	victim.Server().SetFaults(plan.InjectorWith("silence/msgr", fault.Config{
		Down: []fault.Window{{From: now, To: math.MaxInt64}},
	}))
	defer victim.Server().SetFaults(nil)

	mon := repro.NewHealthMonitor()
	mon.Observe(now)
	v := fio.NewVerifier(img, 4096)
	v.Tolerate = func(err error) bool { return errors.Is(err, fault.ErrOSDDown) }
	res, err := fio.Run(fio.Spec{Pattern: fio.RandWrite, BlockSize: 4096, QueueDepth: 4,
		Span: 2 << 20, TotalOps: 200, Seed: 5}, v, now)
	if err != nil {
		t.Fatal(err)
	}
	if v.Stats().InjectedErrors == 0 {
		t.Fatal("no write touched the downed OSD; the window tested nothing")
	}
	mon.Observe(res.End)
	mustFire(t, mon.Report(res.End), "osd-silence")
}

// TestDatapathQueueSaturationFires: an image whose parallelism splits
// each 1 MiB write into more chunks than the shared pool's queue holds
// (four per worker) runs the overflow inline on every write.
func TestDatapathQueueSaturationFires(t *testing.T) {
	_, _, img, now := stackImage(t, "saturate")
	workers := 4*runtime.GOMAXPROCS(0) + 8
	if workers > 256 {
		t.Skipf("GOMAXPROCS=%d: a 1 MiB write has too few blocks to overflow the queue", runtime.GOMAXPROCS(0))
	}
	img.SetParallelism(workers)

	mon := repro.NewHealthMonitor()
	mon.Observe(now)
	res, err := fio.Run(fio.Spec{Pattern: fio.RandWrite, BlockSize: 1 << 20, QueueDepth: 2,
		Span: 4 << 20, TotalOps: 16, Seed: 9}, img, now)
	if err != nil {
		t.Fatal(err)
	}
	mon.Observe(res.End)
	mustFire(t, mon.Report(res.End), "datapath-queue-saturation")
}
