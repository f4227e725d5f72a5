// Command rbdctl drives the background walkers and the health plane on
// an ephemeral in-process cluster, in the spirit of the rbd(8) tool.
// The image, snapshot, clone, rekey and discard flows live in
// examples/ (quickstart, goldenimage, rekey), and per-op metrics and
// traces in fiosim -metrics -traces; rbdctl runs only what nothing
// else does.
//
// Usage:
//
//	rbdctl -scheme gcm-auth -layout object-end scrub
//	rbdctl top
//	rbdctl health
//	rbdctl slow
//	rbdctl events
//
// scrub plants single-copy ciphertext rot, then drives a paced
// background integrity sweep that detects it and repairs it from the
// intact replicas (with gcm-auth; the length-preserving schemes cannot
// see rot — the paper's integrity argument). top runs a workload and
// renders a live per-OSD dashboard from the history ring
// (request/device rates, serve p99) with the health verdict under it.
// health drives the cluster red with an armed fault plan and back to
// green after disarming, printing the SLO verdict table at each phase.
// slow spikes one OSD's devices under a replicated write workload, then
// prints the always-on per-phase latency attribution table and every
// captured slow op's critical path — naming the straggler OSD and the
// dominant phase. events runs a small lifecycle (rekey, chaos burst,
// scrub) and dumps the structured event journal.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fio"
	"repro/internal/rados"
	"repro/internal/telemetry"
	"repro/internal/telemetry/health"
	"repro/internal/telemetry/history"
)

func main() {
	var (
		schemeName = flag.String("scheme", "xts-rand", "luks2 | xts-rand | gcm-auth | eme2-det | eme2-rand")
		layoutName = flag.String("layout", "object-end", "none | unaligned | object-end | omap")
		sizeMB     = flag.Int64("size", 64, "image size in MiB")
	)
	flag.Parse()
	verb := flag.Arg(0)
	switch verb {
	case "scrub", "top", "health", "slow", "events":
	default:
		fmt.Fprintln(os.Stderr, "usage: rbdctl [-scheme S] [-layout L] [-size MB] scrub|top|health|slow|events")
		os.Exit(2)
	}
	scheme, err := core.ParseScheme(*schemeName)
	if err != nil {
		log.Fatal(err)
	}
	layout, err := core.ParseLayout(*layoutName)
	if err != nil {
		log.Fatal(err)
	}

	cluster, err := repro.NewCluster(repro.TestClusterConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	client := cluster.NewClient("rbdctl")

	img, err := repro.CreateEncryptedImage(client, "rbd", "demo", *sizeMB<<20,
		[]byte("demo-passphrase"), repro.Options{Scheme: scheme, Layout: layout})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("image: rbd/demo  size=%d MiB  scheme=%v  layout=%v  metadata=%d B/block\n",
		img.Size()>>20, scheme, layout, img.MetaLen())

	switch verb {
	case "scrub":
		scrubDemo(img)
	case "top":
		top(img)
	case "health":
		healthDemo(cluster, img)
	case "slow":
		slowDemo(cluster, img)
	case "events":
		eventsDemo(cluster, img)
	}
}

// top is the live per-OSD dashboard: it runs a random-write workload
// in bursts and, after each burst, snapshots the registry into a
// history ring and renders per-OSD request/device rates and serve p99
// over the burst window, with the health verdict line under the table.
func top(img *repro.EncryptedImage) {
	span := img.Size()
	if span > 8<<20 {
		span = 8 << 20
	}
	now, err := fio.Precondition(img, span, 4096, 0)
	if err != nil {
		log.Fatal(err)
	}
	mon := repro.NewHealthMonitor(0)
	mon.Observe(now)

	for frame := 1; frame <= 5; frame++ {
		res, err := repro.RunWorkload(repro.WorkloadSpec{
			Pattern: fio.RandWrite, BlockSize: 4096, QueueDepth: 8,
			Span: span, TotalOps: 256, Seed: int64(frame),
		}, img, now)
		if err != nil {
			log.Fatal(err)
		}
		window := res.End.Sub(now)
		now = res.End
		mon.Observe(now)

		fmt.Printf("\nframe %d  t=%v  window=%v\n", frame, time.Duration(now), window)
		fmt.Printf("  %-4s %10s %10s %10s %10s %12s\n",
			"osd", "prim req/s", "repl req/s", "dev wr/s", "dev rd/s", "serve p99")
		hist := mon.History()
		secs := window.Seconds()
		for _, id := range osdIDs(hist, window) {
			prim := hist.Delta("osd_requests_total", fmt.Sprintf(`{role="primary",osd="%s"}`, id), window)
			repl := hist.Delta("osd_requests_total", fmt.Sprintf(`{role="replica",osd="%s"}`, id), window)
			wr := hist.Delta("device_write_ops_total", fmt.Sprintf(`{osd="%s"}`, id), window)
			rd := hist.Delta("device_read_ops_total", fmt.Sprintf(`{osd="%s"}`, id), window)
			p99 := hist.SeriesQuantile("osd_serve_vtime", fmt.Sprintf(`{osd="%s"}`, id), 0.99, window)
			fmt.Printf("  %-4s %10.0f %10.0f %10.0f %10.0f %12v\n",
				id, float64(prim)/secs, float64(repl)/secs, float64(wr)/secs, float64(rd)/secs, p99)
		}
		rep := mon.Report(now)
		fmt.Printf("  health: %v (%d rules firing)\n", rep.Status, len(rep.Firing()))
	}
}

// osdIDs collects the OSD ids with any request activity in the window,
// sorted numerically, by walking the per-OSD request series.
func osdIDs(hist *history.History, w repro.Duration) []string {
	seen := map[string]bool{}
	hist.EachDelta("device_write_ops_total", w, func(labels string, delta int64, ok bool) {
		id := strings.TrimSuffix(strings.TrimPrefix(labels, `{osd="`), `"}`)
		if id != labels {
			seen[id] = true
		}
	})
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, _ := strconv.Atoi(ids[i])
		b, _ := strconv.Atoi(ids[j])
		return a < b
	})
	return ids
}

// healthDemo drives the cluster red and back to green, printing the
// SLO verdict table at each phase: an armed fault plan under load flips
// the overall status with the fault-rate, error-rate and latency rules
// firing; disarming and running clean for a full health window returns
// every verdict to ok.
func healthDemo(cluster *repro.Cluster, img *repro.EncryptedImage) {
	span := img.Size()
	if span > 8<<20 {
		span = 8 << 20
	}
	v := fio.NewVerifier(img, 4096)
	v.Tolerate = func(err error) bool { return errors.Is(err, fault.ErrInjected) }
	now, err := fio.Precondition(v, span, 4096, 0)
	if err != nil {
		log.Fatal(err)
	}
	mon := repro.NewHealthMonitor(0)
	mon.Observe(now)

	fmt.Println("arming fault plan: drop-reply 5%, delay-reply 8% (30ms), conn-reset 3%")
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
		res, err := fio.Run(fio.Spec{Pattern: pat, BlockSize: 4096, QueueDepth: 4,
			Span: span, TotalOps: 400, Seed: 7}, v, now)
		if err != nil {
			log.Fatal(err)
		}
		now = res.End
	}
	mon.Observe(now)
	fmt.Printf("\nunder chaos (%d injected faults tolerated):\n%s\n",
		v.Stats().InjectedErrors, mon.Report(now))

	fmt.Println("\ndisarming faults; running clean for a full health window...")
	cluster.ArmFaults(nil)
	greenStart := now
	for now.Sub(greenStart) < health.DefaultWindow+50*repro.Duration(1e6) {
		res, err := fio.Run(fio.Spec{Pattern: fio.RandWrite, BlockSize: 4096, QueueDepth: 4,
			Span: span, TotalOps: 200, Seed: 11}, v, now)
		if err != nil {
			log.Fatal(err)
		}
		now = res.End
	}
	mon.Observe(now)
	fmt.Printf("\nafter recovery:\n%s\n", mon.Report(now))
}

// slowDemo is the tail-latency attribution surface: it stretches every
// device command on one OSD with an injected latency spike, runs a
// replicated write workload, and prints where the time went — the
// always-on per-phase attribution table over 100% of traffic, then
// every captured slow op's critical path with the straggler OSD and
// dominant phase named.
func slowDemo(cluster *repro.Cluster, img *repro.EncryptedImage) {
	span := img.Size()
	if span > 8<<20 {
		span = 8 << 20
	}
	now, err := fio.Precondition(img, span, 4096, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Spike exactly one OSD so replicated writes have a straggler: the
	// plan's base config is clean, and only the victim's disks get a
	// site-specific override.
	spiked := cluster.OSDs()[len(cluster.OSDs())-1]
	plan := repro.NewFaultPlan(7, repro.FaultConfig{})
	for _, st := range spiked.Stores() {
		st.Disk().SetFaults(plan.InjectorWith("disk/"+st.Disk().Name(), fault.Config{
			Prob:  map[fault.Kind]float64{fault.LatencySpike: 1},
			Delay: 30 * time.Millisecond,
		}))
	}
	fmt.Printf("spiking osd%d: every device command on it stretched by 30ms\n", spiked.ID())

	res, err := fio.Run(fio.Spec{Pattern: fio.RandWrite, BlockSize: 4096, QueueDepth: 4,
		Span: span, TotalOps: 300, Seed: 7}, img, now)
	if err != nil {
		log.Fatal(err)
	}
	for _, st := range spiked.Stores() {
		st.Disk().SetFaults(nil)
	}
	fmt.Printf("workload: %s\n", res)

	fmt.Printf("\nlatency attribution (100%% of traffic):\n%s", repro.Attribution())

	slow := repro.SlowOps()
	fmt.Printf("\nslow ops captured: %d (threshold %v, every over-threshold op kept)\n",
		len(slow), time.Duration(telemetry.Ops.SlowThreshold()))
	for i, s := range slow {
		if i >= 6 {
			fmt.Printf("  ... %d more\n", len(slow)-i)
			break
		}
		fmt.Print(s.Path)
	}
}

// eventsDemo runs a small lifecycle — an online rekey, a chaos burst,
// and a scrub sweep — then dumps the structured event journal that
// recorded it, newest first.
func eventsDemo(cluster *repro.Cluster, img *repro.EncryptedImage) {
	span := img.Size()
	if span > 8<<20 {
		span = 8 << 20
	}
	v := fio.NewVerifier(img, 4096)
	v.Tolerate = func(err error) bool { return errors.Is(err, fault.ErrInjected) }
	now, err := fio.Precondition(v, span, 4096, 0)
	if err != nil {
		log.Fatal(err)
	}

	r, err := repro.StartRekey(img)
	if err != nil {
		log.Fatal(err)
	}
	if now, err = r.Run(now); err != nil {
		log.Fatal(err)
	}

	plan := repro.NewFaultPlan(3, repro.FaultConfig{
		Prob: map[fault.Kind]float64{fault.DropReply: 0.05},
	})
	cluster.ArmFaults(plan)
	res, err := fio.Run(fio.Spec{Pattern: fio.RandRead, BlockSize: 4096, QueueDepth: 4,
		Span: span, TotalOps: 200, Seed: 3}, v, now)
	if err != nil {
		log.Fatal(err)
	}
	now = res.End
	cluster.ArmFaults(nil)

	s, err := repro.StartScrub(img)
	if err != nil {
		log.Fatal(err)
	}
	if _, err = s.Run(now); err != nil {
		log.Fatal(err)
	}

	evs := repro.Events()
	fmt.Printf("event journal (%d entries, newest first):\n", len(evs))
	for _, e := range evs {
		fmt.Printf("  %s\n", e)
	}
}

// scrubDemo damages the primary copy of a few blocks with direct
// single-copy writes (the replicas stay intact), then drives a paced
// background scrub that walks every object, verifying each block under
// its recorded key epoch, and repairs what it can from the replicas.
func scrubDemo(img *repro.EncryptedImage) {
	span := img.Size()
	if span > 16<<20 {
		span = 16 << 20
	}
	if _, err := fio.Precondition(img, span, 4096, 0); err != nil {
		log.Fatal(err)
	}

	bs := img.Options().BlockSize
	garbage := make([]byte, bs)
	for i := range garbage {
		garbage[i] = byte(0xA5 ^ i)
	}
	for _, spot := range []struct{ obj, blk int64 }{{0, 3}, {1, 40}, {2, 200}} {
		osd := img.Image().Replicas(spot.obj)[0]
		if _, _, err := img.Image().OperateOn(0, osd, spot.obj, 0,
			[]rados.Op{{Kind: rados.OpWrite, Off: spot.blk * bs, Data: garbage}}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("planted ciphertext rot on the primary copy of 3 blocks")
	if img.Options().Scheme != core.SchemeGCM {
		fmt.Printf("note: %v is length-preserving — rot decrypts to plausible garbage, so the sweep below\n", img.Options().Scheme)
		fmt.Println("      verifies structure only and finds nothing; rerun with -scheme gcm-auth to see detection")
	}

	s, err := repro.StartScrub(img)
	if err != nil {
		log.Fatal(err)
	}
	pace := repro.NewPacer(500, 128<<20) // cap the walker at 500 ops/s, 128 MB/s
	s.SetPace(pace)

	fmt.Println("scrub walker (live progress):")
	var at repro.Time
	for i := 0; ; i++ {
		done, end, err := s.Step(at)
		if err != nil {
			log.Fatal(err)
		}
		at = end
		if p := s.Progress(); i%8 == 0 || done {
			fmt.Printf("  objects %d/%d  at %v  %v\n", p.NextObj, p.Objects, time.Duration(at), pace)
		}
		if done {
			break
		}
	}
	p := s.Progress()
	fmt.Printf("scrub complete: %d blocks checked, %d bad, %d repaired from replicas\n",
		p.Checked, p.Found, p.Repaired)

	got := make([]byte, span)
	if _, err := img.ReadAt(0, got, 0); err != nil {
		fmt.Printf("post-scrub read-back still failing: %v\n", err)
		return
	}
	fmt.Println("post-scrub read-back: full span reads clean")
}
