// Command rbdctl exercises the image and encryption API on an ephemeral
// in-process cluster — a demonstration shell for the library in the
// spirit of the rbd(8) tool.
//
// Usage:
//
//	rbdctl -scheme xts-rand -layout object-end demo
//	rbdctl -scheme xts-rand -layout object-end rekey
//	rbdctl -scheme luks2 -layout none discard
//	rbdctl -scheme xts-rand -layout object-end clone
//	rbdctl -scheme xts-rand -layout object-end flatten
//	rbdctl -scheme gcm-auth -layout object-end scrub
//	rbdctl top
//	rbdctl health
//	rbdctl slow
//	rbdctl events
//
// demo creates an encrypted image, writes data, snapshots, overwrites,
// reads both versions back and prints storage-level counters. rekey
// rotates the image's key epoch online — under a live fio workload —
// then destroys the retired key. discard crypto-erases a block range
// and shows the holes plus the zeroed storage-level view. clone runs the
// golden-image flow: two tenants cloned from one encrypted base
// snapshot, each under its own key, with crypto-erase isolation between
// them. flatten copies a clone's inherited blocks up under the child's
// key (paced, resumable) until the base can be deleted. scrub plants
// single-copy ciphertext rot, then drives a paced background integrity
// sweep that detects it and repairs it from the intact replicas (with
// gcm-auth; the length-preserving schemes cannot see rot — the paper's
// integrity argument). top runs a workload and renders a live per-OSD
// dashboard from the history ring (request/device rates, serve p99)
// with the health verdict under it. health drives the cluster red with
// an armed fault plan and back to green after disarming, printing the
// SLO verdict table at each phase. slow spikes one OSD's devices under
// a replicated write workload, then prints the always-on per-phase
// latency attribution table and every captured slow op's critical path
// — naming the straggler OSD and the dominant phase. events runs a
// small lifecycle (rekey, chaos burst, scrub) and dumps the structured
// event journal.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fio"
	"repro/internal/rados"
	"repro/internal/rbd"
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
	case "demo", "rekey", "discard", "clone", "flatten", "status", "scrub", "top", "health", "slow", "events":
	default:
		fmt.Fprintln(os.Stderr, "usage: rbdctl [-scheme S] [-layout L] [-size MB] demo|rekey|discard|clone|flatten|status|scrub|top|health|slow|events")
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
	case "demo":
		demo(cluster, img)
	case "rekey":
		rekey(img)
	case "discard":
		discard(img)
	case "clone":
		cloneDemo(client, img, scheme, layout)
	case "flatten":
		flattenDemo(client, img)
	case "status":
		status(img)
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

// status is the observability surface: it exercises the image under a
// live paced rekey with a concurrent workload, prints the walker's
// progress gauges while they move, then dumps image state, per-op
// latency breakdowns, recent trace spans with their hop timelines, and
// the full Prometheus-text metrics snapshot.
func status(img *repro.EncryptedImage) {
	span := img.Size()
	if span > 16<<20 {
		span = 16 << 20
	}
	if _, err := fio.Precondition(img, span, 4096, 0); err != nil {
		log.Fatal(err)
	}

	r, err := repro.StartRekey(img)
	if err != nil {
		log.Fatal(err)
	}
	pace := repro.NewPacer(500, 64<<20)
	r.SetPace(pace)

	var wg sync.WaitGroup
	wg.Add(1)
	var res repro.WorkloadResult
	var fioErr error
	go func() {
		defer wg.Done()
		res, fioErr = repro.RunWorkload(repro.WorkloadSpec{
			Pattern: fio.RandWrite, BlockSize: 4096, QueueDepth: 8,
			Span: span, TotalOps: 512,
		}, img, 0)
	}()

	// Drive the walker step by step so its progress is observably live.
	fmt.Println("rekey walker (live progress):")
	var at repro.Time
	for i := 0; ; i++ {
		done, end, err := r.Step(at)
		if err != nil {
			log.Fatal(err)
		}
		at = end
		if p := r.Progress(); i%4 == 0 || done {
			fmt.Printf("  objects %d/%d  at %v  %v\n", p.NextObj, p.Objects, time.Duration(at), pace)
		}
		if done {
			break
		}
	}
	wg.Wait()
	if fioErr != nil {
		log.Fatal(fioErr)
	}

	fmt.Printf("\nimage state:\n")
	fmt.Printf("  epochs: current=%d live=%v\n", img.CurrentEpoch(), img.Epochs())
	fmt.Printf("  objects: %d x %d B, block %d B, metadata %d B/block\n",
		img.ObjectCount(), img.Image().ObjectSize(), img.Options().BlockSize, img.MetaLen())

	fmt.Printf("\nconcurrent workload: %s\n", res)
	if perOp := res.PerOpString(); perOp != "" {
		fmt.Println(perOp)
	}

	fmt.Println("\nrecent op traces (newest first):")
	recent := repro.RecentTraces()
	if len(recent) > 8 {
		recent = recent[:8]
	}
	for _, rec := range recent {
		fmt.Printf("  %s\n", rec.String())
	}
	if slow := repro.SlowTraces(); len(slow) > 0 {
		if len(slow) > 4 {
			slow = slow[:4]
		}
		fmt.Println("slow ops:")
		for _, rec := range slow {
			fmt.Printf("  %s\n", rec.String())
		}
	}

	fmt.Println("\ntelemetry snapshot:")
	if _, err := repro.WriteMetrics(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// keychain is the demo credential set: the base image was created by
// main under "demo-passphrase"; each tenant clone gets its own.
func keychain() repro.Keychain {
	return repro.Keychain{
		"demo":     []byte("demo-passphrase"),
		"tenant-a": []byte("tenant-a-secret"),
		"tenant-b": []byte("tenant-b-secret"),
	}
}

// seedBase writes a recognizable golden payload and snapshots it.
func seedBase(img *repro.EncryptedImage) []byte {
	golden := make([]byte, 1<<20)
	for i := range golden {
		golden[i] = byte(i*7) | 1
	}
	if _, err := img.WriteAt(0, golden, 0); err != nil {
		log.Fatal(err)
	}
	if _, _, err := img.CreateSnap(0, "golden"); err != nil {
		log.Fatal(err)
	}
	return golden
}

func cloneDemo(client *repro.Client, img *repro.EncryptedImage, scheme core.Scheme, layout core.Layout) {
	golden := seedBase(img)
	keys := keychain()
	opts := repro.Options{Scheme: scheme, Layout: layout}
	a, err := repro.CloneEncryptedImage(client, "rbd", "demo", "golden", "tenant-a", keys, opts)
	if err != nil {
		log.Fatal(err)
	}
	b, err := repro.CloneEncryptedImage(client, "rbd", "demo", "golden", "tenant-b", keys, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cloned demo@golden -> tenant-a, tenant-b (each sealed under its own LUKS container)\n")

	// Read-through: tenant-a sees the golden image without owning a byte.
	buf := make([]byte, 4096)
	if _, err := a.ReadAt(0, buf, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tenant-a read-through: buf[1]=0x%02x (golden 0x%02x)\n", buf[1], golden[1])

	// Tenant-a writes its own data — sealed under tenant-a's key only.
	own := bytes.Repeat([]byte{0x42}, 64<<10)
	if _, err := a.WriteAt(0, own, 128<<10); err != nil {
		log.Fatal(err)
	}
	if _, err := b.ReadAt(0, buf, 128<<10); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sibling isolation: tenant-b still reads 0x%02x at tenant-a's write offset\n", buf[1])

	// Crypto-erase tenant-a: mint a new epoch, destroy the old one. Only
	// tenant-a's own writes die; the base and tenant-b are untouched.
	if _, _, err := a.Enc().BeginEpoch(0); err != nil {
		log.Fatal(err)
	}
	if _, err := a.Enc().DropEpoch(0, 0); err != nil {
		log.Fatal(err)
	}
	_, err = a.ReadAt(0, buf, 128<<10)
	fmt.Printf("after tenant-a crypto-erase: own blocks -> %v\n", err)
	if _, err := a.ReadAt(0, buf, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("                             inherited blocks still read 0x%02x via the parent's key\n", buf[1])
	if _, err := b.ReadAt(0, buf, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("                             tenant-b fully intact (0x%02x)\n", buf[1])
}

func flattenDemo(client *repro.Client, img *repro.EncryptedImage) {
	golden := seedBase(img)
	keys := keychain()
	a, err := repro.CloneEncryptedImage(client, "rbd", "demo", "golden", "tenant-a",
		keys, repro.Options{Scheme: core.SchemeGCM, Layout: core.LayoutObjectEnd})
	if err != nil {
		log.Fatal(err)
	}
	f, err := repro.StartFlatten(a)
	if err != nil {
		log.Fatal(err)
	}
	f.SetPace(repro.NewPacer(200, 256<<20)) // cap the walker at 200 ops/s, 256 MB/s
	if _, err := f.Run(0); err != nil {
		log.Fatal(err)
	}
	p := f.Progress()
	fmt.Printf("flattened tenant-a: %d objects walked, %d blocks copied up and re-sealed under the child's key\n",
		p.Objects, p.Copied)

	// The base is no longer needed: delete it and reopen the child with
	// only its own credential.
	if _, err := rbd.Remove(0, client, "rbd", "demo"); err != nil {
		log.Fatal(err)
	}
	a2, err := repro.OpenClonedImage(client, "rbd", "tenant-a", repro.Keychain{"tenant-a": keys["tenant-a"]})
	if err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, 4096)
	if _, err := a2.ReadAt(0, buf, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("base deleted; tenant-a round-trips alone: buf[1]=0x%02x (golden 0x%02x), parent=%v\n",
		buf[1], golden[1], a2.Parent())
}

func demo(cluster *repro.Cluster, img *repro.EncryptedImage) {
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i*7) | 1
	}
	if _, err := img.WriteAt(0, data, 0); err != nil {
		log.Fatal(err)
	}
	id, _, err := img.CreateSnap(0, "checkpoint")
	if err != nil {
		log.Fatal(err)
	}
	for i := range data {
		data[i] = byte(i*13) | 1
	}
	if _, err := img.WriteAt(0, data, 0); err != nil {
		log.Fatal(err)
	}
	head := make([]byte, 4096)
	if _, err := img.ReadAt(0, head, 0); err != nil {
		log.Fatal(err)
	}
	old := make([]byte, 4096)
	if _, err := img.ReadAtSnap(0, old, 0, id); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot %q id=%d: head[1]=0x%02x snap[1]=0x%02x (independent versions)\n",
		"checkpoint", id, head[1], old[1])

	disk := cluster.DiskStats()
	kv := cluster.KVStats()
	blob := cluster.BlobStats()
	fmt.Printf("cluster counters:\n")
	fmt.Printf("  devices: %v\n", disk)
	fmt.Printf("  objectstore: txns=%d alignedWrites=%d deferredWrites=%d rmwReads=%d\n",
		blob.Txns, blob.AlignedWrites, blob.DeferredWrites, blob.RMWReads)
	fmt.Printf("  kv: applies=%d entries=%d flushes=%d compactions=%d walBytes=%d\n",
		kv.Applies, kv.EntriesWritten, kv.Flushes, kv.Compactions, kv.WALBytes)
}

func rekey(img *repro.EncryptedImage) {
	// Precondition a span so the walker has real work.
	span := img.Size()
	if span > 16<<20 {
		span = 16 << 20
	}
	if _, err := fio.Precondition(img, span, 4096, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("epochs before rotation: current=%d live=%v\n", img.CurrentEpoch(), img.Epochs())

	r, err := repro.StartRekey(img)
	if err != nil {
		log.Fatal(err)
	}
	// Online: an fio workload runs against the image while the walker
	// sweeps it.
	var wg sync.WaitGroup
	wg.Add(1)
	var res repro.WorkloadResult
	var fioErr error
	go func() {
		defer wg.Done()
		res, fioErr = repro.RunWorkload(repro.WorkloadSpec{
			Pattern: fio.RandWrite, BlockSize: 4096, QueueDepth: 8,
			Span: span, TotalOps: 512,
		}, img, 0)
	}()
	if _, err := r.Run(0); err != nil {
		log.Fatal(err)
	}
	wg.Wait()
	if fioErr != nil {
		log.Fatal(fioErr)
	}
	p := r.Progress()
	fmt.Printf("rotated epoch %d -> %d: %d objects walked, %d blocks re-sealed, retired key destroyed\n",
		p.From, p.To, p.Objects, p.Rekeyed)
	fmt.Printf("concurrent workload during rotation: %s\n", res)
	fmt.Printf("epochs after rotation: current=%d live=%v\n", img.CurrentEpoch(), img.Epochs())
}

func discard(img *repro.EncryptedImage) {
	data := make([]byte, 64<<10)
	for i := range data {
		data[i] = byte(i*11) | 1
	}
	if _, err := img.WriteAt(0, data, 0); err != nil {
		log.Fatal(err)
	}
	// Crypto-erase the middle 8 blocks.
	const off, length = 4 * 4096, 8 * 4096
	if _, err := img.Discard(0, off, length); err != nil {
		log.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := img.ReadAt(0, got, 0); err != nil {
		log.Fatal(err)
	}
	holes := 0
	for b := 0; b < len(got)/4096; b++ {
		if bytes.Equal(got[b*4096:(b+1)*4096], make([]byte, 4096)) {
			holes++
		}
	}
	fmt.Printf("discarded [%d,+%d): %d of %d blocks now read as holes\n", off, length, holes, len(got)/4096)

	// Attacker view: the stored payload of the discarded range is zeros.
	res, _, err := img.Image().Operate(0, 0, 0, []rados.Op{{Kind: rados.OpStat}})
	if err != nil || res[0].Status != rados.StatusOK {
		log.Fatal("stat failed")
	}
	raw, _, err := img.Image().Operate(0, 0, 0, []rados.Op{{Kind: rados.OpRead, Off: 0, Len: res[0].Size}})
	if err != nil {
		log.Fatal(err)
	}
	nonzero := 0
	for _, b := range raw[0].Data {
		if b != 0 {
			nonzero++
		}
	}
	fmt.Printf("storage-level object payload: %d bytes, %d non-zero (ciphertext of retained blocks only)\n",
		len(raw[0].Data), nonzero)

	if err := func() error {
		_, err := img.Discard(0, 100, 4096)
		return err
	}(); err != nil {
		fmt.Printf("unaligned discard rejected as expected: %v\n", err)
	}
}
