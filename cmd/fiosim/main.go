// Command fiosim runs a single fio-style workload against a chosen
// scheme/layout on the paper-shaped simulated cluster and prints the
// measurement — the counterpart of one fio invocation in §3.3.
//
// Usage:
//
//	fiosim -rw randwrite -bs 64 -qd 32 -ops 2000 -scheme xts-rand -layout object-end
//
// Chaos mode arms a deterministic, seed-replayable fault plan on the
// cluster (dropped/delayed/duplicated replies, connection resets, an
// OSD crash window) and routes the workload through a verifying wrapper
// that holds every read to the correct-or-loud contract:
//
//	fiosim -rw randread -bs 4 -qd 8 -ops 2000 -scheme gcm-auth -chaos-seed 7
//
// -health brackets the measured run with health-monitor snapshots and
// prints the SLO verdict table over the run window — under a chaos
// seed the fault-rate and error-rate rules fire; clean runs print all
// ok:
//
//	fiosim -rw randwrite -bs 4 -qd 8 -ops 2000 -chaos-seed 7 -health
//
// -attr prints the always-on per-phase latency attribution table plus
// every captured slow op with its critical path; -trace-every and
// -slow-thresh tune the tracer's sampling stride and the slow-capture
// threshold:
//
//	fiosim -rw randwrite -bs 4 -qd 32 -ops 5000 -attr -slow-thresh 5ms
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fio"
	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/telemetry"
	"repro/internal/telemetry/attr"
	"repro/internal/telemetry/health"
	"repro/internal/vtime"
)

func main() {
	var (
		rw         = flag.String("rw", "randwrite", "randread | randwrite | read | write")
		bsKB       = flag.Int64("bs", 64, "block size in KiB")
		qd         = flag.Int("qd", 32, "queue depth")
		ops        = flag.Int("ops", 1000, "total operations")
		imageMB    = flag.Int64("image", 512, "image size in MiB")
		schemeName = flag.String("scheme", "xts-rand", "cipher scheme")
		layoutName = flag.String("layout", "object-end", "IV layout")
		trimPct    = flag.Int("trim", 0, "percentage of ops issued as discards")
		metrics    = flag.Bool("metrics", false, "dump the Prometheus-text telemetry snapshot after the run")
		traces     = flag.Bool("traces", false, "dump recent and slow per-op trace spans after the run")
		attrFlag   = flag.Bool("attr", false, "print the per-phase latency attribution table and slow-op critical paths after the run")
		traceEvery = flag.Int64("trace-every", 0, "keep one in every N ops' trace span in the recent ring (0 = tracer default, 1 = every op)")
		slowThresh = flag.Duration("slow-thresh", 0, "virtual latency at or past which an op is captured into the slow ring (0 = tracer default)")
		healthFlag = flag.Bool("health", false, "evaluate the SLO health rules over the run window and print the verdict table")
		chaosSeed  = flag.Int64("chaos-seed", 0, "arm a deterministic fault plan with this seed (0 = off) and verify every read: correct plaintext or loud error")
	)
	flag.Parse()

	if *traceEvery > 0 {
		telemetry.Ops.SetSampleEvery(*traceEvery)
	}
	if *slowThresh > 0 {
		telemetry.Ops.SetSlowThreshold(vtime.Duration(*slowThresh))
	}

	pattern, err := fio.ParsePattern(*rw)
	if err != nil {
		log.Fatal(err)
	}
	scheme, err := core.ParseScheme(*schemeName)
	if err != nil {
		log.Fatal(err)
	}
	layout, err := core.ParseLayout(*layoutName)
	if err != nil {
		log.Fatal(err)
	}

	cfg := bench.PaperCluster()
	if *chaosSeed != 0 {
		// The benchmark cluster is cost-only (payloads discarded); chaos
		// verification reads data back, so it needs real storage.
		cfg.EphemeralData = false
	}
	cluster, err := rados.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	client := cluster.NewClient("fiosim")
	if _, err := rbd.Create(0, client, "rbd", "img", *imageMB<<20); err != nil {
		log.Fatal(err)
	}
	img, _, err := rbd.Open(0, client, "rbd", "img")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := core.Format(0, img, []byte("x"), core.Options{Scheme: scheme, Layout: layout}); err != nil {
		log.Fatal(err)
	}
	enc, _, err := core.Load(0, img, []byte("x"))
	if err != nil {
		log.Fatal(err)
	}
	// In chaos mode the whole workload — preconditioning included — runs
	// through fio.Verifier, which stamps write payloads and checks every
	// read against them: correct plaintext, loud error, or it is silent
	// garbage and the run fails.
	target := fio.Target(enc)
	var verifier *fio.Verifier
	if *chaosSeed != 0 {
		verifier = fio.NewVerifier(enc, core.DefaultBlockSize)
		verifier.Tolerate = func(err error) bool { return errors.Is(err, fault.ErrInjected) }
		verifier.Loud = func(err error) bool {
			return errors.Is(err, core.ErrIntegrity) || errors.Is(err, core.ErrKeyErased)
		}
		target = verifier
	}
	now, err := fio.Precondition(target, 0, core.DefaultBlockSize, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("preconditioned %d MiB image (%v/%v)\n", *imageMB, scheme, layout)

	// The health monitor brackets the measured run: one snapshot before,
	// one after, so the rules evaluate over exactly the run window.
	var mon *health.Monitor
	if *healthFlag {
		mon = health.NewMonitor(telemetry.Default)
		mon.Observe(now)
	}

	if *chaosSeed != 0 {
		// Network faults only: each is atomic per request (fully executed
		// or never ran), so every manifestation is either tolerated or
		// loud regardless of scheme. Media faults live in the test suite,
		// where their blast radius is controlled per scheme.
		cluster.ArmFaults(fault.NewPlan(*chaosSeed, fault.Config{
			Prob: map[fault.Kind]float64{
				fault.DropReply:  0.02,
				fault.DelayReply: 0.03,
				fault.DupReply:   0.02,
				fault.ConnReset:  0.01,
			},
			Down: []fault.Window{{From: vtime.Time(5e6), To: vtime.Time(9e6)}},
		}))
		fmt.Printf("chaos mode: fault plan armed with seed %d\n", *chaosSeed)
	}

	// A failure's reproducer is the invocation itself, so it reruns
	// the same image, span and offsets whatever flags were given.
	reproducer := "fiosim " + strings.Join(os.Args[1:], " ")
	wallStart := time.Now()
	res, err := fio.Run(fio.Spec{
		Pattern:    pattern,
		BlockSize:  *bsKB << 10,
		QueueDepth: *qd,
		TotalOps:   *ops,
		TrimPct:    *trimPct,
	}, target, now)
	res.WallTime = time.Since(wallStart)
	if err != nil {
		if *chaosSeed != 0 {
			log.Fatalf("workload aborted under faults: %v\nreproduce with: %s", err, reproducer)
		}
		log.Fatal(err)
	}
	if verifier != nil {
		cluster.ArmFaults(nil)
		s := verifier.Stats()
		fmt.Printf("chaos verification: %v\n", s)
		if s.GarbageBlocks != 0 {
			log.Fatalf("SILENT GARBAGE: %d blocks read back wrong data without an error\nreproduce with: %s",
				s.GarbageBlocks, reproducer)
		}
	}
	fmt.Println(res)
	fmt.Printf("latency: p50=%v p95=%v p99=%v max=%v (virtual)\n",
		res.Latencies.P50, res.Latencies.P95, res.Latencies.P99, res.Latencies.Max)
	if perOp := res.PerOpString(); perOp != "" {
		fmt.Println(perOp)
	}
	fmt.Printf("wall time: %v\n", res.WallTime)

	if mon != nil {
		mon.Observe(res.End)
		fmt.Printf("\n%s\n", mon.Report(res.End))
	}
	if *traces {
		fmt.Println("\nrecent op traces (newest first):")
		for _, rec := range telemetry.Ops.Recent() {
			fmt.Printf("  %s\n", rec.String())
		}
		if slow := telemetry.Ops.Slow(); len(slow) > 0 {
			fmt.Println("slow ops:")
			for _, rec := range slow {
				fmt.Printf("  %s\n", rec.String())
			}
		}
	}
	if *attrFlag {
		fmt.Printf("\nlatency attribution (100%% of traffic):\n%s", attr.Table())
		if slow := attr.SlowOps(); len(slow) > 0 {
			fmt.Printf("slow ops (>= %v), newest first:\n", telemetry.Ops.SlowThreshold())
			for _, s := range slow {
				fmt.Print(s.Path)
			}
		}
	}
	if *metrics {
		fmt.Println("\ntelemetry snapshot:")
		if _, err := telemetry.Default.WriteTo(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}
