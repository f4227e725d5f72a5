package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fio"
)

// metrics maps a metric name from BENCHMARK.json to its measured value.
type metrics map[string]float64

// runConfig is one invocation: the driver's four arguments plus the
// sizing the smoke test shrinks.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	size    sizing
}

// result is everything one run measured. EndToEnd always holds the
// untraced chunks' numbers; PerLayer is filled by a traced run only.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Host      hostInfo `json:"host"`
	Chunks    int      `json:"chunks"`        // untraced chunks behind the end-to-end metrics
	ChunkOps  int      `json:"ops_per_chunk"` // also the sample count of each chunk's latency percentiles
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	BadBlocks int64    `json:"bad_blocks"`
	// FailedOpsPct is 100 * Failed / Attempted. It is 0 on every good
	// run, which the benchmark contract does not allow of an end-to-end
	// metric, so every run prints it by name, the result line carries it
	// as attempted/failed and a traced run lists it with the per-layer
	// metrics.
	FailedOpsPct float64 `json:"failed_ops_pct"`
	// Where the run's wall time went, in seconds: every set-up, the
	// measured window, the read-back check, and the luks2 twin or the
	// ladder.
	SetupSeconds  []float64 `json:"setup_seconds"`
	WindowSeconds float64   `json:"window_seconds"`
	VerifySeconds float64   `json:"verify_seconds"`
	AfterSeconds  float64   `json:"twin_or_ladder_seconds"`
	// The untraced chunks' wall bandwidth, CPU microseconds per op and
	// virtual latency median, p99 and bandwidth in window order: a
	// drifting or bimodal series here is the host, the GC or the
	// simulation, not the code.
	ChunkWallMBps []float64 `json:"chunk_wall_mb_per_s"`
	ChunkCPUus    []float64 `json:"chunk_cpu_us_per_op"`
	ChunkVtP50us  []float64 `json:"chunk_vt_p50_us"`
	ChunkVtP99us  []float64 `json:"chunk_vt_p99_us"`
	ChunkVtMBps   []float64 `json:"chunk_vt_mb_per_s"`
	EndToEnd      metrics   `json:"end_to_end"`
	PerLayer      metrics   `json:"per_layer,omitempty"`
	RunError      string    `json:"run_error,omitempty"` // first fio error inside the window
	// CalibMs is the fixed AES spin before the run, CalibDriftPct how
	// much slower it ran after it.
	CalibMs       float64 `json:"calib_ms"`
	CalibDriftPct float64 `json:"calib_drift_pct"`

	spans *spanLog
}

// twinChunkBytes caps the IO of one chunk of the luks2 twin: LUKS2 reads
// 1 MiB five times slower on the host than GCM does.
const twinChunkBytes = 1536 << 20

// failedOps counts what failed_ops_pct counts: planned ops that did not
// complete (they errored, or fio aborted before issuing them) plus
// blocks that read back wrong.
func failedOps(planned, completed, badBlocks int64) int64 {
	return max(planned-completed, 0) + badBlocks
}

func (r *result) failedPct() float64 { return 100 * float64(r.Failed) / float64(r.Attempted) }

// chunk is one fio.Run of the measured window with the host counters
// read around it.
type chunk struct {
	traced              bool
	res                 fio.Result
	wall, cpu           time.Duration
	mallocs, allocBytes uint64
	devBytes            int64
}

// runWindow drives the workload in n untraced chunks of ops ops each,
// sized by the caller so the window lasts about the requested seconds on
// the reference box. The work is fixed, not the time, so two commits do
// the same ops and leave the same store state, and every metric that
// depends on how much has been written (resident set, LSM shape) is
// comparable; a host or commit that is faster finishes sooner. Only a
// host so slow that the window passes three times its nominal length is
// cut short. In a traced run every chunk is followed by a repeat of the same
// seed through the span-recording target, so the two halves of a pair
// differ in nothing but the tracing.
func runWindow(s *stack, cfg runConfig, n, ops int, spans *spanLog) (chunks []chunk, planned int64, runErr error) {
	window := spans.open("window", 0, 0)
	defer spans.close(window)
	giveUp := time.Now().Add(time.Duration(3 * cfg.seconds * float64(time.Second)))
	for i := 0; i < n; i++ {
		if i >= minChunks && time.Now().After(giveUp) {
			break
		}
		spec := cfg.w.spec(cfg.size, ops, chunkSeed(cfg.seed, i))
		planned += int64(ops)
		c, err := runChunk(s, spec, nil, 0)
		if err != nil {
			return chunks, planned, err
		}
		chunks = append(chunks, c)
		if cfg.trace {
			planned += int64(ops)
			if c, err = runChunk(s, spec, spans, window); err != nil {
				return chunks, planned, err
			}
			chunks = append(chunks, c)
		}
	}
	return chunks, planned, nil
}

// runChunk is one fio.Run against the stack with the host counters read
// around it; with spans it goes through the span-recording target.
func runChunk(s *stack, spec fio.Spec, spans *spanLog, parent int) (chunk, error) {
	c := chunk{traced: spans != nil}
	var target fio.Target = s.enc
	if c.traced {
		id := spans.open("chunk", parent, spec.TotalOps)
		defer spans.close(id)
		target = &spanTarget{inner: s.enc, log: spans, parent: id}
	}
	var before, after runtime.MemStats
	disk := s.cluster.DiskStats()
	runtime.ReadMemStats(&before)
	cpu := cpuTime()
	start := time.Now()
	res, err := fio.Run(spec, target, s.now)
	c.wall = time.Since(start)
	c.cpu = cpuTime() - cpu
	runtime.ReadMemStats(&after)
	if err != nil {
		return c, err
	}
	c.res = res
	c.mallocs = after.Mallocs - before.Mallocs
	c.allocBytes = after.TotalAlloc - before.TotalAlloc
	c.devBytes = devBytes(disk, s.cluster.DiskStats())
	s.now = res.End
	return c, nil
}

// chunks is the length of the measured window in untraced chunks: the
// workload's count for the nominal run length, scaled by --seconds. A
// traced run measures half as many pairs, so both kinds of run take
// about as long.
func (cfg runConfig) chunks() int {
	n := float64(cfg.w.chunks) * cfg.seconds / nominalSeconds
	if cfg.trace {
		n /= 2
	}
	return max(minChunks, int(n+0.5))
}

// meanOf and medianOf reduce one per-chunk quantity over chunks.
func meanOf(chunks []chunk, f func(chunk) float64) float64 {
	var sum float64
	for _, c := range chunks {
		sum += f(c)
	}
	return sum / float64(len(chunks))
}

func medianOf(chunks []chunk, f func(chunk) float64) float64 {
	v := make([]float64, len(chunks))
	for i, c := range chunks {
		v[i] = f(c)
	}
	return median(v)
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }

func wallMBps(c chunk) float64 { return float64(c.res.Bytes) / c.wall.Seconds() / 1e6 }

// endToEnd reduces the untraced chunks to the end-to-end metrics, each
// by the statistic that is steadiest for its kind on a shared two-vCPU
// box:
//
//   - host rates (wall_mb_per_s, cpu_us_per_op) are those of the fastest
//     chunk. Neighbours on the host only ever slow a chunk down, by up to
//     tens of percent for seconds at a time, so the best of several
//     second-long chunks estimates what the code costs far more tightly
//     than their median or total;
//   - allocations and device bytes are counted over the whole window;
//   - allocated bytes are the median chunk's. Over the whole window the
//     1 MiB read allocates 4.7 KB per op plus, by chance, between none
//     and eleven 1 MiB pool buffers (a new high-water mark of buffers in
//     flight), each 37 B per op: the total moves by 6 % from run to run
//     and the median chunk not at all, while anything a change does to
//     every op moves both alike;
//   - virtual-time figures are means over chunks, each chunk being an
//     independent sample of the same simulated steady state with no
//     host noise in it. A mean, not a median: the 1 MiB read's latencies
//     sit on discrete levels 84 us apart, a chunk's p50 is one of them,
//     and the median of chunks would be the same level to the nanosecond
//     on every run or jump a whole level between runs.
func endToEnd(m metrics, chunks []chunk) {
	var ops, userBytes, dev int64
	var mallocs uint64
	bestWall, bestCPU := 0.0, math.Inf(1)
	for _, c := range chunks {
		ops += int64(c.res.Ops)
		userBytes += c.res.Bytes
		dev += c.devBytes
		mallocs += c.mallocs
		bestWall = max(bestWall, wallMBps(c))
		bestCPU = min(bestCPU, micros(c.cpu)/float64(c.res.Ops))
	}
	m["wall_mb_per_s"] = bestWall
	m["cpu_us_per_op"] = bestCPU
	m["allocs_per_op"] = float64(mallocs) / float64(ops)
	m["alloc_bytes_per_op"] = medianOf(chunks, func(c chunk) float64 { return float64(c.allocBytes) / float64(c.res.Ops) })
	m["dev_bytes_per_user_byte"] = float64(dev) / float64(userBytes)
	m["vt_mb_per_s"] = meanOf(chunks, func(c chunk) float64 { return c.res.MBps() })
	m["vt_p50_us"] = meanOf(chunks, func(c chunk) float64 { return micros(c.res.Latencies.P50) })
	m["vt_p99_us"] = meanOf(chunks, func(c chunk) float64 { return micros(c.res.Latencies.P99) })
}

// run executes one workload once, end to end.
func run(cfg runConfig, host hostInfo) (*result, error) {
	r := &result{Workload: cfg.w.name, Seed: cfg.seed, Trace: cfg.trace, Host: host,
		EndToEnd: metrics{}, ChunkOps: cfg.size.ops(cfg.w.chunkOps), spans: newSpanLog()}
	calibBefore := calibrate()

	s, err := setUp(cfg, r)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	err = measure(s, cfg, r)
	s.close()
	if err != nil {
		return nil, err
	}

	after := time.Now()
	if cfg.trace {
		if err := runLadder(r.PerLayer, cfg, r.spans); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	} else {
		// After the window, so the twin cannot touch the host metrics,
		// and with the main stack's memory given back first.
		s = nil
		releaseMemory()
		twin, err := luks2Bandwidth(cfg)
		if err != nil {
			return nil, fmt.Errorf("luks2 twin: %w", err)
		}
		r.EndToEnd["vt_bw_vs_luks2"] = r.EndToEnd["vt_mb_per_s"] / twin
	}
	r.AfterSeconds = time.Since(after).Seconds()

	r.CalibMs = 1e3 * calibBefore.Seconds()
	r.CalibDriftPct = 100 * (calibrate().Seconds() - calibBefore.Seconds()) / calibBefore.Seconds()
	if cfg.trace {
		r.PerLayer["host.calib_drift_pct"] = r.CalibDriftPct
	}
	return r, nil
}

// setUp builds the stack the window runs on and records setup_s. Set-up
// is run and timed several times and only the last stack is kept; each
// earlier one is closed and its memory returned to the OS, so every
// set-up starts from the same footprint. The kept set-up ends with a
// collection, outside the timing, so the window starts from the live
// heap with the collector's next cycle a fixed distance away. Without
// that the window inherits whatever phase set-up left the collector in,
// and the resident-set high-water mark of the 1 MiB write, which fills
// the heap once in a window, moved by 15 % from run to run. A traced run
// reports per-layer metrics only and sets up once.
func setUp(cfg runConfig, r *result) (*stack, error) {
	setups := cfg.size.setups
	if cfg.trace {
		setups = 1
	}
	var s *stack
	for i := 0; i < setups; i++ {
		var took time.Duration
		var err error
		if s, took, err = buildStack(cfg.w, cfg.w.scheme, cfg.w.layout, cfg.size, cfg.size.ops(cfg.w.warmOps), cfg.seed); err != nil {
			return nil, err
		}
		r.SetupSeconds = append(r.SetupSeconds, took.Seconds())
		if i < setups-1 {
			s.close()
			s = nil
			releaseMemory()
		}
	}
	runtime.GC()
	r.EndToEnd["setup_s"] = median(r.SetupSeconds)
	return s, nil
}

// measure runs the window on s, checks the image, and fills in every
// metric that comes from the window itself.
func measure(s *stack, cfg runConfig, r *result) error {
	before := takeReading(s.cluster, cfg.w)
	start := time.Now()
	chunks, planned, runErr := runWindow(s, cfg, cfg.chunks(), r.ChunkOps, r.spans)
	r.WindowSeconds = time.Since(start).Seconds()
	after := takeReading(s.cluster, cfg.w)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	if runErr != nil {
		r.RunError = runErr.Error()
	}

	// An op failed if it errored, was never issued after fio aborted, or
	// left a block that reads back wrong. core counts the ops it
	// completed, so the first two are what the plan has beyond that.
	completed := after.sealOps - before.sealOps + after.openOps - before.openOps
	start = time.Now()
	r.BadBlocks = verifyImage(s.enc, cfg.w, cfg.w.jobs(cfg.size))
	r.VerifySeconds = time.Since(start).Seconds()
	r.Attempted = planned
	r.Failed = failedOps(planned, completed, r.BadBlocks)
	r.FailedOpsPct = r.failedPct()

	var untraced, traced []chunk
	var ops, userBytes int64
	for _, c := range chunks {
		ops += int64(c.res.Ops)
		userBytes += c.res.Bytes
		if c.traced {
			traced = append(traced, c)
			continue
		}
		untraced = append(untraced, c)
		r.ChunkWallMBps = append(r.ChunkWallMBps, wallMBps(c))
		r.ChunkCPUus = append(r.ChunkCPUus, micros(c.cpu)/float64(c.res.Ops))
		r.ChunkVtP50us = append(r.ChunkVtP50us, micros(c.res.Latencies.P50))
		r.ChunkVtP99us = append(r.ChunkVtP99us, micros(c.res.Latencies.P99))
		r.ChunkVtMBps = append(r.ChunkVtMBps, c.res.MBps())
	}
	if len(untraced) == 0 {
		return fmt.Errorf("measured window completed no chunk: %v", runErr)
	}
	r.Chunks = len(untraced)
	endToEnd(r.EndToEnd, untraced)
	r.EndToEnd["rss_peak_mb"] = rss

	if cfg.trace {
		r.PerLayer = metrics{}
		boundaryMetrics(r.PerLayer, before, after, ops, userBytes)
		traceMetrics(r.PerLayer, r.spans, untraced, traced)
		r.PerLayer["failed_ops_pct"] = r.FailedOpsPct
	}
	return nil
}

// luks2Bandwidth is the denominator of the Fig. 4 ratio: the virtual
// bandwidth of the same spec on an identical cluster under the LUKS2
// baseline. Only virtual time is used, so the twin skips the host
// warm-up and runs the workload's twinChunks chunks of at most
// twinChunkBytes.
func luks2Bandwidth(cfg runConfig) (float64, error) {
	twin, _, err := buildStack(cfg.w, core.SchemeLUKS2, core.LayoutNone, cfg.size, 0, cfg.seed)
	if err != nil {
		return 0, err
	}
	defer twin.close()
	n := max(1, int(float64(cfg.w.twinChunks)*cfg.seconds/nominalSeconds+0.5))
	ops := min(cfg.size.ops(cfg.w.chunkOps), int(twinChunkBytes/cfg.w.blockSize))
	chunks, _, err := runWindow(twin, cfg, n, ops, newSpanLog())
	if err != nil {
		return 0, err
	}
	return meanOf(chunks, func(c chunk) float64 { return c.res.MBps() }), nil
}
