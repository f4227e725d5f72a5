// Package fio generates block-device workloads and measures bandwidth,
// standing in for the fio tool of §3.3: random or sequential reads and
// writes at a fixed block size with a bounded queue depth (the paper uses
// QD 32), reporting virtual-time bandwidth plus latency percentiles.
package fio

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/vtime"
)

// Target is a virtual-time block device: encrypted and plain images
// both satisfy it.
type Target interface {
	ReadAt(at vtime.Time, p []byte, off int64) (vtime.Time, error)
	WriteAt(at vtime.Time, p []byte, off int64) (vtime.Time, error)
	Size() int64
}

// Discarder is the optional crypto-erase surface (fio's trim support):
// targets that implement it can run workloads with a discard op mix.
type Discarder interface {
	Discard(at vtime.Time, off, length int64) (vtime.Time, error)
}

// Pattern selects the access pattern.
type Pattern int

// Patterns, named after fio's rw= values.
const (
	RandRead Pattern = iota
	RandWrite
	SeqRead
	SeqWrite
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case RandRead:
		return "randread"
	case RandWrite:
		return "randwrite"
	case SeqRead:
		return "read"
	case SeqWrite:
		return "write"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// ParsePattern is the inverse of String.
func ParsePattern(s string) (Pattern, error) {
	for _, p := range []Pattern{RandRead, RandWrite, SeqRead, SeqWrite} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("fio: unknown pattern %q", s)
}

// Reads reports whether the pattern reads.
func (p Pattern) Reads() bool { return p == RandRead || p == SeqRead }

// Spec describes one workload.
type Spec struct {
	Pattern    Pattern
	BlockSize  int64
	QueueDepth int
	// Span restricts IO to [0, Span) of the target (0 = whole target).
	Span int64
	// TotalOps ends the run after this many IOs.
	TotalOps int
	// Seed makes offset sequences reproducible.
	Seed int64
	// TrimPct makes that percentage of ops discards (fio's trim mix),
	// at random block-aligned offsets. The target must implement
	// Discarder.
	TrimPct int
}

func (s Spec) withDefaults(target Target) (Spec, error) {
	if s.BlockSize <= 0 {
		return s, errors.New("fio: block size required")
	}
	if s.QueueDepth <= 0 {
		s.QueueDepth = 32
	}
	if s.Span <= 0 || s.Span > target.Size() {
		s.Span = target.Size()
	}
	if s.Span < s.BlockSize {
		return s, fmt.Errorf("fio: span %d below block size %d", s.Span, s.BlockSize)
	}
	if s.TotalOps <= 0 {
		s.TotalOps = 256
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.TrimPct < 0 || s.TrimPct > 100 {
		return s, fmt.Errorf("fio: trim percentage %d out of range", s.TrimPct)
	}
	if s.TrimPct > 0 {
		if _, ok := target.(Discarder); !ok {
			return s, errors.New("fio: trim mix needs a target with Discard support")
		}
	}
	return s, nil
}

// Result summarizes one run.
type Result struct {
	Spec     Spec
	Ops      int
	Discards int // ops that were discards (counted in Ops, not Bytes)
	Bytes    int64
	Start    vtime.Time
	End      vtime.Time // latest virtual completion
	// WallTime is the host wall-clock duration of the run. Run does not
	// measure it — the simulation packages are virtual-time only
	// (vetrepo's vtimeonly analyzer enforces this) — the harness that
	// calls Run stamps it afterwards; see bench.timedRun and cmd/fiosim.
	WallTime  time.Duration
	Latencies LatencySummary // all ops merged
	// Per-op-type latency breakdowns (what fio prints per ddir). An op
	// type the run never issued has Ops == 0 and a zero summary.
	Reads, Writes, Trims OpStats
}

// LatencySummary holds virtual-time latency percentiles.
type LatencySummary struct {
	P50, P95, P99, Max time.Duration
}

// OpStats is the per-op-type slice of a run: op count, total virtual
// latency, and the percentile summary over just that op type.
type OpStats struct {
	Ops int
	Sum time.Duration // total virtual latency across these ops
	Lat LatencySummary
}

// Mean returns the average virtual latency of one op, or 0 when none ran.
func (o OpStats) Mean() time.Duration {
	if o.Ops == 0 {
		return 0
	}
	return o.Sum / time.Duration(o.Ops)
}

// MBps returns virtual-time bandwidth in MB/s (decimal, as fio reports).
func (r Result) MBps() float64 {
	d := r.End.Sub(r.Start)
	if d <= 0 {
		return 0
	}
	return float64(r.Bytes) / d.Seconds() / 1e6
}

// WallMBps returns real-CPU bandwidth in MB/s: bytes moved over the
// wall-clock time the run took on the host. The virtual-time figures
// reproduce the paper's y-axes; this one measures the client datapath
// itself (seal/open pipeline, layout staging, engine overhead), so
// speedups from the parallel pipeline show up here.
func (r Result) WallMBps() float64 {
	if r.WallTime <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.WallTime.Seconds() / 1e6
}

// IOPS returns virtual-time operations per second.
func (r Result) IOPS() float64 {
	d := r.End.Sub(r.Start)
	if d <= 0 {
		return 0
	}
	return float64(r.Ops) / d.Seconds()
}

// EffectiveQD reports the average virtual-time concurrency the run
// sustained: total per-op latency over the makespan (Little's law). A
// run that kept every job busy approaches the configured QueueDepth;
// admission stalls pull it down.
func (r Result) EffectiveQD() float64 {
	d := r.End.Sub(r.Start)
	if d <= 0 {
		return 0
	}
	return float64(r.Reads.Sum+r.Writes.Sum+r.Trims.Sum) / float64(d)
}

func (r Result) String() string {
	return fmt.Sprintf("%s bs=%dKiB qd=%d: %.1f MB/s, %.0f IOPS, p50=%v p99=%v",
		r.Spec.Pattern, r.Spec.BlockSize>>10, r.Spec.QueueDepth, r.MBps(), r.IOPS(),
		r.Latencies.P50, r.Latencies.P99)
}

// PerOpString renders the per-op-type latency breakdown, fio-style: one
// line per op type that actually ran.
func (r Result) PerOpString() string {
	s := ""
	for _, e := range []struct {
		name string
		o    OpStats
	}{{"read", r.Reads}, {"write", r.Writes}, {"trim", r.Trims}} {
		if e.o.Ops == 0 {
			continue
		}
		if s != "" {
			s += "\n"
		}
		s += fmt.Sprintf("  %-5s ops=%-6d mean=%-10v p50=%-10v p95=%-10v p99=%-10v max=%v",
			e.name, e.o.Ops, e.o.Mean(), e.o.Lat.P50, e.o.Lat.P95, e.o.Lat.P99, e.o.Lat.Max)
	}
	return s
}

// Run executes the workload. Each of QueueDepth jobs keeps one IO
// outstanding; IOs run concurrently in real time but are *admitted* in
// approximately virtual-time order (a conservative-simulation window):
// a job may issue its next IO only while its virtual clock is within a
// small adaptive window of the laggard's. Without this gate, jobs racing
// ahead in real time stamp the busy-until resources far into the virtual
// future and ops with earlier virtual arrivals queue behind them —
// causality violations that show up as a spurious latency tail.
//
// Admission is per-op: a completing job re-enters the moment its clock
// re-qualifies, with no barrier against its peers. The previous
// implementation admitted jobs in waves and then waited — in real time —
// for the whole wave to drain, so one op that was slow on the host
// serialized every other job behind it and the wall-clock pipeline
// drained at small block sizes (ROADMAP item). Before/after, measured on
// a QD-4 4 KiB randread target where one op in 16 straggles for 5ms of
// real time: fast-op overlap per straggler 1.3 -> 6.0 (the wave gate's
// hard ceiling is QD-1 = 3; TestPerOpAdmissionOverlap pins the floor at
// 4.5) and run wall time 142ms -> 84ms. Virtual-time figures are
// unchanged — same window, same admission order for the simulated
// resources — so the paper's bandwidth curves are unaffected while
// Result.WallMBps and Result.EffectiveQD reflect a full queue
// (TestEffectiveQueueDepth).
func Run(spec Spec, target Target, start vtime.Time) (Result, error) {
	spec, err := spec.withDefaults(target)
	if err != nil {
		return Result{}, err
	}
	blocks := spec.Span / spec.BlockSize

	type jobState struct {
		now     vtime.Time
		rng     *rand.Rand
		buf     []byte
		seqNext int64
	}
	jobs := make([]jobState, spec.QueueDepth)
	for j := range jobs {
		jobs[j].now = start
		jobs[j].rng = rand.New(rand.NewSource(spec.Seed + int64(j)*7919))
		jobs[j].buf = make([]byte, spec.BlockSize)
		if !spec.Pattern.Reads() {
			// Each job writes its own non-zero pattern: zero payloads
			// would defeat encryption-layer checks.
			fillJobPattern(jobs[j].buf, j)
		}
		jobs[j].seqNext = int64(j) * (blocks / int64(spec.QueueDepth)) * spec.BlockSize
	}

	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		issued   int
		discards int
		maxEnd   = start
		lats     = make([]time.Duration, 0, spec.TotalOps)
		opLats   [nOpTypes][]time.Duration
		opSum    [nOpTypes]time.Duration
		firstErr error
		ewma     = time.Millisecond // adaptive admission window seed
	)
	trimmer, _ := target.(Discarder)

	// minNow is the laggard's clock; callers hold mu. In-flight jobs
	// count with the arrival time of their current op, which is
	// conservative (the window anchors lower than it needs to).
	minNow := func() vtime.Time {
		m := jobs[0].now
		for j := 1; j < len(jobs); j++ {
			if jobs[j].now < m {
				m = jobs[j].now
			}
		}
		return m
	}

	worker := func(j int) {
		js := &jobs[j]
		for {
			mu.Lock()
			// The laggard itself always qualifies (its clock IS the
			// minimum), so some job can make progress at any moment and
			// the wait cannot deadlock.
			for firstErr == nil && issued < spec.TotalOps &&
				js.now > minNow().Add(vtime.Duration(3*ewma)) {
				cond.Wait()
			}
			if firstErr != nil || issued >= spec.TotalOps {
				mu.Unlock()
				return
			}
			issued++
			// Offset and op-mix draws stay under mu and keep the per-job
			// draw order of the wave engine, so fixed seeds reproduce the
			// same per-job sequences (TestDeterministicOffsets).
			var off int64
			switch spec.Pattern {
			case RandRead, RandWrite:
				off = js.rng.Int63n(blocks) * spec.BlockSize
			default:
				off = js.seqNext % spec.Span
				if off+spec.BlockSize > spec.Span {
					off = 0
				}
				js.seqNext = off + spec.BlockSize
			}
			isTrim := spec.TrimPct > 0 && js.rng.Intn(100) < spec.TrimPct
			arrival := js.now
			mu.Unlock()

			var end vtime.Time
			var err error
			switch {
			case isTrim:
				end, err = trimmer.Discard(arrival, off, spec.BlockSize)
			case spec.Pattern.Reads():
				end, err = target.ReadAt(arrival, js.buf, off)
			default:
				end, err = target.WriteAt(arrival, js.buf, off)
			}

			mu.Lock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("fio: %s off=%d: %w", spec.Pattern, off, err)
				}
				cond.Broadcast()
				mu.Unlock()
				return
			}
			if isTrim {
				discards++
			}
			op := opRead
			switch {
			case isTrim:
				op = opTrim
			case !spec.Pattern.Reads():
				op = opWrite
			}
			lat := end.Sub(arrival)
			lats = append(lats, lat)
			opLats[op] = append(opLats[op], lat)
			opSum[op] += lat
			mFioLat[op].Observe(lat)
			ewma += (lat - ewma) / 16
			if end > maxEnd {
				maxEnd = end
			}
			js.now = end
			cond.Broadcast()
			mu.Unlock()
		}
	}

	var wg sync.WaitGroup
	for j := range jobs {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			worker(j)
		}(j)
	}
	wg.Wait()
	if firstErr != nil {
		return Result{}, firstErr
	}

	res := Result{
		Spec:     spec,
		Ops:      len(lats),
		Discards: discards,
		Bytes:    int64(len(lats)-discards) * spec.BlockSize,
		Start:    start,
		End:      maxEnd,
		Reads:    opStats(opLats[opRead], opSum[opRead]),
		Writes:   opStats(opLats[opWrite], opSum[opWrite]),
		Trims:    opStats(opLats[opTrim], opSum[opTrim]),
	}
	res.Latencies = summarize(lats)
	return res, nil
}

func opStats(lats []time.Duration, sum time.Duration) OpStats {
	return OpStats{Ops: len(lats), Sum: sum, Lat: summarize(lats)}
}

func summarize(lats []time.Duration) LatencySummary {
	if len(lats) == 0 {
		return LatencySummary{}
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	return LatencySummary{
		P50: at(0.50),
		P95: at(0.95),
		P99: at(0.99),
		Max: sorted[len(sorted)-1],
	}
}

// jobPatternPeriod is the period of the write payload pattern:
// 2048*131>>3 is a multiple of 256.
const jobPatternPeriod = 2048

// fillJobPattern fills buf with job j's write payload,
// byte(j+1) ^ byte(i*131>>3) at byte i: one period is computed and
// copied forward in doubling strides.
func fillJobPattern(buf []byte, j int) {
	head := buf[:min(len(buf), jobPatternPeriod)]
	for i := range head {
		head[i] = byte(j+1) ^ byte(i*131>>3)
	}
	for n := len(head); n < len(buf); n *= 2 {
		copy(buf[n:], buf[:n])
	}
}

// Precondition writes the whole span once with large sequential IOs so
// random reads hit allocated, decryptable blocks (the paper runs on a
// "full Ceph image").
func Precondition(target Target, span, blockSize int64, start vtime.Time) (vtime.Time, error) {
	if span <= 0 || span > target.Size() {
		span = target.Size()
	}
	const chunk = 1 << 20
	step := int64(chunk)
	if step < blockSize {
		step = blockSize
	}
	buf := make([]byte, step)
	for i := range buf {
		// Non-zero fill: hole detection no longer sniffs content (it uses
		// object existence and logical size), but distinctive payloads
		// keep encryption-layer round-trip failures visible.
		buf[i] = byte(i*131) | 1
	}
	// Parallel preconditioning with a fixed worker pool.
	type piece struct{ off, n int64 }
	var pieces []piece
	for off := int64(0); off < span; off += step {
		n := step
		if off+n > span {
			n = span - off
		}
		if n%blockSize != 0 {
			n = n / blockSize * blockSize
			if n == 0 {
				break
			}
		}
		pieces = append(pieces, piece{off, n})
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	end := start
	var firstErr error
	sem := make(chan struct{}, 16)
	for _, pc := range pieces {
		wg.Add(1)
		sem <- struct{}{}
		go func(pc piece) {
			defer wg.Done()
			defer func() { <-sem }()
			e, err := target.WriteAt(start, buf[:pc.n], pc.off)
			mu.Lock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if e > end {
				end = e
			}
			mu.Unlock()
		}(pc)
	}
	wg.Wait()
	return end, firstErr
}
