package fio

import (
	"sync"
	"testing"
	"time"

	"repro/internal/vtime"
)

// memTarget is a deterministic fake device: every IO takes exactly
// opCost of virtual time on a single-server resource.
type memTarget struct {
	mu     sync.Mutex
	data   []byte
	res    *vtime.Resource
	opCost time.Duration
	reads  int
	writes int
}

func newMemTarget(size int64, opCost time.Duration) *memTarget {
	return &memTarget{data: make([]byte, size), res: vtime.NewResource("mem"), opCost: opCost}
}

func (m *memTarget) ReadAt(at vtime.Time, p []byte, off int64) (vtime.Time, error) {
	m.mu.Lock()
	copy(p, m.data[off:])
	m.reads++
	m.mu.Unlock()
	return m.res.Use(at, m.opCost), nil
}

func (m *memTarget) WriteAt(at vtime.Time, p []byte, off int64) (vtime.Time, error) {
	m.mu.Lock()
	copy(m.data[off:], p)
	m.writes++
	m.mu.Unlock()
	return m.res.Use(at, m.opCost), nil
}

func (m *memTarget) Size() int64 { return int64(len(m.data)) }

// trimTarget extends memTarget with Discard (zeroing, as crypto-erase
// reads back).
type trimTarget struct {
	*memTarget
	trims int
}

func (m *trimTarget) Discard(at vtime.Time, off, length int64) (vtime.Time, error) {
	m.mu.Lock()
	clear(m.data[off : off+length])
	m.trims++
	m.mu.Unlock()
	return m.res.Use(at, m.opCost), nil
}

func TestRunCountsOps(t *testing.T) {
	tgt := newMemTarget(1<<20, time.Microsecond)
	res, err := Run(Spec{Pattern: RandWrite, BlockSize: 4096, QueueDepth: 4, TotalOps: 100}, tgt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 100 || res.Bytes != 100*4096 {
		t.Fatalf("ops=%d bytes=%d", res.Ops, res.Bytes)
	}
	if tgt.writes != 100 || tgt.reads != 0 {
		t.Fatalf("device saw %d writes %d reads", tgt.writes, tgt.reads)
	}
}

func TestTrimMix(t *testing.T) {
	tgt := &trimTarget{memTarget: newMemTarget(1<<20, time.Microsecond)}
	res, err := Run(Spec{Pattern: RandWrite, BlockSize: 4096, QueueDepth: 4, TotalOps: 400, TrimPct: 25}, tgt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 400 {
		t.Fatalf("ops=%d", res.Ops)
	}
	if res.Discards != tgt.trims || tgt.writes+tgt.trims != 400 {
		t.Fatalf("discards=%d trims=%d writes=%d", res.Discards, tgt.trims, tgt.writes)
	}
	// ~25% of 400 ops; allow generous slack for the per-job RNGs.
	if res.Discards < 50 || res.Discards > 150 {
		t.Fatalf("trim mix %d/400 far from 25%%", res.Discards)
	}
	if res.Bytes != int64(400-res.Discards)*4096 {
		t.Fatalf("bytes=%d with %d discards", res.Bytes, res.Discards)
	}

	// A trim mix against a target without Discard is rejected.
	if _, err := Run(Spec{Pattern: RandWrite, BlockSize: 4096, TotalOps: 8, TrimPct: 10},
		newMemTarget(1<<20, time.Microsecond), 0); err == nil {
		t.Fatal("trim mix accepted without Discarder")
	}
	if _, err := Run(Spec{Pattern: RandWrite, BlockSize: 4096, TotalOps: 8, TrimPct: 101}, tgt, 0); err == nil {
		t.Fatal("out-of-range trim pct accepted")
	}
}

func TestBandwidthMatchesResourceCapacity(t *testing.T) {
	// Single-server device, 10µs per op: capacity is exactly
	// 4096 bytes / 10µs = 409.6 MB/s regardless of queue depth.
	tgt := newMemTarget(1<<20, 10*time.Microsecond)
	res, err := Run(Spec{Pattern: RandRead, BlockSize: 4096, QueueDepth: 8, TotalOps: 500}, tgt, 0)
	if err != nil {
		t.Fatal(err)
	}
	mbps := res.MBps()
	if mbps < 390 || mbps > 425 {
		t.Fatalf("bandwidth %.1f MB/s, want ~409.6", mbps)
	}
	if res.IOPS() < 95000 || res.IOPS() > 105000 {
		t.Fatalf("iops %.0f, want ~100000", res.IOPS())
	}
}

func TestSequentialPattern(t *testing.T) {
	tgt := newMemTarget(1<<20, time.Microsecond)
	res, err := Run(Spec{Pattern: SeqWrite, BlockSize: 8192, QueueDepth: 2, TotalOps: 64}, tgt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 64 {
		t.Fatalf("ops=%d", res.Ops)
	}
}

func TestLatencyPercentilesOrdered(t *testing.T) {
	tgt := newMemTarget(1<<20, 5*time.Microsecond)
	res, err := Run(Spec{Pattern: RandRead, BlockSize: 4096, QueueDepth: 16, TotalOps: 400}, tgt, 0)
	if err != nil {
		t.Fatal(err)
	}
	l := res.Latencies
	if l.P50 > l.P95 || l.P95 > l.P99 || l.P99 > l.Max || l.P50 <= 0 {
		t.Fatalf("percentiles out of order: %+v", l)
	}
}

func TestSpecValidation(t *testing.T) {
	tgt := newMemTarget(1<<20, time.Microsecond)
	if _, err := Run(Spec{Pattern: RandRead}, tgt, 0); err == nil {
		t.Fatal("missing block size accepted")
	}
	if _, err := Run(Spec{Pattern: RandRead, BlockSize: 2 << 20}, tgt, 0); err == nil {
		t.Fatal("block size above span accepted")
	}
}

func TestDeterministicOffsets(t *testing.T) {
	a := newMemTarget(1<<20, time.Microsecond)
	b := newMemTarget(1<<20, time.Microsecond)
	ra, err := Run(Spec{Pattern: RandWrite, BlockSize: 4096, QueueDepth: 3, TotalOps: 50, Seed: 42}, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(Spec{Pattern: RandWrite, BlockSize: 4096, QueueDepth: 3, TotalOps: 50, Seed: 42}, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Bytes != rb.Bytes || ra.Ops != rb.Ops {
		t.Fatal("same seed should reproduce the workload")
	}
}

// overlapTarget is a shared-resource device where offsets below
// slowSpan cost real wall time (a straggler op): it counts how many
// fast ops complete while at least one slow op is in flight — the
// direct measure of whether admission keeps the queue busy behind a
// straggler.
type overlapTarget struct {
	res      *vtime.Resource
	size     int64
	slowSpan int64

	mu           sync.Mutex
	slowInFlight int
	slowOps      int
	overlap      int
}

func (o *overlapTarget) Size() int64 { return o.size }

func (o *overlapTarget) ReadAt(at vtime.Time, p []byte, off int64) (vtime.Time, error) {
	slow := off < o.slowSpan
	o.mu.Lock()
	if slow {
		o.slowInFlight++
		o.slowOps++
	}
	o.mu.Unlock()
	if slow {
		//vetrepo:ignore vtimeonly deliberate host-time straggler: this test measures real wall-clock overlap
		time.Sleep(5 * time.Millisecond)
	}
	o.mu.Lock()
	if slow {
		o.slowInFlight--
	} else if o.slowInFlight > 0 {
		o.overlap++
	}
	o.mu.Unlock()
	return o.res.Use(at, 100*time.Microsecond), nil
}

func (o *overlapTarget) WriteAt(at vtime.Time, p []byte, off int64) (vtime.Time, error) {
	return o.ReadAt(at, p, off)
}

// TestPerOpAdmissionOverlap pins the reason Run admits per-op instead of
// in waves: behind one straggling op, the other jobs must keep cycling.
// The old wave gate waited (in real time) for every admitted op before
// admitting the next batch, capping fast-op overlap per straggler at a
// hard QueueDepth-1 = 3 on this spec (it measured 1.3, and 142ms of
// wall time); per-op admission sustains 6.0 (84ms) — the adaptive window
// is ~3×QD op slots wide and the jobs hold about a third of it as
// standing spread. The assertion floor of 4.5 cleanly separates the two
// engines.
func TestPerOpAdmissionOverlap(t *testing.T) {
	tgt := &overlapTarget{res: vtime.NewResource("ol"), size: 1 << 20, slowSpan: 1 << 16}
	_, err := Run(Spec{Pattern: RandRead, BlockSize: 4096, QueueDepth: 4, TotalOps: 400, Seed: 1}, tgt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tgt.slowOps == 0 {
		t.Fatal("no slow ops drawn; widen slowSpan")
	}
	avg := float64(tgt.overlap) / float64(tgt.slowOps)
	t.Logf("slow ops %d, fast overlap %d (%.1f per slow op)", tgt.slowOps, tgt.overlap, avg)
	if avg < 4.5 {
		t.Fatalf("average overlap %.1f per slow op; admission is serializing the queue", avg)
	}
}

// TestEffectiveQueueDepth checks Little's-law concurrency on a uniform
// single-server target: with nothing to straggle, the engine should
// sustain close to the configured queue depth.
func TestEffectiveQueueDepth(t *testing.T) {
	tgt := newMemTarget(1<<20, 100*time.Microsecond)
	res, err := Run(Spec{Pattern: RandRead, BlockSize: 4096, QueueDepth: 8, TotalOps: 512, Seed: 2}, tgt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if eqd := res.EffectiveQD(); eqd < 5.5 || eqd > 8.5 {
		t.Fatalf("effective QD %.2f, want ~8", eqd)
	}
}

func TestParsePattern(t *testing.T) {
	for _, p := range []Pattern{RandRead, RandWrite, SeqRead, SeqWrite} {
		got, err := ParsePattern(p.String())
		if err != nil || got != p {
			t.Fatalf("%v: %v", p, err)
		}
	}
	if _, err := ParsePattern("sideways"); err == nil {
		t.Fatal("bad pattern accepted")
	}
}

func TestPrecondition(t *testing.T) {
	tgt := newMemTarget(8<<20, time.Microsecond)
	end, err := Precondition(tgt, 0, 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	// Every byte must be written (non-zero fill).
	for i, b := range tgt.data {
		if b == 0 {
			t.Fatalf("byte %d not preconditioned", i)
		}
	}
}

// captureTarget keeps a copy of every payload written to it; each write
// takes 10 µs on one server, so the jobs take turns.
type captureTarget struct {
	mu     sync.Mutex
	size   int64
	res    *vtime.Resource
	writes [][]byte
}

func (c *captureTarget) Size() int64 { return c.size }

func (c *captureTarget) ReadAt(at vtime.Time, p []byte, off int64) (vtime.Time, error) {
	return at, nil
}

func (c *captureTarget) WriteAt(at vtime.Time, p []byte, off int64) (vtime.Time, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return c.res.Use(at, 10*time.Microsecond), nil
}

// TestWritePayloadPattern checks every byte a write job hands its target
// against the pattern benchmark/verify.go expects: job j writes
// byte(j+1) ^ byte(i*131>>3) at byte i of every block, whatever the
// block size. Which jobs get ops is up to admission, so fillJobPattern
// is also checked directly for jobs past the byte wrap.
func TestWritePayloadPattern(t *testing.T) {
	const qd = 4
	check := func(bs int64, j int, p []byte) {
		t.Helper()
		if int64(len(p)) != bs {
			t.Fatalf("bs %d: job %d payload is %d bytes", bs, j, len(p))
		}
		for i, got := range p {
			if want := byte(j+1) ^ byte(i*131>>3); got != want {
				t.Fatalf("bs %d: job %d byte %d = %#x, want %#x", bs, j, i, got, want)
			}
		}
	}
	for _, bs := range []int64{512, 3000, 4096, 1 << 20} {
		tgt := &captureTarget{size: 8 * bs, res: vtime.NewResource("capture")}
		spec := Spec{Pattern: RandWrite, BlockSize: bs, QueueDepth: qd, TotalOps: 4 * qd}
		if _, err := Run(spec, tgt, 0); err != nil {
			t.Fatal(err)
		}
		if len(tgt.writes) != 4*qd {
			t.Fatalf("bs %d: captured %d writes, want %d", bs, len(tgt.writes), 4*qd)
		}
		for _, p := range tgt.writes {
			j := int(p[0]) - 1 // byte 0 is byte(j+1)
			if j < 0 || j >= qd {
				t.Fatalf("bs %d: write from job %d of %d", bs, j, qd)
			}
			check(bs, j, p)
		}
		for _, j := range []int{0, 1, 31, 255, 300} {
			p := make([]byte, bs)
			fillJobPattern(p, j)
			check(bs, j, p)
		}
	}
}
