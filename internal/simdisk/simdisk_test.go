package simdisk

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/vtime"
)

func testDisk(sectors int64) *Disk {
	// Deterministic tiny cost model: 10 µs fixed, 1 µs per sector.
	cm := CostModel{
		ReadCost:  vtime.LinearCost{Fixed: 10 * time.Microsecond, PerByte: vtime.PerByteOfBandwidth(float64(SectorSize) / 1e-6)},
		WriteCost: vtime.LinearCost{Fixed: 10 * time.Microsecond, PerByte: vtime.PerByteOfBandwidth(float64(SectorSize) / 1e-6)},
		Channels:  1,
	}
	return New("test", sectors, cm)
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := testDisk(64)
	w := make([]byte, 3*SectorSize)
	for i := range w {
		w[i] = byte(i * 7)
	}
	if _, err := d.WriteSectors(0, 5, 3, w); err != nil {
		t.Fatal(err)
	}
	r := make([]byte, 3*SectorSize)
	if _, err := d.ReadSectors(0, 5, 3, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w, r) {
		t.Fatal("round trip mismatch")
	}
}

func TestUnwrittenSectorsReadZero(t *testing.T) {
	d := testDisk(16)
	p := make([]byte, SectorSize)
	for i := range p {
		p[i] = 0xFF
	}
	if _, err := d.ReadSectors(0, 3, 1, p); err != nil {
		t.Fatal(err)
	}
	for _, b := range p {
		if b != 0 {
			t.Fatal("unwritten sector not zero")
		}
	}
}

func TestOutOfRange(t *testing.T) {
	d := testDisk(8)
	buf := make([]byte, SectorSize)
	if _, err := d.ReadSectors(0, 8, 1, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read: got %v", err)
	}
	if _, err := d.WriteSectors(0, -1, 1, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write: got %v", err)
	}
	if _, err := d.ReadSectors(0, 7, 2, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("overrun: got %v", err)
	}
}

func TestShortBuffer(t *testing.T) {
	d := testDisk(8)
	buf := make([]byte, SectorSize-1)
	if _, err := d.ReadSectors(0, 0, 1, buf); err == nil {
		t.Fatal("expected short buffer error")
	}
	if _, err := d.WriteSectors(0, 0, 1, buf); err == nil {
		t.Fatal("expected short buffer error")
	}
}

func TestCostModelCharging(t *testing.T) {
	d := testDisk(64)
	buf := make([]byte, SectorSize)
	// One sector: 10µs fixed + 1µs transfer = 11µs.
	end, err := d.WriteSectors(0, 0, 1, buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := vtime.Time(11 * time.Microsecond); end != want {
		t.Fatalf("end = %v want %v", end, want)
	}
	// Second op at t=0 queues behind the first (Channels=1).
	end2, err := d.WriteSectors(0, 1, 1, buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := vtime.Time(22 * time.Microsecond); end2 != want {
		t.Fatalf("end2 = %v want %v", end2, want)
	}
}

func TestStatsCounting(t *testing.T) {
	d := testDisk(64)
	buf := make([]byte, 4*SectorSize)
	if _, err := d.WriteSectors(0, 0, 4, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadSectors(0, 0, 2, buf); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.WriteOps != 1 || s.SectorsWritten != 4 || s.ReadOps != 1 || s.SectorsRead != 2 {
		t.Fatalf("stats = %+v", s)
	}
	d.ResetStats()
	if s := d.Stats(); s != (Stats{}) {
		t.Fatalf("after reset: %+v", s)
	}
}

func TestStatsAddSub(t *testing.T) {
	a := Stats{ReadOps: 3, WriteOps: 2, SectorsRead: 30, SectorsWritten: 20}
	b := Stats{ReadOps: 1, WriteOps: 1, SectorsRead: 10, SectorsWritten: 5}
	if got := a.Add(b).Sub(b); got != a {
		t.Fatalf("Add/Sub mismatch: %+v", got)
	}
}

func TestWriteAtAlignedNoRMW(t *testing.T) {
	d := testDisk(64)
	p := make([]byte, 2*SectorSize)
	if _, err := d.WriteAt(0, p, 4*SectorSize); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.ReadOps != 0 {
		t.Fatalf("aligned write must not RMW, stats=%+v", s)
	}
	if s.SectorsWritten != 2 {
		t.Fatalf("wrote %d sectors", s.SectorsWritten)
	}
}

func TestWriteAtMisalignedTriggersRMW(t *testing.T) {
	d := testDisk(64)
	// Pre-fill two sectors with a pattern.
	base := make([]byte, 2*SectorSize)
	for i := range base {
		base[i] = 0xAB
	}
	if _, err := d.WriteSectors(0, 10, 2, base); err != nil {
		t.Fatal(err)
	}
	pre := d.Stats()

	// Write 100 bytes starting 50 bytes into sector 10: single-sector RMW.
	p := bytes.Repeat([]byte{0x11}, 100)
	if _, err := d.WriteAt(0, p, 10*SectorSize+50); err != nil {
		t.Fatal(err)
	}
	delta := d.Stats().Sub(pre)
	if delta.ReadOps != 1 || delta.WriteOps != 1 {
		t.Fatalf("single-sector RMW delta = %+v", delta)
	}

	// Verify the merge preserved surrounding bytes.
	got := make([]byte, 2*SectorSize)
	if _, err := d.ReadSectors(0, 10, 2, got); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 2*SectorSize)
	copy(want, base)
	copy(want[50:], p)
	if !bytes.Equal(got, want) {
		t.Fatal("RMW merge corrupted data")
	}
}

func TestWriteAtSpanningMisalignedBothEnds(t *testing.T) {
	d := testDisk(64)
	pre := d.Stats()
	// Span sectors 2..5 with both boundaries misaligned: two RMW reads.
	p := make([]byte, 3*SectorSize)
	if _, err := d.WriteAt(0, p, 2*SectorSize+100); err != nil {
		t.Fatal(err)
	}
	delta := d.Stats().Sub(pre)
	if delta.ReadOps != 2 {
		t.Fatalf("want 2 RMW reads, got %+v", delta)
	}
	if delta.SectorsWritten != 4 {
		t.Fatalf("want 4 sectors written, got %+v", delta)
	}
}

func TestReadAtByteGranular(t *testing.T) {
	d := testDisk(64)
	w := make([]byte, SectorSize)
	for i := range w {
		w[i] = byte(i)
	}
	if _, err := d.WriteSectors(0, 7, 1, w); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 100)
	if _, err := d.ReadAt(0, got, 7*SectorSize+32); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, w[32:132]) {
		t.Fatal("ReadAt mismatch")
	}
	// Zero-length operations are free no-ops.
	if end, err := d.ReadAt(42, nil, 0); err != nil || end != 42 {
		t.Fatalf("zero read: %v %v", end, err)
	}
	if end, err := d.WriteAt(42, nil, 0); err != nil || end != 42 {
		t.Fatalf("zero write: %v %v", end, err)
	}
}

// TestMisalignedAccessAllocsBudget pins the byte-granular paths at no
// payload-sized allocation: the covering read and the merge buffer come
// from bufpool. The shape is an unaligned-layout 1 MiB stream (256 blocks
// of 4096+20 bytes), which is not a sector multiple.
func TestMisalignedAccessAllocsBudget(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if (s.Key == "-race" && s.Value == "true") || (s.Key == "-tags" && s.Value != "") {
				t.Skipf("instrumented build (%s=%s) pools differently", s.Key, s.Value)
			}
		}
	}
	d := testDisk(1024)
	p := make([]byte, 256*(4096+20))
	const off = 3*SectorSize + 60
	for name, op := range map[string]func(vtime.Time, []byte, int64) (vtime.Time, error){
		"ReadAt": d.ReadAt, "WriteAt": d.WriteAt,
	} {
		run := func() {
			if _, err := op(0, p, off); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pool class
		// The one allocation is bufpool.Put's slice header, never payload.
		if got := testing.AllocsPerRun(20, run); got > 1 {
			t.Errorf("misaligned %s: %.0f allocs/op, budget 1", name, got)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / runs; got >= SectorSize {
			t.Errorf("misaligned %s: %d B/op, want under one sector", name, got)
		}
	}
}

func TestPowerCut(t *testing.T) {
	d := testDisk(64)
	buf := make([]byte, SectorSize)
	d.PowerCutAfter(2)
	if _, err := d.WriteSectors(0, 0, 1, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteSectors(0, 1, 1, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteSectors(0, 2, 1, buf); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("3rd write: got %v", err)
	}
	// Reads still work (recovery path).
	if _, err := d.ReadSectors(0, 0, 1, buf); err != nil {
		t.Fatal(err)
	}
	d.PowerRestore()
	if _, err := d.WriteSectors(0, 2, 1, buf); err != nil {
		t.Fatalf("after restore: %v", err)
	}
	// Disarm with negative n.
	d.PowerCutAfter(-1)
	if _, err := d.WriteSectors(0, 3, 1, buf); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotDeepCopy(t *testing.T) {
	d := testDisk(16)
	buf := bytes.Repeat([]byte{0x5A}, SectorSize)
	if _, err := d.WriteSectors(0, 0, 1, buf); err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	// Mutate the disk after snapshotting.
	buf2 := bytes.Repeat([]byte{0xA5}, SectorSize)
	if _, err := d.WriteSectors(0, 0, 1, buf2); err != nil {
		t.Fatal(err)
	}
	for _, c := range snap {
		if c[0] != 0x5A {
			t.Fatal("snapshot not isolated from later writes")
		}
	}
}

// Property: WriteAt/ReadAt behave like a flat byte array for arbitrary
// in-range offsets and lengths.
func TestByteGranularModelProperty(t *testing.T) {
	const sectors = 32
	d := testDisk(sectors)
	model := make([]byte, sectors*SectorSize)
	rng := rand.New(rand.NewSource(1))

	f := func(off16 uint16, ln16 uint16, seed int64) bool {
		off := int64(off16) % (sectors*SectorSize - 1)
		ln := int64(ln16) % 3 * SectorSize / 2
		if off+ln > sectors*SectorSize {
			ln = sectors*SectorSize - off
		}
		p := make([]byte, ln)
		rng.Read(p)
		if _, err := d.WriteAt(0, p, off); err != nil {
			return false
		}
		copy(model[off:], p)
		// Read back a window around the write.
		lo := off - 64
		if lo < 0 {
			lo = 0
		}
		hi := off + ln + 64
		if hi > sectors*SectorSize {
			hi = sectors * SectorSize
		}
		got := make([]byte, hi-lo)
		if _, err := d.ReadAt(0, got, lo); err != nil {
			return false
		}
		return bytes.Equal(got, model[lo:hi])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultCostModelSane(t *testing.T) {
	cm := DefaultCostModel()
	if cm.Channels < 1 || cm.ReadCost.Fixed <= 0 || cm.WriteCost.Fixed <= 0 {
		t.Fatalf("bad default cost model: %+v", cm)
	}
	// Write bandwidth should be lower than read bandwidth (per-byte cost higher).
	if cm.WriteCost.PerByte <= cm.ReadCost.PerByte {
		t.Fatal("expected write per-byte cost above read")
	}
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("bad", 0, DefaultCostModel())
}
