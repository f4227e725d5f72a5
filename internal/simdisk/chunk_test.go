package simdisk

// chunk_test.go: commands that cross the sparse store's 1 MiB chunks,
// the cost-only boundary and a torn write's persisted prefix, each
// checked against a flat byte-array model of the device.

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/fault"
)

// chunkDiskSectors is three whole chunks plus an odd tail.
const chunkDiskSectors = 3*chunkSectors + 37

// fillRand returns n bytes from rng, never all zero.
func fillRand(rng *rand.Rand, n int64) []byte {
	p := make([]byte, n)
	rng.Read(p)
	for i := range p {
		p[i] |= 1
	}
	return p
}

// TestChunkSpanningModelProperty drives random spans up to two chunks
// long through both the byte-granular and the sector interfaces and
// compares every read, and finally the whole device, with the model.
func TestChunkSpanningModelProperty(t *testing.T) {
	d := testDisk(chunkDiskSectors)
	size := int64(chunkDiskSectors * SectorSize)
	model := make([]byte, size)
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 400; step++ {
		switch rng.Intn(4) {
		case 0: // WriteAt, any byte offset
			off := rng.Int63n(size)
			p := fillRand(rng, min(1+rng.Int63n(2*chunkSectors*SectorSize), size-off))
			if _, err := d.WriteAt(0, p, off); err != nil {
				t.Fatalf("step %d: WriteAt(%d, %d): %v", step, off, len(p), err)
			}
			copy(model[off:], p)
		case 1: // ReadAt, any byte offset
			off := rng.Int63n(size)
			p := make([]byte, min(1+rng.Int63n(2*chunkSectors*SectorSize), size-off))
			if _, err := d.ReadAt(0, p, off); err != nil {
				t.Fatalf("step %d: ReadAt(%d, %d): %v", step, off, len(p), err)
			}
			if !bytes.Equal(p, model[off:off+int64(len(p))]) {
				t.Fatalf("step %d: ReadAt(%d, %d) differs from the model", step, off, len(p))
			}
		case 2: // WriteSectors
			s := rng.Int63n(chunkDiskSectors)
			n := min(1+rng.Int63n(2*chunkSectors), chunkDiskSectors-s)
			p := fillRand(rng, n*SectorSize)
			if _, err := d.WriteSectors(0, s, n, p); err != nil {
				t.Fatalf("step %d: WriteSectors(%d, %d): %v", step, s, n, err)
			}
			copy(model[s*SectorSize:], p)
		case 3: // ReadSectors into a dirty buffer
			s := rng.Int63n(chunkDiskSectors)
			n := min(1+rng.Int63n(2*chunkSectors), chunkDiskSectors-s)
			p := bytes.Repeat([]byte{0xEE}, int(n*SectorSize))
			if _, err := d.ReadSectors(0, s, n, p); err != nil {
				t.Fatalf("step %d: ReadSectors(%d, %d): %v", step, s, n, err)
			}
			if !bytes.Equal(p, model[s*SectorSize:(s+n)*SectorSize]) {
				t.Fatalf("step %d: ReadSectors(%d, %d) differs from the model", step, s, n)
			}
		}
	}
	all := make([]byte, size)
	if _, err := d.ReadSectors(0, 0, chunkDiskSectors, all); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all, model) {
		t.Fatal("final device contents differ from the model")
	}
}

// TestTornWriteAcrossChunks tears a three-chunk command inside its
// second chunk: the persisted prefix is new, everything after it old.
func TestTornWriteAcrossChunks(t *testing.T) {
	const start, n = chunkSectors - 56, 2*chunkSectors + 10 // chunks 0..2
	rng := rand.New(rand.NewSource(3))
	old := fillRand(rng, n*SectorSize)
	neu := fillRand(rng, n*SectorSize)
	// The tear point is the injector's draw; take the first plan seed
	// whose prefix ends inside the second chunk.
	for seed := int64(1); seed < 200; seed++ {
		d := testDisk(chunkDiskSectors)
		if _, err := d.WriteSectors(0, start, n, old); err != nil {
			t.Fatal(err)
		}
		pre := d.Stats()
		d.SetFaults(fault.NewPlan(seed, always(fault.TornWrite)).Injector("d"))
		_, err := d.WriteSectors(0, start, n, neu)
		d.SetFaults(nil)
		if !errors.Is(err, fault.ErrTornWrite) {
			t.Fatalf("seed %d: torn write error = %v", seed, err)
		}
		persist := d.Stats().Sub(pre).SectorsWritten
		if end := start + persist; end <= chunkSectors || end >= 2*chunkSectors {
			continue
		}
		got := make([]byte, n*SectorSize)
		if _, err := d.ReadSectors(0, start, n, got); err != nil {
			t.Fatal(err)
		}
		split := persist * SectorSize
		if !bytes.Equal(got[:split], neu[:split]) {
			t.Fatalf("seed %d: persisted prefix of %d sectors is not the new data", seed, persist)
		}
		if !bytes.Equal(got[split:], old[split:]) {
			t.Fatalf("seed %d: sectors past the tear at %d are not the old data", seed, persist)
		}
		return
	}
	t.Fatal("no plan seed tore the write inside its second chunk")
}

// TestReadAcrossUnwrittenChunk reads a written chunk's tail and an
// unwritten chunk's head in one command: the unwritten part reads as
// zeros, and the read allocates no chunk.
func TestReadAcrossUnwrittenChunk(t *testing.T) {
	d := testDisk(chunkDiskSectors)
	rng := rand.New(rand.NewSource(5))
	w := fillRand(rng, 8*SectorSize)
	if _, err := d.WriteSectors(0, chunkSectors-8, 8, w); err != nil {
		t.Fatal(err)
	}
	got := bytes.Repeat([]byte{0xEE}, 24*SectorSize)
	if _, err := d.ReadSectors(0, chunkSectors-8, 24, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:8*SectorSize], w) {
		t.Fatal("written chunk's tail reads back wrong")
	}
	if !bytes.Equal(got[8*SectorSize:], make([]byte, 16*SectorSize)) {
		t.Fatal("unwritten chunk does not read as zeros")
	}
	if snap := d.Snapshot(); len(snap) != 1 || snap[0] == nil {
		t.Fatalf("chunks held after the read: %d, want only chunk 0", len(snap))
	}
}

// TestEphemeralBoundaryStraddle writes one command across the cost-only
// boundary: the prefix below it is kept, the rest reads as zeros, every
// sector is counted, and no chunk past the boundary is allocated.
func TestEphemeralBoundaryStraddle(t *testing.T) {
	d := testDisk(chunkDiskSectors)
	const boundary = 2 * chunkSectors
	d.SetEphemeralFrom(boundary)
	const start, n = boundary - 40, 100
	w := fillRand(rand.New(rand.NewSource(9)), n*SectorSize)
	if _, err := d.WriteSectors(0, start, n, w); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().SectorsWritten; got != n {
		t.Fatalf("SectorsWritten = %d, want %d", got, n)
	}
	got := make([]byte, n*SectorSize)
	if _, err := d.ReadSectors(0, start, n, got); err != nil {
		t.Fatal(err)
	}
	kept := (boundary - start) * SectorSize
	if !bytes.Equal(got[:kept], w[:kept]) {
		t.Fatal("prefix below the boundary was not kept")
	}
	if !bytes.Equal(got[kept:], make([]byte, n*SectorSize-kept)) {
		t.Fatal("sectors past the boundary do not read as zeros")
	}
	if _, ok := d.Snapshot()[boundary/chunkSectors]; ok {
		t.Fatal("a chunk past the boundary was allocated")
	}
	// A command wholly past the boundary is counted and keeps nothing.
	if _, err := d.WriteSectors(0, boundary+200, 4, w[:4*SectorSize]); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().SectorsWritten; got != n+4 {
		t.Fatalf("SectorsWritten = %d, want %d", got, n+4)
	}
	if len(d.Snapshot()) != 1 {
		t.Fatal("a write past the boundary allocated a chunk")
	}
}

// FuzzDiskModel decodes the input as a sequence of commands on a
// three-chunk disk and checks every read, and finally the whole device,
// against a flat byte-array model. An armed op tears a WriteSectors: the
// model takes the persisted prefix the device reports.
func FuzzDiskModel(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{2, 0xff, 0x10, 0x80, 3, 0x00, 0xfe, 0x81, 0x12, 0x40, 0x33, 0x01})
	f.Add([]byte{4, 0x7f, 0x00, 0xff, 1, 0x7f, 0x00, 0xff, 5, 0x01, 0x80, 0x40})
	const sectors = 3 * chunkSectors
	const size = sectors * SectorSize
	f.Fuzz(func(t *testing.T, in []byte) {
		d := testDisk(sectors)
		model := make([]byte, size)
		for op := 0; len(in) >= 6 && op < 32; op++ {
			kind, a, b := in[0]%5, int64(in[1])<<8|int64(in[2]), int64(in[3])<<8|int64(in[4])
			fill := in[5] | 1
			in = in[6:]
			switch kind {
			case 0, 1: // WriteAt / ReadAt: byte offset and length
				off := a * size >> 16
				ln := min(1+b*2*chunkSectors*SectorSize>>16, size-off)
				p := bytes.Repeat([]byte{fill}, int(ln))
				if kind == 0 {
					if _, err := d.WriteAt(0, p, off); err != nil {
						t.Fatalf("WriteAt(%d, %d): %v", off, ln, err)
					}
					copy(model[off:], p)
				} else {
					if _, err := d.ReadAt(0, p, off); err != nil {
						t.Fatalf("ReadAt(%d, %d): %v", off, ln, err)
					}
					if !bytes.Equal(p, model[off:off+ln]) {
						t.Fatalf("ReadAt(%d, %d) differs from the model", off, ln)
					}
				}
			case 2, 3, 4: // WriteSectors / ReadSectors / torn WriteSectors
				s := a * sectors >> 16
				n := min(1+b*2*chunkSectors>>16, sectors-s)
				p := bytes.Repeat([]byte{fill}, int(n*SectorSize))
				switch kind {
				case 2:
					if _, err := d.WriteSectors(0, s, n, p); err != nil {
						t.Fatalf("WriteSectors(%d, %d): %v", s, n, err)
					}
					copy(model[s*SectorSize:], p)
				case 3:
					if _, err := d.ReadSectors(0, s, n, p); err != nil {
						t.Fatalf("ReadSectors(%d, %d): %v", s, n, err)
					}
					if !bytes.Equal(p, model[s*SectorSize:(s+n)*SectorSize]) {
						t.Fatalf("ReadSectors(%d, %d) differs from the model", s, n)
					}
				case 4:
					pre := d.Stats()
					d.SetFaults(fault.NewPlan(int64(fill), always(fault.TornWrite)).Injector("d"))
					_, err := d.WriteSectors(0, s, n, p)
					d.SetFaults(nil)
					if !errors.Is(err, fault.ErrTornWrite) {
						t.Fatalf("torn WriteSectors(%d, %d): %v", s, n, err)
					}
					persist := d.Stats().Sub(pre).SectorsWritten
					if persist < 0 || persist >= n {
						t.Fatalf("torn write persisted %d of %d sectors", persist, n)
					}
					copy(model[s*SectorSize:], p[:persist*SectorSize])
				}
			}
		}
		all := make([]byte, size)
		if _, err := d.ReadSectors(0, 0, sectors, all); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(all, model) {
			t.Fatal("final device contents differ from the model")
		}
	})
}
