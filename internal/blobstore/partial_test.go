package blobstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/simdisk"
)

// partialCounts is what one write costs the store and its disk: sector
// cache hits and misses, RMW device reads, and device commands (the
// metadata WAL shares the disk, so its appends count as writes).
type partialCounts struct {
	hits, misses, rmw int64
	readCmds, writeCmds,
	sectorsRead, sectorsWritten int64
}

func countsSince(s *Store, d *simdisk.Disk, st Stats, ds simdisk.Stats) partialCounts {
	st2, ds2 := s.Stats(), d.Stats().Sub(ds)
	return partialCounts{
		hits: st2.CacheHits - st.CacheHits, misses: st2.CacheMisses - st.CacheMisses, rmw: st2.RMWReads - st.RMWReads,
		readCmds: ds2.ReadOps, writeCmds: ds2.WriteOps,
		sectorsRead: ds2.SectorsRead, sectorsWritten: ds2.SectorsWritten,
	}
}

// fill is a write's payload: distinct per write and per byte, so a merge
// that lands bytes at the wrong offset or keeps a stale neighbour shows.
func fill(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7)
	}
	return b
}

// checkObject compares the object's bytes [lo, hi) with the model, read
// through the store (the sector cache when it holds every sector) and
// straight from the disk (what a crash would leave).
func checkObject(t *testing.T, s *Store, d *simdisk.Disk, obj string, model []byte, lo, hi int64) {
	t.Helper()
	got := make([]byte, hi-lo)
	if _, err := s.Read(0, obj, lo, got); err != nil {
		t.Fatal(err)
	}
	if i := firstDiff(got, model[lo:hi]); i >= 0 {
		t.Fatalf("store read: byte %d is %#x, model %#x", lo+int64(i), got[i], model[lo+int64(i)])
	}
	base := s.objects[obj].baseSector * simdisk.SectorSize
	if _, err := d.ReadAt(0, got, base+lo); err != nil {
		t.Fatal(err)
	}
	if i := firstDiff(got, model[lo:hi]); i >= 0 {
		t.Fatalf("device: byte %d is %#x, model %#x", lo+int64(i), got[i], model[lo+int64(i)])
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestApplyPartialSpans writes one sub-sector-bearing span over a
// sector-aligned background, with its covering sectors cold (the aligned
// background write left them out of the cache) or hot (a 1-byte write
// into each admitted it), and checks the bytes against a model and the
// cache, RMW and device-command counts against literals recorded before
// the RMW buffer became the store's scratch: the scratch must change
// nothing the device or the cache sees.
func TestApplyPartialSpans(t *testing.T) {
	const S = simdisk.SectorSize
	const objCap = 1 << 20 // testStore's object capacity
	cases := []struct {
		name      string
		off, n    int64
		cold, hot partialCounts
	}{
		{"1 byte", 100, 1,
			partialCounts{0, 1, 1, 1, 2, 1, 2}, partialCounts{1, 0, 0, 0, 2, 0, 2}},
		{"SectorSize-1 from a sector start", S, S - 1,
			partialCounts{0, 1, 1, 1, 2, 1, 3}, partialCounts{1, 0, 0, 0, 2, 0, 3}},
		{"SectorSize-1 to a sector end", S + 1, S - 1,
			partialCounts{0, 1, 1, 1, 2, 1, 3}, partialCounts{1, 0, 0, 0, 2, 0, 3}},
		{"20 bytes touching a sector start", 2 * S, 20,
			partialCounts{0, 1, 1, 1, 2, 1, 2}, partialCounts{1, 0, 0, 0, 2, 0, 2}},
		{"20 bytes touching a sector end", 3*S - 20, 20,
			partialCounts{0, 1, 1, 1, 2, 1, 2}, partialCounts{1, 0, 0, 0, 2, 0, 2}},
		{"20 bytes straddling two sectors", 3*S - 10, 20,
			partialCounts{0, 2, 2, 2, 2, 2, 3}, partialCounts{2, 0, 0, 0, 2, 0, 3}},
		{"SectorSize-1 straddling two sectors", S + S/2, S - 1,
			partialCounts{0, 2, 2, 2, 2, 2, 4}, partialCounts{2, 0, 0, 0, 2, 0, 4}},
		{"beyond cacheAdmitLimit in one sector", S + 10, cacheAdmitLimit + 500,
			partialCounts{0, 1, 1, 1, 2, 1, 2}, partialCounts{1, 0, 0, 0, 2, 0, 2}},
		{"beyond cacheAdmitLimit straddling two sectors", 2*S - 1500, 3000,
			partialCounts{0, 2, 2, 2, 2, 2, 3}, partialCounts{2, 0, 0, 0, 2, 0, 3}},
		{"head and tail around an aligned sector", S - 96, S + 200,
			partialCounts{0, 2, 2, 2, 4, 2, 4}, partialCounts{2, 0, 0, 0, 4, 0, 4}},
		{"object-end IV slot", objCap - 20, 20,
			partialCounts{0, 1, 1, 1, 2, 1, 2}, partialCounts{1, 0, 0, 0, 2, 0, 2}},
	}
	for _, tc := range cases {
		for _, hot := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/hot=%v", tc.name, hot), func(t *testing.T) {
				s, d := testStore(t)
				const obj = "obj"
				model := fill(0x40, objCap)
				writeTxn(t, s, obj, 0, model) // aligned: leaves the cache empty
				first, last := tc.off/S, (tc.off+tc.n+S-1)/S
				if hot {
					for sec := first; sec < last; sec++ {
						b := []byte{0xEE}
						writeTxn(t, s, obj, sec*S+S/2, b)
						model[sec*S+S/2] = b[0]
					}
				}
				data := fill(0x90, int(tc.n))
				st, ds := s.Stats(), d.Stats()
				writeTxn(t, s, obj, tc.off, data)
				got := countsSince(s, d, st, ds)
				copy(model[tc.off:], data)

				want := tc.cold
				if hot {
					want = tc.hot
				}
				if got != want {
					t.Errorf("counts %#v, want %#v", got, want)
				}
				lo, hi := max(first-1, 0)*S, min(last+1, objCap/S)*S
				checkObject(t, s, d, obj, model, lo, hi)
			})
		}
	}
}

// FuzzApplyPartial drives a store with a sequence of (offset, length)
// writes decoded from the input and checks every partial span's cost
// and the object's bytes. Each partial span covers one or two sectors —
// the size of the store's RMW scratch — and every covering sector is one
// cache hit or one miss, so a write's hits plus misses lie between its
// deferred writes and twice them, and a write has at most two deferred
// spans (head and tail).
func FuzzApplyPartial(f *testing.F) {
	const S = simdisk.SectorSize
	const objCap = 64 * S
	seed := func(ops ...[2]int) []byte {
		var b []byte
		for _, op := range ops {
			b = binary.LittleEndian.AppendUint32(b, uint32(op[0]))
			b = binary.LittleEndian.AppendUint16(b, uint16(op[1]))
		}
		return b
	}
	f.Add(seed([2]int{objCap - 20, 20}, [2]int{objCap - 20, 20}))
	f.Add(seed([2]int{S - 10, 20}, [2]int{100, 1}, [2]int{S - 96, S + 200}))
	f.Add(seed([2]int{0, 3 * S}, [2]int{S + S/2, S - 1}, [2]int{2*S - 1500, 3000}))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 6 || len(in) > 6*64 {
			t.Skip("no write, or a sequence longer than adds anything")
		}
		s, d := testStore(t)
		const obj = "obj"
		model := make([]byte, objCap)
		for i := 0; i+6 <= len(in); i += 6 {
			off := int64(binary.LittleEndian.Uint32(in[i:])) % objCap
			n := min(int64(binary.LittleEndian.Uint16(in[i+4:]))%(3*S)+1, objCap-off)
			data := fill(byte(i), int(n))
			st := s.Stats()
			writeTxn(t, s, obj, off, data)
			copy(model[off:], data)
			st2 := s.Stats()
			deferred := st2.DeferredWrites - st.DeferredWrites
			covering := st2.CacheHits + st2.CacheMisses - st.CacheHits - st.CacheMisses
			if deferred > 2 || covering < deferred || covering > 2*deferred {
				t.Fatalf("write [%d,+%d): %d partial spans over %d covering sectors", off, n, deferred, covering)
			}
			lo, hi := max(off/S-1, 0)*S, min((off+n+S-1)/S+1, objCap/S)*S
			checkObject(t, s, d, obj, model, lo, hi)
		}
		got := make([]byte, objCap)
		if _, err := s.Read(0, obj, 0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, model) {
			t.Fatalf("object differs from the model at byte %d", firstDiff(got, model))
		}
	})
}
