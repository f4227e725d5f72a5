package blobstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/simdisk"
)

func testStore(t *testing.T) (*Store, *simdisk.Disk) {
	t.Helper()
	d := simdisk.New("osd0", 64<<20/simdisk.SectorSize, simdisk.DefaultCostModel()) // 64 MiB
	cfg := Config{
		ObjectCapacity: 1 << 20, // 1 MiB objects for tests
		KVBytes:        16 << 20,
		CacheSectors:   256,
	}
	cfg.KV.MemtableBytes = 64 << 10
	cfg.KV.WALBytes = 1 << 20
	s, _, err := Open(0, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, d
}

func writeTxn(t *testing.T, s *Store, obj string, off int64, data []byte) {
	t.Helper()
	txn := NewTxn()
	txn.Writes = append(txn.Writes, DataWrite{Off: off, Data: data})
	if _, err := s.Apply(0, obj, txn); err != nil {
		t.Fatal(err)
	}
}

func readObj(t *testing.T, s *Store, obj string, off int64, n int) []byte {
	t.Helper()
	p := make([]byte, n)
	if _, err := s.Read(0, obj, off, p); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestWriteReadAligned(t *testing.T) {
	s, _ := testStore(t)
	data := bytes.Repeat([]byte{0x42}, 3*simdisk.SectorSize)
	writeTxn(t, s, "obj1", 0, data)
	if got := readObj(t, s, "obj1", 0, len(data)); !bytes.Equal(got, data) {
		t.Fatal("aligned round trip failed")
	}
	if sz, _ := s.Size("obj1"); sz != int64(len(data)) {
		t.Fatalf("size = %d", sz)
	}
}

func TestWriteReadSubSector(t *testing.T) {
	s, _ := testStore(t)
	// First lay down a background pattern.
	bg := bytes.Repeat([]byte{0xAA}, 2*simdisk.SectorSize)
	writeTxn(t, s, "obj", 0, bg)
	// Then a 16-byte write in the middle of sector 0 (an IV-style write).
	iv := bytes.Repeat([]byte{0x17}, 16)
	writeTxn(t, s, "obj", 100, iv)
	got := readObj(t, s, "obj", 0, 2*simdisk.SectorSize)
	want := append([]byte(nil), bg...)
	copy(want[100:], iv)
	if !bytes.Equal(got, want) {
		t.Fatal("sub-sector merge corrupted neighbors")
	}
	st := s.Stats()
	if st.DeferredWrites == 0 {
		t.Fatal("sub-sector write should be journaled")
	}
}

func TestWriteSpanningMixed(t *testing.T) {
	s, _ := testStore(t)
	// Write with misaligned head and tail plus aligned middle.
	data := make([]byte, 3*simdisk.SectorSize)
	for i := range data {
		data[i] = byte(i % 251)
	}
	writeTxn(t, s, "obj", 1000, data)
	if got := readObj(t, s, "obj", 1000, len(data)); !bytes.Equal(got, data) {
		t.Fatal("mixed write round trip failed")
	}
	st := s.Stats()
	if st.AlignedWrites == 0 || st.DeferredWrites == 0 {
		t.Fatalf("expected both aligned and deferred spans: %+v", st)
	}
}

func TestSparseReadReturnsZeros(t *testing.T) {
	s, _ := testStore(t)
	writeTxn(t, s, "obj", 8192, []byte("data"))
	got := readObj(t, s, "obj", 0, 16)
	if !bytes.Equal(got, make([]byte, 16)) {
		t.Fatal("unwritten range should read zero")
	}
}

func TestReadBounds(t *testing.T) {
	s, _ := testStore(t)
	writeTxn(t, s, "obj", 0, []byte("x"))
	p := make([]byte, 10)
	if _, err := s.Read(0, "obj", 1<<20-5, p); !errors.Is(err, ErrBounds) {
		t.Fatalf("got %v", err)
	}
	if _, err := s.Read(0, "missing", 0, p); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

func TestWriteBounds(t *testing.T) {
	s, _ := testStore(t)
	txn := NewTxn()
	txn.Writes = []DataWrite{{Off: 1<<20 - 2, Data: []byte("toolong")}}
	if _, err := s.Apply(0, "obj", txn); !errors.Is(err, ErrBounds) {
		t.Fatalf("got %v", err)
	}
}

func TestTruncate(t *testing.T) {
	s, _ := testStore(t)
	writeTxn(t, s, "obj", 0, bytes.Repeat([]byte{1}, 1000))
	txn := NewTxn()
	txn.Truncate = 10
	if _, err := s.Apply(0, "obj", txn); err != nil {
		t.Fatal(err)
	}
	if sz, _ := s.Size("obj"); sz != 10 {
		t.Fatalf("size = %d", sz)
	}
}

func TestOmapSetGetScan(t *testing.T) {
	s, _ := testStore(t)
	txn := NewTxn()
	for i := 0; i < 20; i++ {
		txn.OmapSet = append(txn.OmapSet, KVPair{
			Key:   []byte(fmt.Sprintf("iv%04d", i)),
			Value: []byte(fmt.Sprintf("value%d", i)),
		})
	}
	if _, err := s.Apply(0, "obj", txn); err != nil {
		t.Fatal(err)
	}
	v, ok, _, err := s.OmapGet(0, "obj", []byte("iv0007"))
	if err != nil || !ok || string(v) != "value7" {
		t.Fatalf("omap get: %q %v %v", v, ok, err)
	}
	kvs, _, err := s.OmapScan(0, "obj", []byte("iv0005"), []byte("iv0015"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 10 {
		t.Fatalf("scan returned %d", len(kvs))
	}
	if string(kvs[0].Key) != "iv0005" {
		t.Fatalf("first key %q (prefix not stripped?)", kvs[0].Key)
	}
	// Full scan with nil hi.
	kvs, _, err = s.OmapScan(0, "obj", nil, nil, 0)
	if err != nil || len(kvs) != 20 {
		t.Fatalf("full scan: %d %v", len(kvs), err)
	}
	// Delete.
	txn2 := NewTxn()
	txn2.OmapDel = [][]byte{[]byte("iv0007")}
	if _, err := s.Apply(0, "obj", txn2); err != nil {
		t.Fatal(err)
	}
	if _, ok, _, _ := s.OmapGet(0, "obj", []byte("iv0007")); ok {
		t.Fatal("omap delete failed")
	}
}

func TestOmapIsolationBetweenObjects(t *testing.T) {
	s, _ := testStore(t)
	for _, obj := range []string{"a", "ab", "b"} {
		txn := NewTxn()
		txn.OmapSet = []KVPair{{Key: []byte("k"), Value: []byte(obj)}}
		if _, err := s.Apply(0, obj, txn); err != nil {
			t.Fatal(err)
		}
	}
	// "a" must not see "ab"'s entries even though "ab" has "a" as prefix.
	kvs, _, err := s.OmapScan(0, "a", nil, nil, 0)
	if err != nil || len(kvs) != 1 || string(kvs[0].Value) != "a" {
		t.Fatalf("isolation broken: %v %v", kvs, err)
	}
}

func TestAttrs(t *testing.T) {
	s, _ := testStore(t)
	txn := NewTxn()
	txn.AttrSet = []KVPair{{Key: []byte("snapset"), Value: []byte("payload")}}
	if _, err := s.Apply(0, "obj", txn); err != nil {
		t.Fatal(err)
	}
	v, ok, _, err := s.GetAttr(0, "obj", "snapset")
	if err != nil || !ok || string(v) != "payload" {
		t.Fatalf("attr: %q %v %v", v, ok, err)
	}
	if _, _, _, err := s.GetAttr(0, "missing", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

func TestDeleteObject(t *testing.T) {
	s, _ := testStore(t)
	txn := NewTxn()
	txn.Writes = []DataWrite{{Off: 0, Data: []byte("data")}}
	txn.OmapSet = []KVPair{{Key: []byte("k"), Value: []byte("v")}}
	txn.AttrSet = []KVPair{{Key: []byte("a"), Value: []byte("v")}}
	if _, err := s.Apply(0, "obj", txn); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete(0, "obj"); err != nil {
		t.Fatal(err)
	}
	if s.Exists("obj") {
		t.Fatal("object still exists")
	}
	if _, err := s.Delete(0, "obj"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
	// Writing again recreates it fresh, with no stale omap.
	writeTxn(t, s, "obj", 0, []byte("new"))
	kvs, _, err := s.OmapScan(0, "obj", nil, nil, 0)
	if err != nil || len(kvs) != 0 {
		t.Fatalf("stale omap after recreate: %v %v", kvs, err)
	}
}

func TestClone(t *testing.T) {
	s, _ := testStore(t)
	data := bytes.Repeat([]byte{7}, 10000)
	writeTxn(t, s, "head", 0, data)
	txn := NewTxn()
	txn.OmapSet = []KVPair{{Key: []byte("iv0"), Value: []byte("ivdata")}}
	txn.AttrSet = []KVPair{{Key: []byte("meta"), Value: []byte("m")}}
	if _, err := s.Apply(0, "head", txn); err != nil {
		t.Fatal(err)
	}

	if _, err := s.Clone(0, "head", "snap.1"); err != nil {
		t.Fatal(err)
	}
	// Mutate the head; the clone must be unaffected.
	writeTxn(t, s, "head", 0, bytes.Repeat([]byte{9}, 100))

	if got := readObj(t, s, "snap.1", 0, 10000); !bytes.Equal(got, data) {
		t.Fatal("clone data diverged")
	}
	v, ok, _, _ := s.OmapGet(0, "snap.1", []byte("iv0"))
	if !ok || string(v) != "ivdata" {
		t.Fatal("clone omap missing")
	}
	v, ok, _, _ = s.GetAttr(0, "snap.1", "meta")
	if !ok || string(v) != "m" {
		t.Fatal("clone attr missing")
	}
	// Clone onto an existing name fails.
	if _, err := s.Clone(0, "head", "snap.1"); !errors.Is(err, ErrExists) {
		t.Fatalf("got %v", err)
	}
	if _, err := s.Clone(0, "missing", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

func TestTxnAtomicDataPlusOmap(t *testing.T) {
	// The §3.1 consistency requirement: data and its IV commit together.
	s, _ := testStore(t)
	txn := NewTxn()
	txn.Writes = []DataWrite{{Off: 0, Data: bytes.Repeat([]byte{1}, simdisk.SectorSize)}}
	txn.OmapSet = []KVPair{{Key: []byte("iv"), Value: []byte("0123456789abcdef")}}
	if _, err := s.Apply(0, "obj", txn); err != nil {
		t.Fatal(err)
	}
	_, ok, _, _ := s.OmapGet(0, "obj", []byte("iv"))
	if !ok {
		t.Fatal("omap lost")
	}
}

func TestRecoveryAfterCleanReopen(t *testing.T) {
	d := simdisk.New("osd0", 64<<20/simdisk.SectorSize, simdisk.DefaultCostModel())
	cfg := Config{ObjectCapacity: 1 << 20, KVBytes: 16 << 20}
	cfg.KV.MemtableBytes = 64 << 10
	s, _, err := Open(0, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{3}, 5000)
	writeTxn(t, s, "persist", 123, data)
	txn := NewTxn()
	txn.OmapSet = []KVPair{{Key: []byte("k"), Value: []byte("v")}}
	if _, err := s.Apply(0, "persist", txn); err != nil {
		t.Fatal(err)
	}

	s2, _, err := Open(0, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5000)
	if _, err := s2.Read(0, "persist", 123, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost across reopen")
	}
	if _, ok, _, _ := s2.OmapGet(0, "persist", []byte("k")); !ok {
		t.Fatal("omap lost across reopen")
	}
	// New objects allocate beyond existing ones.
	wtxn := NewTxn()
	wtxn.Writes = []DataWrite{{Off: 0, Data: []byte("fresh")}}
	if _, err := s2.Apply(0, "fresh", wtxn); err != nil {
		t.Fatal(err)
	}
	if got := readObj(t, s2, "persist", 123, 5000); !bytes.Equal(got, data) {
		t.Fatal("allocation overlap corrupted old object")
	}
}

// Crash consistency: a power cut at every possible write-op boundary must
// leave each committed transaction fully visible and each uncommitted
// transaction fully invisible — never a data write without its IV.
func TestCrashConsistencySweep(t *testing.T) {
	const sectorData = 256
	for cut := int64(1); cut < 40; cut++ {
		d := simdisk.New("osd0", 64<<20/simdisk.SectorSize, simdisk.DefaultCostModel())
		cfg := Config{ObjectCapacity: 1 << 20, KVBytes: 16 << 20}
		cfg.KV.MemtableBytes = 64 << 10
		s, _, err := Open(0, d, cfg)
		if err != nil {
			t.Fatal(err)
		}

		// Committed transactions, before the cut is armed.
		committed := 0
		for i := 0; i < 3; i++ {
			txn := NewTxn()
			txn.Writes = []DataWrite{{Off: int64(i) * simdisk.SectorSize, Data: bytes.Repeat([]byte{byte(i + 1)}, sectorData)}}
			txn.OmapSet = []KVPair{{Key: []byte(fmt.Sprintf("iv%d", i)), Value: bytes.Repeat([]byte{byte(i + 1)}, 16)}}
			if _, err := s.Apply(0, "obj", txn); err != nil {
				t.Fatal(err)
			}
			committed++
		}

		d.PowerCutAfter(cut)
		// Attempt more transactions until the power cut bites.
		attempted := committed
		for i := 3; i < 10; i++ {
			txn := NewTxn()
			txn.Writes = []DataWrite{{Off: int64(i) * simdisk.SectorSize, Data: bytes.Repeat([]byte{byte(i + 1)}, sectorData)}}
			txn.OmapSet = []KVPair{{Key: []byte(fmt.Sprintf("iv%d", i)), Value: bytes.Repeat([]byte{byte(i + 1)}, 16)}}
			if _, err := s.Apply(0, "obj", txn); err != nil {
				break
			}
			attempted++
		}
		d.PowerRestore()

		s2, _, err := Open(0, d, cfg)
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		// Every transaction whose IV is visible must have its data, and
		// vice versa for the sub-sector span (the journaled part).
		for i := 0; i < 10; i++ {
			_, ok, _, err := s2.OmapGet(0, "obj", []byte(fmt.Sprintf("iv%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			if i < committed && !ok {
				t.Fatalf("cut=%d: committed iv%d lost", cut, i)
			}
			if ok {
				got := make([]byte, sectorData)
				if _, err := s2.Read(0, "obj", int64(i)*simdisk.SectorSize, got); err != nil {
					t.Fatalf("cut=%d: %v", cut, err)
				}
				if !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, sectorData)) {
					t.Fatalf("cut=%d: iv%d present but data torn", cut, i)
				}
			}
		}
	}
}

func TestOutOfSpace(t *testing.T) {
	d := simdisk.New("tiny", (8<<20)/simdisk.SectorSize, simdisk.DefaultCostModel())
	cfg := Config{ObjectCapacity: 1 << 20, KVBytes: 4 << 20}
	cfg.KV.MemtableBytes = 64 << 10
	cfg.KV.WALBytes = 1 << 20
	s, _, err := Open(0, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for i := 0; i < 20; i++ {
		txn := NewTxn()
		txn.Writes = []DataWrite{{Off: 0, Data: []byte("x")}}
		if _, lastErr = s.Apply(0, fmt.Sprintf("obj%d", i), txn); lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrNoSpace) {
		t.Fatalf("got %v", lastErr)
	}
}

func TestSectorCacheLRU(t *testing.T) {
	c := newSectorCache(2)
	sec := func(b byte) []byte { return bytes.Repeat([]byte{b}, simdisk.SectorSize) }
	c.put(1, sec(1))
	c.put(2, sec(2))
	if _, ok := c.get(1); !ok {
		t.Fatal("miss on 1")
	}
	c.put(3, sec(3)) // evicts 2 (LRU)
	if _, ok := c.get(2); ok {
		t.Fatal("2 should be evicted")
	}
	if _, ok := c.get(1); !ok {
		t.Fatal("1 should survive")
	}
	if v, ok := c.get(3); !ok || v[0] != 3 {
		t.Fatal("3 wrong")
	}
	c.invalidate(1, 1)
	if _, ok := c.get(1); ok {
		t.Fatal("invalidate failed")
	}
	if c.len() != 1 {
		t.Fatalf("len = %d", c.len())
	}
	// Refresh path.
	c.put(3, sec(9))
	if v, _ := c.get(3); v[0] != 9 {
		t.Fatal("refresh failed")
	}
}

func TestCacheServesHotIVSector(t *testing.T) {
	s, _ := testStore(t)
	// Simulate the ObjectEnd pattern: repeated 16-byte writes into the
	// same tail sector. After the first, RMW reads must be cache hits.
	for i := 0; i < 10; i++ {
		writeTxn(t, s, "obj", int64(512<<10)+int64(i)*16, bytes.Repeat([]byte{byte(i)}, 16))
	}
	st := s.Stats()
	if st.RMWReads > 1 {
		t.Fatalf("expected at most one cold RMW read, got %d", st.RMWReads)
	}
	if st.CacheHits < 9 {
		t.Fatalf("expected hot hits, got %+v", st)
	}
}

// Randomized model check of object data semantics across mixed write
// shapes and reopen cycles.
func TestRandomizedDataModel(t *testing.T) {
	d := simdisk.New("osd0", 128<<20/simdisk.SectorSize, simdisk.DefaultCostModel())
	cfg := Config{ObjectCapacity: 256 << 10, KVBytes: 32 << 20}
	cfg.KV.MemtableBytes = 256 << 10
	s, _, err := Open(0, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const objCap = 256 << 10
	models := map[string][]byte{}
	rng := rand.New(rand.NewSource(99))
	objName := func() string { return fmt.Sprintf("o%d", rng.Intn(4)) }

	for step := 0; step < 600; step++ {
		switch r := rng.Intn(10); {
		case r < 6:
			obj := objName()
			off := rng.Int63n(objCap - 1)
			n := rng.Intn(20000) + 1
			if off+int64(n) > objCap {
				n = int(objCap - off)
			}
			data := make([]byte, n)
			rng.Read(data)
			txn := NewTxn()
			txn.Writes = []DataWrite{{Off: off, Data: data}}
			if _, err := s.Apply(0, obj, txn); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			m := models[obj]
			if m == nil {
				m = make([]byte, objCap)
				models[obj] = m
			}
			copy(m[off:], data)
		case r < 9:
			obj := objName()
			m, ok := models[obj]
			if !ok {
				continue
			}
			off := rng.Int63n(objCap - 1)
			n := rng.Intn(20000) + 1
			if off+int64(n) > objCap {
				n = int(objCap - off)
			}
			got := make([]byte, n)
			if _, err := s.Read(0, obj, off, got); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if !bytes.Equal(got, m[off:off+int64(n)]) {
				t.Fatalf("step %d: read mismatch obj=%s off=%d n=%d", step, obj, off, n)
			}
		default:
			if s, _, err = Open(0, d, cfg); err != nil {
				t.Fatalf("step %d: reopen: %v", step, err)
			}
		}
	}
}

// TestFailedCreateDoesNotLeakCapacity: a transaction that would create an
// object and is then refused, or fails to commit, must not keep the
// capacity it was placed in. The frontier used to move before the writes
// were validated, so 48 out-of-bounds writes to 48 new names filled the
// 64 MiB test store with nothing to show for it.
func TestFailedCreateDoesNotLeakCapacity(t *testing.T) {
	s, _ := testStore(t)
	start := s.frontier
	for i := 0; i < 48; i++ {
		name := fmt.Sprintf("refused%02d", i)
		txn := NewTxn()
		switch i % 3 {
		case 0: // beyond capacity
			txn.Writes = append(txn.Writes, DataWrite{Off: 1 << 20, Data: []byte{1}})
		case 1:
			txn.Truncate = 1<<20 + 1
		case 2: // the aligned data is on the device when the commit fails: the batch is larger than the log
			txn.Writes = append(txn.Writes, DataWrite{Off: 0, Data: make([]byte, simdisk.SectorSize)})
			txn.AttrSet = append(txn.AttrSet, KVPair{Key: []byte("a"), Value: make([]byte, 2<<20)})
		}
		if _, err := s.Apply(0, name, txn); err == nil || (i%3 != 2 && !errors.Is(err, ErrBounds)) {
			t.Fatalf("create %d: err = %v, want a refusal", i, err)
		}
		if s.Exists(name) {
			t.Fatalf("refused create %d left an object", i)
		}
	}
	if got := s.List(); len(got) != 0 {
		t.Fatalf("objects after refused creates: %v", got)
	}
	writeTxn(t, s, "kept", 0, []byte("data"))
	if want := start + (1<<20)/simdisk.SectorSize; s.frontier != want {
		t.Fatalf("frontier %d after one create, want %d (started at %d)", s.frontier, want, start)
	}
	if got := readObj(t, s, "kept", 0, 4); string(got) != "data" {
		t.Fatalf("kept = %q", got)
	}
}

// TestOversizedKeyLeavesObjectUntouched: a transaction whose staged key
// the metadata store cannot encode comes back with the typed error
// before any data-area write, so an existing object keeps its data,
// size, OMAP and version.
func TestOversizedKeyLeavesObjectUntouched(t *testing.T) {
	s, d := testStore(t)
	old := bytes.Repeat([]byte{0x11}, 2*simdisk.SectorSize)
	txn := NewTxn()
	txn.Writes = append(txn.Writes, DataWrite{Off: 0, Data: old})
	txn.OmapSet = append(txn.OmapSet, KVPair{Key: []byte("iv"), Value: []byte("old")})
	if _, err := s.Apply(0, "obj", txn); err != nil {
		t.Fatal(err)
	}
	before, writes := s.objects["obj"], d.Stats().WriteOps

	longest := maxKeyLen - len(nsOmap) - len("obj") - 1 // the OMAP key that still fits
	for _, tc := range []struct {
		klen int
		ok   bool
	}{{longest + 1, false}, {70000, false}, {longest, true}} {
		txn := NewTxn()
		txn.Writes = append(txn.Writes, DataWrite{Off: 0, Data: bytes.Repeat([]byte{0x22}, 3*simdisk.SectorSize)})
		txn.OmapSet = append(txn.OmapSet,
			KVPair{Key: []byte("iv"), Value: []byte("new")},
			KVPair{Key: bytes.Repeat([]byte{'k'}, tc.klen), Value: []byte("v")})
		_, err := s.Apply(0, "obj", txn)
		if tc.ok {
			if err != nil {
				t.Fatalf("%d-byte OMAP key: %v", tc.klen, err)
			}
			continue
		}
		if !errors.Is(err, kvstore.ErrEntryTooLarge) {
			t.Fatalf("%d-byte OMAP key: err = %v, want ErrEntryTooLarge", tc.klen, err)
		}
		if s.objects["obj"] != before || d.Stats().WriteOps != writes {
			t.Fatalf("%d-byte OMAP key: refused transaction touched the object (%+v -> %+v, %d device writes)",
				tc.klen, before, s.objects["obj"], d.Stats().WriteOps-writes)
		}
		if got := readObj(t, s, "obj", 0, len(old)); !bytes.Equal(got, old) {
			t.Fatalf("%d-byte OMAP key: data changed", tc.klen)
		}
		if v, ok, _, _ := s.OmapGet(0, "obj", []byte("iv")); !ok || string(v) != "old" {
			t.Fatalf("%d-byte OMAP key: iv = %q,%v", tc.klen, v, ok)
		}
	}
	if v, ok, _, _ := s.OmapGet(0, "obj", []byte("iv")); !ok || string(v) != "new" {
		t.Fatalf("after the fitting key: iv = %q,%v", v, ok)
	}
}

// TestApplyAllocBudget pins what one OMAP-layout write costs the store: a
// 64 KiB aligned write, 16 OMAP pairs and the snapset attribute through
// Apply on a warmed store. The transaction is staged in the store's
// reused batch and key buffer and committed through kvstore's reused
// scratch, so nothing here is per pair.
func TestApplyAllocBudget(t *testing.T) {
	s, _ := testStore(t)
	txn := NewTxn()
	txn.Writes = append(txn.Writes, DataWrite{Off: 64 << 10, Data: make([]byte, 64<<10)})
	for i := 0; i < 16; i++ {
		txn.OmapSet = append(txn.OmapSet, KVPair{Key: []byte{0, 0, 0, 0, 0, 0, 0, byte(16 + i)}, Value: make([]byte, 32)})
	}
	txn.AttrSet = append(txn.AttrSet, KVPair{Key: []byte("rados.snapset"), Value: make([]byte, 20)})
	apply := func() {
		if _, err := s.Apply(0, "rbd_data.0000000000000001", txn); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		apply()
	}
	const budget = 0
	if got := testing.AllocsPerRun(200, apply); got > budget {
		t.Errorf("64 KiB + 16 pairs + snapset Apply: %.0f allocs/op, budget %d", got, budget)
	}
}
