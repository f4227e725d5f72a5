package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/simdisk"
)

func newTestFile(t *testing.T, mb int64) *simdisk.Partition {
	t.Helper()
	d := simdisk.New("kv", mb*256, simdisk.DefaultCostModel()) // mb MiB
	return simdisk.NewPartition(d, 0, d.Sectors())
}

func smallConfig() Config {
	return Config{
		MemtableBytes: 16 << 10, // tiny, to exercise flush/compaction
		WALBytes:      64 << 10,
		Fanout:        3,
		MaxLevels:     3,
	}
}

func mustOpen(t *testing.T, f File, cfg Config) *Store {
	t.Helper()
	s, _, err := Open(0, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func apply1(t *testing.T, s *Store, k, v string) {
	t.Helper()
	var b Batch
	b.Put([]byte(k), []byte(v))
	if _, err := s.Apply(0, &b); err != nil {
		t.Fatal(err)
	}
}

func get(t *testing.T, s *Store, k string) (string, bool) {
	t.Helper()
	v, ok, _, err := s.Get(0, []byte(k))
	if err != nil {
		t.Fatal(err)
	}
	return string(v), ok
}

func TestBasicPutGet(t *testing.T) {
	s := mustOpen(t, newTestFile(t, 16), smallConfig())
	apply1(t, s, "alpha", "1")
	apply1(t, s, "beta", "2")
	if v, ok := get(t, s, "alpha"); !ok || v != "1" {
		t.Fatalf("alpha = %q,%v", v, ok)
	}
	if v, ok := get(t, s, "beta"); !ok || v != "2" {
		t.Fatalf("beta = %q,%v", v, ok)
	}
	if _, ok := get(t, s, "gamma"); ok {
		t.Fatal("gamma should be absent")
	}
}

func TestOverwriteAndDelete(t *testing.T) {
	s := mustOpen(t, newTestFile(t, 16), smallConfig())
	apply1(t, s, "k", "v1")
	apply1(t, s, "k", "v2")
	if v, _ := get(t, s, "k"); v != "v2" {
		t.Fatalf("k = %q", v)
	}
	var b Batch
	b.Delete([]byte("k"))
	if _, err := s.Apply(0, &b); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(t, s, "k"); ok {
		t.Fatal("k should be deleted")
	}
}

func TestDeleteSurvivesFlushShadowing(t *testing.T) {
	s := mustOpen(t, newTestFile(t, 16), smallConfig())
	apply1(t, s, "k", "old")
	if _, err := s.Flush(0); err != nil {
		t.Fatal(err)
	}
	var b Batch
	b.Delete([]byte("k"))
	if _, err := s.Apply(0, &b); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Flush(0); err != nil {
		t.Fatal(err)
	}
	// The tombstone in the newer table must shadow the old value.
	if _, ok := get(t, s, "k"); ok {
		t.Fatal("tombstone failed to shadow flushed value")
	}
}

func TestBatchAtomicVisibility(t *testing.T) {
	s := mustOpen(t, newTestFile(t, 16), smallConfig())
	var b Batch
	for i := 0; i < 100; i++ {
		b.Put([]byte(fmt.Sprintf("key%03d", i)), []byte(fmt.Sprintf("val%03d", i)))
	}
	if b.Len() != 100 || b.Bytes() == 0 {
		t.Fatalf("batch accounting: len=%d bytes=%d", b.Len(), b.Bytes())
	}
	if _, err := s.Apply(0, &b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if v, ok := get(t, s, fmt.Sprintf("key%03d", i)); !ok || v != fmt.Sprintf("val%03d", i) {
			t.Fatalf("key%03d = %q,%v", i, v, ok)
		}
	}
}

func TestScanRangeAndLimit(t *testing.T) {
	s := mustOpen(t, newTestFile(t, 16), smallConfig())
	for i := 0; i < 50; i++ {
		apply1(t, s, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i))
	}
	kvs, _, err := s.Scan(0, []byte("k10"), []byte("k20"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 10 {
		t.Fatalf("scan returned %d", len(kvs))
	}
	for i, kv := range kvs {
		if want := fmt.Sprintf("k%02d", 10+i); string(kv.Key) != want {
			t.Fatalf("kvs[%d].Key = %q want %q", i, kv.Key, want)
		}
	}
	kvs, _, err = s.Scan(0, nil, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 7 {
		t.Fatalf("limited scan returned %d", len(kvs))
	}
}

func TestScanSkipsTombstonesAcrossLevels(t *testing.T) {
	s := mustOpen(t, newTestFile(t, 16), smallConfig())
	for i := 0; i < 20; i++ {
		apply1(t, s, fmt.Sprintf("k%02d", i), "x")
	}
	if _, err := s.Flush(0); err != nil {
		t.Fatal(err)
	}
	var b Batch
	for i := 0; i < 20; i += 2 {
		b.Delete([]byte(fmt.Sprintf("k%02d", i)))
	}
	if _, err := s.Apply(0, &b); err != nil {
		t.Fatal(err)
	}
	kvs, _, err := s.Scan(0, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 10 {
		t.Fatalf("scan returned %d want 10", len(kvs))
	}
	for _, kv := range kvs {
		var n int
		fmt.Sscanf(string(kv.Key), "k%d", &n)
		if n%2 == 0 {
			t.Fatalf("deleted key %q visible", kv.Key)
		}
	}
}

func TestDeleteRange(t *testing.T) {
	s := mustOpen(t, newTestFile(t, 16), smallConfig())
	for i := 0; i < 30; i++ {
		apply1(t, s, fmt.Sprintf("k%02d", i), "x")
	}
	n, _, err := s.DeleteRange(0, []byte("k05"), []byte("k15"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("deleted %d want 10", n)
	}
	kvs, _, _ := s.Scan(0, nil, nil, 0)
	if len(kvs) != 20 {
		t.Fatalf("left %d want 20", len(kvs))
	}
}

func TestFlushAndCompactionKeepData(t *testing.T) {
	cfg := smallConfig()
	s := mustOpen(t, newTestFile(t, 64), cfg)
	// Write enough to force several flushes and at least one compaction.
	val := bytes.Repeat([]byte{0xAB}, 128)
	for i := 0; i < 800; i++ {
		var b Batch
		b.Put([]byte(fmt.Sprintf("key%04d", i%400)), val)
		if _, err := s.Apply(0, &b); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Flushes == 0 || st.Compactions == 0 {
		t.Fatalf("expected flush+compaction activity, got %+v", st)
	}
	for i := 0; i < 400; i++ {
		if _, ok := get(t, s, fmt.Sprintf("key%04d", i)); !ok {
			t.Fatalf("key%04d lost after compaction", i)
		}
	}
	counts := s.TableCounts()
	for lvl, c := range counts {
		if c >= cfg.Fanout+1 {
			t.Fatalf("level %d has %d tables, compaction not keeping up", lvl, c)
		}
	}
}

func TestReopenRecoversFromWAL(t *testing.T) {
	f := newTestFile(t, 16)
	cfg := smallConfig()
	s := mustOpen(t, f, cfg)
	apply1(t, s, "persisted", "yes")
	apply1(t, s, "another", "val")
	// No flush: data only in WAL + memtable. Reopen must replay.
	s2 := mustOpen(t, f, cfg)
	if v, ok := get(t, s2, "persisted"); !ok || v != "yes" {
		t.Fatalf("persisted = %q,%v", v, ok)
	}
	if v, ok := get(t, s2, "another"); !ok || v != "val" {
		t.Fatalf("another = %q,%v", v, ok)
	}
}

func TestReopenRecoversFlushedAndWAL(t *testing.T) {
	f := newTestFile(t, 16)
	cfg := smallConfig()
	s := mustOpen(t, f, cfg)
	for i := 0; i < 100; i++ {
		apply1(t, s, fmt.Sprintf("f%03d", i), "flushed")
	}
	if _, err := s.Flush(0); err != nil {
		t.Fatal(err)
	}
	apply1(t, s, "walonly", "fresh")
	s2 := mustOpen(t, f, cfg)
	if v, ok := get(t, s2, "f050"); !ok || v != "flushed" {
		t.Fatalf("f050 = %q,%v", v, ok)
	}
	if v, ok := get(t, s2, "walonly"); !ok || v != "fresh" {
		t.Fatalf("walonly = %q,%v", v, ok)
	}
	// Sequence numbers must not regress after recovery.
	apply1(t, s2, "walonly", "fresher")
	if v, _ := get(t, s2, "walonly"); v != "fresher" {
		t.Fatal("post-recovery write lost")
	}
}

func TestPowerCutTornBatchDiscarded(t *testing.T) {
	d := simdisk.New("kv", 16*256, simdisk.DefaultCostModel())
	f := simdisk.NewPartition(d, 0, d.Sectors())
	cfg := smallConfig()
	s := mustOpen(t, f, cfg)
	apply1(t, s, "committed", "1")

	// Cut power on the very next write: the WAL append is dropped.
	d.PowerCutAfter(0)
	var b Batch
	b.Put([]byte("torn"), []byte("x"))
	if _, err := s.Apply(0, &b); err == nil {
		t.Fatal("expected power cut error")
	}
	d.PowerRestore()

	s2 := mustOpen(t, f, cfg)
	if v, ok := get(t, s2, "committed"); !ok || v != "1" {
		t.Fatalf("committed = %q,%v", v, ok)
	}
	if _, ok := get(t, s2, "torn"); ok {
		t.Fatal("torn batch must not be visible after recovery")
	}
}

// TestOpenCorruptSuperblockIsLoud: a superblock that carries the magic
// but does not validate is corruption, not a fresh disk. Open must fail
// with ErrCorrupt and leave the sector as it found it, so the committed
// state is still there to recover; only a file without the magic is
// formatted.
func TestOpenCorruptSuperblockIsLoud(t *testing.T) {
	const n = 2000
	f := newTestFile(t, 16)
	cfg := smallConfig()
	s := mustOpen(t, f, cfg)
	for i := 0; i < n; i++ {
		apply1(t, s, fmt.Sprintf("k%05d", i), "v")
	}
	readSuper := func() []byte {
		t.Helper()
		b := make([]byte, superSector)
		if _, err := f.ReadAt(0, b, 0); err != nil {
			t.Fatal(err)
		}
		return b
	}
	openFails := func(name string, cfg Config) {
		t.Helper()
		before := readSuper()
		if _, _, err := Open(0, f, cfg); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Open err = %v, want ErrCorrupt", name, err)
		}
		if !bytes.Equal(readSuper(), before) {
			t.Fatalf("%s: failed Open rewrote the superblock", name)
		}
	}

	wide := cfg
	wide.WALBytes *= 2
	openFails("WALBytes doubled", wide)
	s2 := mustOpen(t, f, cfg)
	for i := 0; i < n; i++ {
		if v, ok := get(t, s2, fmt.Sprintf("k%05d", i)); !ok || v != "v" {
			t.Fatalf("k%05d = %q,%v after a refused Open", i, v, ok)
		}
	}

	super := readSuper()
	super[17] ^= 0x04 // one bit of the sequence number
	if _, err := f.WriteAt(0, super, 0); err != nil {
		t.Fatal(err)
	}
	openFails("bit flip", cfg)

	zero := newTestFile(t, 16)
	s3 := mustOpen(t, zero, cfg)
	apply1(t, s3, "fresh", "1")
	if v, ok := get(t, mustOpen(t, zero, cfg), "fresh"); !ok || v != "1" {
		t.Fatalf("all-zero file: fresh = %q,%v after format and reopen", v, ok)
	}
}

// TestCorruptBlockSizesAreLoud plants the two sizes readBlock takes from
// media in a flushed store: one block's entry count and another block's
// length in the table index. Each read must be ErrCorrupt, without a
// panic and without an allocation sized by the planted value.
func TestCorruptBlockSizesAreLoud(t *testing.T) {
	f := newTestFile(t, 16)
	cfg := smallConfig()
	s := mustOpen(t, f, cfg)
	for i := 0; i < 2000; i++ {
		apply1(t, s, fmt.Sprintf("k%05d", i), fmt.Sprintf("value-%05d", i))
	}
	if _, err := s.Flush(0); err != nil {
		t.Fatal(err)
	}
	var tbl *table
	for _, level := range s.levels {
		for _, lt := range level {
			if tbl == nil || len(lt.index) > len(tbl.index) {
				tbl = lt
			}
		}
	}
	if tbl == nil || len(tbl.index) < 2 {
		t.Fatal("want a flushed table of at least two blocks")
	}
	write := func(v uint32, off int64) {
		t.Helper()
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		if _, err := f.WriteAt(0, b[:], tbl.segOff+off); err != nil {
			t.Fatal(err)
		}
	}

	// Block 0's entry count: a million entries in a block of a few KiB.
	write(1<<20, tbl.index[0].off)
	// Block 1's length in the index: 64 MiB, past the table and the file.
	foot := make([]byte, footerSize)
	if _, err := f.ReadAt(0, foot, tbl.segOff+tbl.segLen-footerSize); err != nil {
		t.Fatal(err)
	}
	idx := make([]byte, binary.LittleEndian.Uint32(foot[16:20]))
	indexOff := int64(binary.LittleEndian.Uint64(foot[8:16]))
	if _, err := f.ReadAt(0, idx, tbl.segOff+indexOff); err != nil {
		t.Fatal(err)
	}
	p := 0
	for range 2 { // minKey, maxKey
		p += 2 + int(binary.LittleEndian.Uint16(idx[p:]))
	}
	p += 4                                                // block count
	p += 14 + int(binary.LittleEndian.Uint16(idx[p+12:])) // block 0's meta and first key
	write(1<<26, indexOff+int64(p)+8)

	s2 := mustOpen(t, f, cfg)
	for i, key := range [][]byte{tbl.index[0].firstKey, tbl.index[1].firstKey} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err := s2.Get(0, key)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("block %d (%s): Get err = %v, want ErrCorrupt", i, key, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("block %d (%s): Get allocated %d bytes", i, key, n)
		}
	}
}

func TestWALRotationOnFull(t *testing.T) {
	cfg := smallConfig()
	cfg.WALBytes = 16 << 10
	cfg.MemtableBytes = 1 << 20 // flushes only happen due to WAL pressure
	s := mustOpen(t, newTestFile(t, 32), cfg)
	val := bytes.Repeat([]byte{1}, 1024)
	for i := 0; i < 100; i++ {
		var b Batch
		b.Put([]byte(fmt.Sprintf("k%03d", i)), val)
		if _, err := s.Apply(0, &b); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	if s.Stats().Flushes == 0 {
		t.Fatal("WAL pressure should have forced flushes")
	}
	for i := 0; i < 100; i++ {
		if _, ok := get(t, s, fmt.Sprintf("k%03d", i)); !ok {
			t.Fatalf("k%03d lost across WAL rotation", i)
		}
	}
}

func TestOversizedBatchRejected(t *testing.T) {
	cfg := smallConfig()
	cfg.WALBytes = 8 << 10
	s := mustOpen(t, newTestFile(t, 32), cfg)
	var b Batch
	b.Put([]byte("big"), bytes.Repeat([]byte{1}, 32<<10))
	if _, err := s.Apply(0, &b); err == nil {
		t.Fatal("expected oversized batch rejection")
	}
}

func TestEmptyBatchNoop(t *testing.T) {
	s := mustOpen(t, newTestFile(t, 16), smallConfig())
	var b Batch
	end, err := s.Apply(42, &b)
	if err != nil || end != 42 {
		t.Fatalf("empty batch: %v %v", end, err)
	}
	if s.Stats().Applies != 0 {
		t.Fatal("empty batch should not count")
	}
}

func TestVirtualTimeAdvancesOnApply(t *testing.T) {
	s := mustOpen(t, newTestFile(t, 16), smallConfig())
	var b Batch
	b.Put([]byte("k"), []byte("v"))
	end, err := s.Apply(1000, &b)
	if err != nil {
		t.Fatal(err)
	}
	if end <= 1000 {
		t.Fatalf("durability point %d should be after arrival", end)
	}
}

// Model-based randomized test: the store must agree with a map through an
// arbitrary interleaving of batched puts/deletes, flushes, scans and
// reopens. It also holds the store to its ownership rule from outside:
// the one batch and the key and value buffers every write is staged from
// are reused and scribbled over after each Apply, half of what Get and
// Scan return is scribbled over at once (the store must not notice) and
// the other half is kept and compared at the end (the store must not
// have touched it).
func TestRandomizedAgainstModel(t *testing.T) {
	f := newTestFile(t, 128)
	cfg := smallConfig()
	s := mustOpen(t, f, cfg)
	model := map[string]string{}
	rng := rand.New(rand.NewSource(7))
	key := func() string { return fmt.Sprintf("key%03d", rng.Intn(300)) }

	type held struct{ got, want []byte }
	var kept []held
	returned := func(p []byte) {
		if rng.Intn(2) == 0 {
			kept = append(kept, held{p, append([]byte(nil), p...)})
			return
		}
		for i := range p {
			p[i] ^= 0xFF
		}
	}
	var (
		b          Batch
		kbuf, vbuf []byte
	)
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(100); {
		case op < 55: // batch write
			b.Reset()
			n := 1 + rng.Intn(8)
			for i := 0; i < n; i++ {
				k := key()
				kbuf = append(kbuf[:0], k...)
				if rng.Intn(5) == 0 {
					b.Delete(kbuf)
					delete(model, k)
				} else {
					// 1 to ~600 bytes: shorter, equal and longer than
					// what the key held before.
					v := fmt.Sprintf("v%d.%s", rng.Int63(), strings.Repeat("x", rng.Intn(1+rng.Intn(600))))
					vbuf = append(vbuf[:0], v...)
					b.Put(kbuf, vbuf)
					model[k] = v
				}
			}
			if _, err := s.Apply(0, &b); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			for i := range kbuf {
				kbuf[i] = '!'
			}
			for i := range vbuf {
				vbuf[i] = '!'
			}
		case op < 85: // point lookup
			k := key()
			v, ok, _, err := s.Get(0, []byte(k))
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			want, wantOK := model[k]
			if ok != wantOK || (ok && string(v) != want) {
				t.Fatalf("step %d: Get(%q) = %.40q,%v want %.40q,%v", step, k, v, ok, want, wantOK)
			}
			returned(v)
		case op < 95: // range scan
			lo := fmt.Sprintf("key%03d", rng.Intn(300))
			hi := fmt.Sprintf("key%03d", rng.Intn(300))
			if lo > hi {
				lo, hi = hi, lo
			}
			kvs, _, err := s.Scan(0, []byte(lo), []byte(hi), 0)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			count := 0
			for k := range model {
				if k >= lo && k < hi {
					count++
				}
			}
			if len(kvs) != count {
				t.Fatalf("step %d: scan[%q,%q) = %d want %d", step, lo, hi, len(kvs), count)
			}
			for _, kv := range kvs {
				if want := model[string(kv.Key)]; string(kv.Value) != want {
					t.Fatalf("step %d: scan %q = %.40q want %.40q", step, kv.Key, kv.Value, want)
				}
				returned(kv.Key)
				returned(kv.Value)
			}
		case op < 98: // forced flush
			if _, err := s.Flush(0); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		default: // reopen (recovery)
			s = mustOpen(t, f, cfg)
		}
	}
	for i, h := range kept {
		if !bytes.Equal(h.got, h.want) {
			t.Fatalf("returned slice %d changed after the call: %.40q, was %.40q", i, h.got, h.want)
		}
	}
	kvs, _, err := s.Scan(0, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != len(model) {
		t.Fatalf("final scan: %d pairs, model has %d", len(kvs), len(model))
	}
	for _, kv := range kvs {
		if want := model[string(kv.Key)]; string(kv.Value) != want {
			t.Fatalf("final scan: %q = %.40q want %.40q", kv.Key, kv.Value, want)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	s := mustOpen(t, newTestFile(t, 16), smallConfig())
	apply1(t, s, "a", "b")
	get(t, s, "a")
	s.Scan(0, nil, nil, 0)
	st := s.Stats()
	if st.Applies != 1 || st.EntriesWritten != 1 || st.Gets != 1 || st.Scans != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.WALBytes == 0 {
		t.Fatal("WAL bytes not counted")
	}
	if s.SpaceUsed() == 0 {
		t.Fatal("space used should include metadata regions")
	}
}

func TestBloomFilter(t *testing.T) {
	f := newBloom(1000, 10)
	for i := 0; i < 1000; i++ {
		f.add([]byte(fmt.Sprintf("key%d", i)))
	}
	for i := 0; i < 1000; i++ {
		if !f.mayContain([]byte(fmt.Sprintf("key%d", i))) {
			t.Fatalf("false negative on key%d", i)
		}
	}
	fp := 0
	for i := 0; i < 10000; i++ {
		if f.mayContain([]byte(fmt.Sprintf("other%d", i))) {
			fp++
		}
	}
	// 10 bits/key should be around 1% false positives; allow generous slack.
	if fp > 500 {
		t.Fatalf("false positive rate too high: %d/10000", fp)
	}
	// Nil filter admits everything.
	var nilF *bloomFilter
	if !nilF.mayContain([]byte("x")) {
		t.Fatal("nil filter must admit")
	}
}

// TestBloomHashMatchesFNV holds the one-pass hash to the two hash/fnv
// passes it replaced, bit for bit: the filters already on media were
// built from them.
func TestBloomHashMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		key := make([]byte, rng.Intn(80))
		rng.Read(key)
		if i == 0 {
			key = nil
		}
		h := fnv.New64a()
		h.Write(key)
		want1 := h.Sum64()
		h = fnv.New64a()
		h.Write([]byte{0x9e})
		h.Write(key)
		want2 := h.Sum64() | 1
		if got1, got2 := bloomHash(key); got1 != want1 || got2 != want2 {
			t.Fatalf("key %x: bloomHash = %#x, %#x, want %#x, %#x", key, got1, got2, want1, want2)
		}
	}
}

func TestMemtableOrdering(t *testing.T) {
	m := newMemtable(1, 0)
	keys := []string{"delta", "alpha", "charlie", "bravo", "echo"}
	for i, k := range keys {
		m.set(memEntry{key: []byte(k), value: []byte{byte(i)}, kind: kindPut})
	}
	var got []string
	for it := m.iter(nil); it.valid(); it.next() {
		got = append(got, string(it.entry().key))
	}
	want := []string{"alpha", "bravo", "charlie", "delta", "echo"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v", got)
		}
	}
	// Seek positioning.
	it := m.iter([]byte("c"))
	if !it.valid() || string(it.entry().key) != "charlie" {
		t.Fatal("seek failed")
	}
}

func TestTableGetAcrossBlocks(t *testing.T) {
	// Build a table with several blocks and verify point reads everywhere.
	var entries []memEntry
	val := bytes.Repeat([]byte{9}, 200)
	for i := 0; i < 200; i++ {
		entries = append(entries, memEntry{key: []byte(fmt.Sprintf("key%04d", i)), value: val, kind: kindPut})
	}
	tbl, seg := buildTable(entries, 1024, 10)
	if len(tbl.index) < 10 {
		t.Fatalf("expected many blocks, got %d", len(tbl.index))
	}
	f := newTestFile(t, 16)
	if _, err := f.WriteAt(0, seg, 8192); err != nil {
		t.Fatal(err)
	}
	c := &cursor{}
	got, err := openTable(c, f, 8192, int64(len(seg)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		e, ok, err := got.get(c, []byte(fmt.Sprintf("key%04d", i)))
		if err != nil || !ok {
			t.Fatalf("key%04d: %v %v", i, ok, err)
		}
		if !bytes.Equal(e.value, val) {
			t.Fatalf("key%04d value mismatch", i)
		}
	}
	if _, ok, _ := got.get(c, []byte("zzz")); ok {
		t.Fatal("phantom key")
	}
	if _, ok, _ := got.get(c, []byte("aaa")); ok {
		t.Fatal("phantom key below range")
	}
}

func TestOpenRejectsTinyFile(t *testing.T) {
	d := simdisk.New("kv", 4, simdisk.DefaultCostModel())
	f := simdisk.NewPartition(d, 0, 4)
	if _, _, err := Open(0, f, smallConfig()); err == nil {
		t.Fatal("expected size rejection")
	}
}

// TestApplyAllocBudget pins the commit path's allocations where they are
// spent: on a warmed store, applying a reused 18-entry batch (the OMAP
// write's onode + snapset + 16 pairs) stages into the batch arena, the
// store's payload buffer, the WAL's sector image and the memtable's
// chunks and slabs, none of which is per key. What is left is a new
// chunk or slab every few hundred entries.
func TestApplyAllocBudget(t *testing.T) {
	cfg := smallConfig()
	cfg.MemtableBytes = 4 << 20 // no flush inside the measured runs
	cfg.WALBytes = 8 << 20
	s := mustOpen(t, newTestFile(t, 64), cfg)
	var b Batch
	key := []byte("M/rbd_data.0000000000000001\x00........")
	val := make([]byte, 32)
	n := 0
	apply := func() {
		b.Reset()
		for i := 0; i < 18; i++ {
			n++
			key[len(key)-1], key[len(key)-2] = byte(n), byte(n>>8) // 4096 keys, then overwrites
			b.Put(key, val)
		}
		if _, err := s.Apply(0, &b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		apply()
	}
	if got := testing.AllocsPerRun(400, apply); got > 1 {
		t.Errorf("18-entry Apply: %.2f allocs/op, budget 1", got)
	}
}

// TestWALTailAcrossSectors appends records of 1 to 3x4096 value bytes
// through the WAL's one reused sector image — inside the tail sector's
// free space, across one, two and three boundaries, and every fourth one
// sized to end exactly on a boundary — and reopens after each: replay
// must find every batch so far, and the reopened log must extend the
// tail it rebuilt.
func TestWALTailAcrossSectors(t *testing.T) {
	cfg := smallConfig()
	cfg.MemtableBytes = 8 << 20 // nothing flushes, so the log is never reset
	cfg.WALBytes = 1 << 20
	f := newTestFile(t, 16)
	s := mustOpen(t, f, cfg)
	rng := rand.New(rand.NewSource(3))
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%02d", i)) }
	var sizes []int
	for i := 0; i < 48; i++ {
		size := 1 + rng.Intn(3*walSectorSize)
		if i%4 == 3 {
			used := int(s.wal.writeOff%walSectorSize) + walHeaderSize + entryHeaderSize + len(key(i))
			size = 2*walSectorSize - used%walSectorSize
		}
		sizes = append(sizes, size)
		var b Batch
		b.Put(key(i), bytes.Repeat([]byte{byte(i + 1)}, size))
		if _, err := s.Apply(0, &b); err != nil {
			t.Fatalf("record %d (%d bytes): %v", i, size, err)
		}
		if i%4 == 3 && s.wal.writeOff%walSectorSize != 0 {
			t.Fatalf("record %d was sized to end on a sector boundary, log ends at %d", i, s.wal.writeOff)
		}
		s = mustOpen(t, f, cfg)
		for j := 0; j <= i; j++ {
			v, ok, _, err := s.Get(0, key(j))
			if err != nil || !ok || !bytes.Equal(v, bytes.Repeat([]byte{byte(j + 1)}, sizes[j])) {
				t.Fatalf("after record %d: record %d (%d bytes) found %v, %d bytes, err %v", i, j, sizes[j], ok, len(v), err)
			}
		}
	}
}

// TestEntryTooLargeRejected: the entry encoding holds a key length in 16
// bits. A longer key used to be acknowledged, readable until restart and
// a different, truncated key after it; Apply now refuses the whole batch
// before anything is logged or inserted.
func TestEntryTooLargeRejected(t *testing.T) {
	f := newTestFile(t, 64)
	cfg := Config{}
	s := mustOpen(t, f, cfg)
	long := bytes.Repeat([]byte{'k'}, 70000)

	var b Batch
	b.Put([]byte("neighbour"), []byte("v"))
	b.Put(long, []byte("v"))
	before := s.Stats()
	if _, err := s.Apply(0, &b); !errors.Is(err, ErrEntryTooLarge) {
		t.Fatalf("70000-byte key: err = %v, want ErrEntryTooLarge", err)
	}
	if after := s.Stats(); after != before || s.MemtableBytes() != 0 {
		t.Fatalf("refused batch left a trace: stats %+v -> %+v, memtable %d bytes", before, after, s.MemtableBytes())
	}

	for _, tc := range []struct {
		klen int
		ok   bool
	}{{65535, true}, {65536, false}} {
		var b Batch
		b.Put(long[:tc.klen], []byte("edge"))
		_, err := s.Apply(0, &b)
		if tc.ok != (err == nil) || (!tc.ok && !errors.Is(err, ErrEntryTooLarge)) {
			t.Fatalf("%d-byte key: err = %v, want accepted %v", tc.klen, err, tc.ok)
		}
	}

	// What was acknowledged is the same after a restart, from the log and
	// from a table.
	for _, flush := range []bool{false, true} {
		if flush {
			if _, err := s.Flush(0); err != nil {
				t.Fatal(err)
			}
		}
		s = mustOpen(t, f, cfg)
		if v, ok := get(t, s, string(long[:65535])); !ok || v != "edge" {
			t.Fatalf("flushed %v: 65535-byte key = %q,%v after reopen", flush, v, ok)
		}
		kvs, _, err := s.Scan(0, nil, nil, 0)
		if err != nil || len(kvs) != 1 || len(kvs[0].Key) != 65535 {
			t.Fatalf("flushed %v: scan after reopen: %d pairs, err %v", flush, len(kvs), err)
		}
	}
}
