package kvstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/vtime"
)

// TestFlushCadenceGolden pins the LSM's schedule. The memtable's size
// accounting and skiplist level draws decide when a store flushes and
// compacts, and through that every device-byte and virtual-time figure
// the benchmark reports, so who owns the memtable's bytes must not move
// them. The literals were recorded by running this test at the commit
// before the memtable owned its bytes (b00ac66). No value in the mix
// outgrows an earlier value of its key, so the dead-byte accounting of
// a relocated value never enters.
func TestFlushCadenceGolden(t *testing.T) {
	s := mustOpen(t, newTestFile(t, 64), smallConfig())
	rng := rand.New(rand.NewSource(18))
	const nkeys = 600
	key := func(k int) []byte { return []byte(fmt.Sprintf("key%04d", k)) }
	lens := make([]int, nkeys) // per key, never grows
	for i := range lens {
		lens[i] = 16 + rng.Intn(240)
	}
	put := func(b *Batch, op int) {
		k := rng.Intn(nkeys)
		if rng.Intn(10) == 0 && lens[k] > 4 {
			lens[k] -= 1 + rng.Intn(4) // shrinking overwrite
		}
		b.Put(key(k), bytes.Repeat([]byte{byte(op)}, lens[k]))
	}
	for op := 0; op < 20000; op++ {
		var b Batch
		switch r := rng.Intn(100); {
		case r < 55:
			for i, n := 0, 1+rng.Intn(8); i < n; i++ {
				put(&b, op)
			}
		case r < 80:
			for i, n := 0, 1+rng.Intn(4); i < n; i++ {
				b.Delete(key(rng.Intn(nkeys)))
			}
		case r < 99: // a tombstoned key comes back
			k := rng.Intn(nkeys)
			b.Delete(key(k))
			if _, err := s.Apply(0, &b); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			b = Batch{}
			b.Put(key(k), bytes.Repeat([]byte{byte(op)}, lens[k]))
		default:
			lo := rng.Intn(nkeys - 10)
			if _, _, err := s.DeleteRange(0, key(lo), key(lo+10)); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			continue
		}
		if _, err := s.Apply(0, &b); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}

	st := s.Stats()
	got := []int64{st.Flushes, st.Compactions, st.BytesFlushed, st.BytesCompacted, st.WALBytes, st.EntriesWritten, s.SpaceUsed()}
	want := []int64{508, 252, 7173059, 18078016, 8628148, 71365, 20008960}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flushes, compactions, bytes flushed, bytes compacted, wal bytes, entries written, space used\n got %v\nwant %v", got, want)
	}
	if got, want := s.TableCounts(), []int{1, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("table counts %v, want %v", got, want)
	}
}

// TestGrowingRewritesStillFlush is the case the golden mix leaves out: a
// handful of keys rewritten with ever larger values. Each rewrite takes a
// new slot and abandons the old one inside the memtable, so the dead
// slots have to count toward the flush trigger, or the memtable would
// own unbounded storage behind a constant live size.
func TestGrowingRewritesStillFlush(t *testing.T) {
	cfg := smallConfig()
	cfg.WALBytes = 8 << 20 // only the memtable's own accounting may flush
	s := mustOpen(t, newTestFile(t, 64), cfg)
	var b Batch
	for n := 1; n <= 1200; n++ {
		b.Reset()
		for k := 0; k < 5; k++ {
			b.Put([]byte{'k', byte(k)}, bytes.Repeat([]byte{byte(n)}, n))
		}
		if _, err := s.Apply(0, &b); err != nil {
			t.Fatalf("rewrite %d: %v", n, err)
		}
		if limit := cfg.MemtableBytes + int64(b.Bytes()); s.mem.owned > limit {
			t.Fatalf("rewrite %d: memtable owns %d bytes, limit %d", n, s.mem.owned, limit)
		}
	}
	if st := s.Stats(); st.Flushes < 100 {
		t.Fatalf("%d flushes over 3.6 MB of rewrites against a %d-byte memtable", st.Flushes, cfg.MemtableBytes)
	}
	for k := 0; k < 5; k++ {
		if v, ok, _, err := s.Get(0, []byte{'k', byte(k)}); err != nil || !ok || len(v) != 1200 || v[0] != byte(1200%256) {
			t.Fatalf("key %d: %d bytes, found %v, err %v", k, len(v), ok, err)
		}
	}
}

// TestMediaDigestGolden pins every byte the LSM writes. It runs a seeded
// mix shaped like the blobstore's commit batches (an onode and a snapset
// attr, an ascending run of OMAP IV keys with a few deletes, a journal
// record put and the previous one's cleanup), with a point read and a
// range scan now and then, through enough flushes and compactions that
// the memtable, the table builder, the bloom filter and the merge all
// shape what reaches the device. The media digest, the last virtual time
// and the counters were recorded at the commit before the memtable
// recycled its storage and spliced its inserts, the filter hashed in one
// pass and the merge cached its sources' keys; a change meant to cost
// only host cycles must leave all three as they are.
func TestMediaDigestGolden(t *testing.T) {
	f := newTestFile(t, 128)
	s := mustOpen(t, f, smallConfig())
	rng := rand.New(rand.NewSource(41))
	obj := func(o int) string { return fmt.Sprintf("rbd_data.10226b8b4567.%016x", o) }
	omapKey := func(o int, block uint64) []byte {
		return binary.BigEndian.AppendUint64([]byte("M/"+obj(o)+"\x00iv."), block)
	}
	var now vtime.Time
	step := func(end vtime.Time, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		now = end
	}
	var b Batch
	var prevDefer []byte
	for batch := 0; batch < 9000; batch++ {
		o := rng.Intn(48)
		b.Reset()
		b.Put([]byte("O/"+obj(o)), bytes.Repeat([]byte{byte(batch)}, 40+rng.Intn(8)))
		b.Put([]byte("A/"+obj(o)+"\x00rados.snapset"), bytes.Repeat([]byte{byte(batch >> 8)}, 12+rng.Intn(4)))
		first := uint64(rng.Intn(1024))
		for i, n := uint64(0), uint64(1+rng.Intn(16)); i < n; i++ {
			if rng.Intn(20) == 0 {
				b.Delete(omapKey(o, first+i))
			} else {
				b.Put(omapKey(o, first+i), bytes.Repeat([]byte{byte(batch + int(i))}, 28))
			}
		}
		deferKey := binary.BigEndian.AppendUint64([]byte("D/"), s.Seq())
		b.PutTransient(deferKey, bytes.Repeat([]byte{byte(batch)}, 8+rng.Intn(600)))
		if prevDefer != nil {
			b.DeleteTransient(prevDefer)
		}
		prevDefer = deferKey
		end, err := s.Apply(now, &b)
		step(end, err)
		if batch%300 == 299 {
			_, _, end, err := s.Get(now, omapKey(rng.Intn(48), uint64(rng.Intn(1024))))
			step(end, err)
			o := rng.Intn(48)
			_, end, err = s.Scan(now, omapKey(o, 0), omapKey(o, 1024), 0)
			step(end, err)
		}
	}

	h := sha256.New()
	snap := f.Disk().Snapshot()
	chunks := make([]int64, 0, len(snap))
	for c := range snap {
		chunks = append(chunks, c)
	}
	slices.Sort(chunks)
	for _, c := range chunks {
		binary.Write(h, binary.LittleEndian, c)
		h.Write(snap[c])
	}
	if got, want := fmt.Sprintf("%x", h.Sum(nil)), "803ef36b10418f7695a03f4abcc152f8cfe1d5acd0e6e3bb03fb3acb7c101e60"; got != want {
		t.Errorf("media digest\n got %s\nwant %s", got, want)
	}
	if want := vtime.Time(2723342948); now != want {
		t.Errorf("last virtual time %d, want %d", now, want)
	}
	want := Stats{Applies: 9000, EntriesWritten: 112764, Gets: 30, Scans: 30, Flushes: 631, Compactions: 314,
		BytesFlushed: 8618568, BytesCompacted: 93005693, WALBytes: 11419675}
	if got := s.Stats(); got != want {
		t.Errorf("stats\n got %+v\nwant %+v", got, want)
	}
}
