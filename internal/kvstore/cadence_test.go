package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
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
