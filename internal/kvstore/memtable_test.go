package kvstore

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"unsafe"
)

// memModel is what the memtable must hold for one key, and the size of
// the slot its value sits in.
type memModel struct {
	value []byte
	seq   uint64
	kind  entryKind
	slot  int
}

// FuzzMemtable drives set with random, ascending and near-ascending keys
// (the splice's fast path and its fallback), growing and shrinking
// values and tombstones, resetting between rounds, and checks the
// skiplist against a sorted-map model: iteration order and contents,
// every level sorted, get, size/count/owned by the formula set has
// always used, and towers as tall as a new memtable of the round's seed
// would build (reset reseeds the level draws).
func FuzzMemtable(f *testing.F) {
	f.Add(int64(1), []byte("\x01a\x05\x02\x00\x10\x02\x01\x20\x03\x00\x07\x01b\x30\x00\x00\x00\x02\x00\x01"))
	f.Add(int64(7), bytes.Repeat([]byte{2, 1, 40, 3, 1, 9, 1, 200, 0}, 40))
	var rounds []byte // four rounds of ascending, near-ascending and random keys
	for r := 0; r < 4; r++ {
		for i := 0; i < 60; i++ {
			rounds = append(rounds, byte(1+i%7), byte(i*7), byte(i*13+r))
		}
		rounds = append(rounds, 0, 0, 0)
	}
	f.Add(int64(3), rounds)
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 3*2000 {
			ops = ops[:3*2000]
		}
		m := newMemtable(seed, 0)
		model := map[string]*memModel{}
		var size, owned int64
		var last uint64 // the ascending modes' cursor
		round, sets := int64(0), []memEntry(nil)
		check := func() {
			t.Helper()
			fresh := newMemtable(seed+round, 0)
			for _, e := range sets {
				fresh.set(e)
			}
			for n, fn := m.head.next[0], fresh.head.next[0]; n != nil || fn != nil; n, fn = n.next[0], fn.next[0] {
				if n == nil || fn == nil || n.level != fn.level {
					t.Fatalf("round %d: the towers differ from a new memtable's", round)
				}
			}
			keys := make([]string, 0, len(model))
			for k := range model {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			i := 0
			for it := m.iter(nil); it.valid(); it.next() {
				e := it.entry()
				if i >= len(keys) || string(e.key) != keys[i] {
					t.Fatalf("iteration position %d holds %q, model has %d keys", i, e.key, len(keys))
				}
				if want := model[keys[i]]; !bytes.Equal(e.value, want.value) || e.seq != want.seq || e.kind != want.kind {
					t.Fatalf("key %q: got %q seq %d kind %d, want %q seq %d kind %d", e.key, e.value, e.seq, e.kind, want.value, want.seq, want.kind)
				}
				i++
			}
			if i != len(keys) {
				t.Fatalf("iteration stopped after %d of %d keys", i, len(keys))
			}
			for lvl := 0; lvl < maxHeight; lvl++ {
				for n := m.head.next[lvl]; n != nil; n = n.next[lvl] {
					if n.level <= lvl {
						t.Fatalf("level %d links a node of height %d", lvl, n.level)
					}
					if nx := n.next[lvl]; nx != nil && bytes.Compare(n.entry.key, nx.entry.key) >= 0 {
						t.Fatalf("level %d: %q before %q", lvl, n.entry.key, nx.entry.key)
					}
				}
			}
			for _, k := range keys {
				if e, ok := m.get([]byte(k)); !ok || !bytes.Equal(e.value, model[k].value) {
					t.Fatalf("get %q: %q, %v", k, e.value, ok)
				}
			}
			if m.count != len(model) || m.size != size || m.owned != owned {
				t.Fatalf("count %d size %d owned %d, want %d %d %d", m.count, m.size, m.owned, len(model), size, owned)
			}
		}
		for op := 0; op+3 <= len(ops); op += 3 {
			mode, kb, vb := ops[op], ops[op+1], ops[op+2]
			var key []byte
			switch mode % 8 {
			case 0: // a new round
				check()
				round++
				m.reset(seed + round)
				clear(model)
				size, owned, sets = 0, 0, sets[:0]
				continue
			case 1, 2, 3: // short keys that prefix one another, the empty key included
				key = bytes.Repeat([]byte{'a' + kb%4}, int(kb>>2)%5)
			case 4, 5: // ascending
				last++
				key = binary.BigEndian.AppendUint64([]byte("M/obj\x00iv."), last)
			default: // near-ascending: a step of -3..+4
				last += uint64(int64(kb%8) - 3)
				key = binary.BigEndian.AppendUint64([]byte("M/obj\x00iv."), last)
			}
			e := memEntry{key: key, value: bytes.Repeat([]byte{byte(op)}, int(vb%48)), seq: uint64(op), kind: kindPut}
			if vb%7 == 0 {
				e.value, e.kind = nil, kindDelete
			}
			m.set(e)
			sets = append(sets, e)
			if old, ok := model[string(key)]; ok {
				size += int64(len(e.value)) - int64(len(old.value))
				if len(e.value) > old.slot {
					size += int64(old.slot)
					owned += int64(len(e.value))
					old.slot = len(e.value)
				}
				old.value, old.seq, old.kind = e.value, e.seq, e.kind
			} else {
				model[string(key)] = &memModel{value: e.value, seq: e.seq, kind: e.kind, slot: len(e.value)}
				size += int64(len(key)+len(e.value)) + 32
				owned += int64(len(key) + len(e.value))
			}
			if got, ok := m.get(key); !ok || !bytes.Equal(got.value, e.value) || got.kind != e.kind {
				t.Fatalf("op %d: get %q after set: %q, %v", op, key, got.value, ok)
			}
		}
		check()
	})
}

// TestFlushReusesMemtable pins the recycled memtable: once warm, a
// flush resets the memtable in place, and the rounds after it fill the
// same chunks and slabs instead of allocating new ones.
func TestFlushReusesMemtable(t *testing.T) {
	cfg := smallConfig()
	cfg.WALBytes = 1 << 20 // only the memtable's size flushes
	s := mustOpen(t, newTestFile(t, 64), cfg)
	var b Batch
	val := make([]byte, 28)
	n := 0
	flushUntil := func(flushes int64) {
		for s.Stats().Flushes < flushes {
			b.Reset()
			for i := 0; i < 18; i++ {
				n++
				b.Put(binary.BigEndian.AppendUint64([]byte("M/obj\x00iv."), uint64(n%4096)), val)
			}
			if _, err := s.Apply(0, &b); err != nil {
				t.Fatal(err)
			}
		}
	}
	flushUntil(20)
	mem := s.mem
	storage := func() (chunks, slabs []uintptr) {
		for _, c := range mem.chunks {
			chunks = append(chunks, uintptr(unsafe.Pointer(unsafe.SliceData(c))))
		}
		for _, sl := range mem.slabs {
			slabs = append(slabs, uintptr(unsafe.Pointer(unsafe.SliceData(sl))))
		}
		return chunks, slabs
	}
	chunks, slabs := storage()
	flushUntil(220)
	if s.mem != mem {
		t.Fatal("a flush replaced the memtable instead of resetting it")
	}
	if gotChunks, gotSlabs := storage(); !slices.Equal(gotChunks, chunks) || !slices.Equal(gotSlabs, slabs) {
		t.Fatalf("200 flushes took new storage: %d chunks and %d slabs, were %d and %d", len(gotChunks), len(gotSlabs), len(chunks), len(slabs))
	}
}
