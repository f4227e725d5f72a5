package kvstore

import (
	"bytes"
	"math/rand"
)

// entryKind distinguishes puts from deletion tombstones.
type entryKind uint8

const (
	kindPut    entryKind = 1
	kindDelete entryKind = 2
)

// memEntry is a memtable record. The memtable keeps only the latest write
// per user key (the store does not expose point-in-time snapshots, so
// shadowed versions are dropped eagerly). Outside a container key and
// value are views of whatever the entry was read from (a batch arena, a
// decoded block, the WAL region, memtable storage) and live as long as
// that does.
type memEntry struct {
	key   []byte
	value []byte
	seq   uint64
	kind  entryKind
}

const (
	maxHeight = 12
	// The memtable copies every key and value into chunks of this size
	// and takes its nodes from slabs of this many. A flush copies them
	// out and reset hands the same chunks and slabs out again, so the
	// memtable allocates only while it grows past its largest round.
	memChunkBytes = 32 << 10
	nodeSlabLen   = 128
)

// memtable is a skiplist keyed by user key. It owns the bytes of its
// entries: set copies them in, and the views get and iter hand out are
// valid only until the next set (a replace may overwrite the value in
// place) or reset. It is not safe for concurrent use; the Store
// serializes access.
type memtable struct {
	head  *skipNode
	rng   *rand.Rand
	size  int64 // approximate bytes of live keys+values, plus relocated values' dead slots
	count int
	owned int64 // bytes handed out by alloc
	// splice is the last key set's predecessor on every level, with the
	// node itself on its own levels (RocksDB's InlineSkipList splice): a
	// key that falls between splice[0] and its successor needs no
	// descent, which is every key of an ascending run after the first.
	splice [maxHeight]*skipNode
	chunk  []byte     // the chunk alloc is filling
	slab   []skipNode // the slab newNode is filling
	chunks [][]byte   // every chunk, in the order alloc takes them
	slabs  [][]skipNode
	nchunk int // chunks and slabs taken since the last reset
	nslab  int
}

type skipNode struct {
	entry memEntry // value's capacity is the size of its slot
	next  [maxHeight]*skipNode
	level int
}

// newMemtable returns an empty memtable. limit, the size at which the
// store flushes it, sizes the lists of chunks and slabs up front, so that
// they do not grow while the memtable does.
func newMemtable(seed, limit int64) *memtable {
	m := &memtable{
		head:   &skipNode{level: maxHeight},
		rng:    rand.New(rand.NewSource(seed)),
		chunks: make([][]byte, 0, limit/memChunkBytes+1),
		slabs:  make([][]skipNode, 0, limit/(32*nodeSlabLen)+1), // a node adds at least 32 to size
	}
	m.reset(seed)
	return m
}

// reset empties the memtable for reuse with the level draws of a new one
// seeded with seed. Every view into its storage dies here.
func (m *memtable) reset(seed int64) {
	m.head.next = [maxHeight]*skipNode{}
	for i := range m.splice {
		m.splice[i] = m.head
	}
	m.rng.Seed(seed)
	m.size, m.count, m.owned = 0, 0, 0
	m.chunk, m.slab, m.nchunk, m.nslab = nil, nil, 0, 0
}

func (m *memtable) randomLevel() int {
	l := 1
	for l < maxHeight && m.rng.Intn(4) == 0 {
		l++
	}
	return l
}

// alloc returns n bytes of chunk storage, capped so that an append to
// the result cannot reach a neighbour. A request larger than a chunk
// gets storage of its own, which reset does not keep.
func (m *memtable) alloc(n int) []byte {
	m.owned += int64(n)
	if n > memChunkBytes {
		return make([]byte, n)
	}
	if n > cap(m.chunk)-len(m.chunk) {
		if m.nchunk == len(m.chunks) {
			m.chunks = append(m.chunks, make([]byte, memChunkBytes))
		}
		m.chunk = m.chunks[m.nchunk][:0]
		m.nchunk++
	}
	off := len(m.chunk)
	m.chunk = m.chunk[:off+n]
	return m.chunk[off : off+n : off+n]
}

func (m *memtable) newNode() *skipNode {
	if len(m.slab) == cap(m.slab) {
		if m.nslab == len(m.slabs) {
			m.slabs = append(m.slabs, make([]skipNode, nodeSlabLen))
		}
		m.slab = m.slabs[m.nslab][:0]
		m.nslab++
	}
	m.slab = m.slab[:len(m.slab)+1]
	n := &m.slab[len(m.slab)-1]
	*n = skipNode{}
	return n
}

// findGE returns the first node with key >= key, filling prev with the
// rightmost node before it on every level.
func (m *memtable) findGE(key []byte, prev *[maxHeight]*skipNode) *skipNode {
	n := m.head
	for lvl := maxHeight - 1; lvl >= 0; lvl-- {
		for n.next[lvl] != nil && bytes.Compare(n.next[lvl].entry.key, key) < 0 {
			n = n.next[lvl]
		}
		if prev != nil {
			prev[lvl] = n
		}
	}
	return n.next[0]
}

// seek returns the first node with key >= key and leaves key's
// predecessors in the splice. A key the splice already brackets on level
// 0 is bracketed on every level, because no node lies between it and
// splice[0] and every higher-level node is a level-0 node too.
func (m *memtable) seek(key []byte) *skipNode {
	if p := m.splice[0]; p == m.head || bytes.Compare(p.entry.key, key) < 0 {
		if n := p.next[0]; n == nil || bytes.Compare(key, n.entry.key) <= 0 {
			return n
		}
	}
	return m.findGE(key, &m.splice)
}

// set inserts or replaces the entry for key, copying e's bytes. A
// replacing value that fits the key's slot is written in place; one that
// does not takes a new slot, and the abandoned one keeps counting toward
// size so that a key rewritten ever larger still fills the memtable.
func (m *memtable) set(e memEntry) {
	n := m.seek(e.key)
	if n != nil && bytes.Equal(n.entry.key, e.key) {
		old := &n.entry
		m.size += int64(len(e.value)) - int64(len(old.value))
		if len(e.value) > cap(old.value) {
			m.size += int64(cap(old.value))
			old.value = m.alloc(len(e.value))
		}
		old.value = old.value[:len(e.value)]
		copy(old.value, e.value)
		old.seq, old.kind = e.seq, e.kind
	} else {
		n = m.newNode()
		n.level = m.randomLevel()
		buf := m.alloc(len(e.key) + len(e.value))
		copy(buf[copy(buf, e.key):], e.value)
		n.entry = memEntry{
			key:   buf[:len(e.key):len(e.key)],
			value: buf[len(e.key):],
			seq:   e.seq,
			kind:  e.kind,
		}
		for lvl := 0; lvl < n.level; lvl++ {
			n.next[lvl] = m.splice[lvl].next[lvl]
			m.splice[lvl].next[lvl] = n
		}
		m.size += int64(len(e.key)+len(e.value)) + 32
		m.count++
	}
	for lvl := 0; lvl < n.level; lvl++ {
		m.splice[lvl] = n
	}
}

// get returns the entry for key, if present (including tombstones).
func (m *memtable) get(key []byte) (memEntry, bool) {
	n := m.findGE(key, nil)
	if n != nil && bytes.Equal(n.entry.key, key) {
		return n.entry, true
	}
	return memEntry{}, false
}

// iter returns an iterator positioned at the first key >= start.
func (m *memtable) iter(start []byte) *memtableIter {
	var n *skipNode
	if len(start) == 0 {
		n = m.head.next[0]
	} else {
		n = m.findGE(start, nil)
	}
	return &memtableIter{n: n}
}

type memtableIter struct {
	n *skipNode
}

func (it *memtableIter) valid() bool { return it.n != nil }

func (it *memtableIter) entry() memEntry { return it.n.entry }

func (it *memtableIter) next() { it.n = it.n.next[0] }
