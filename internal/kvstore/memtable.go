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
	// and takes its nodes from slabs of this many; both die with the
	// memtable when a flush swaps it out.
	memChunkBytes = 32 << 10
	nodeSlabLen   = 128
)

// memtable is a skiplist keyed by user key. It owns the bytes of its
// entries: set copies them in, and the views get and iter hand out are
// valid only until the next set (a replace may overwrite the value in
// place). It is not safe for concurrent use; the Store serializes access.
type memtable struct {
	head  *skipNode
	rng   *rand.Rand
	size  int64 // approximate bytes of live keys+values, plus relocated values' dead slots
	count int
	owned int64 // bytes handed out by alloc
	chunk []byte
	slab  []skipNode
}

type skipNode struct {
	entry memEntry // value's capacity is the size of its slot
	next  [maxHeight]*skipNode
	level int
}

func newMemtable(seed int64) *memtable {
	return &memtable{
		head: &skipNode{level: maxHeight},
		rng:  rand.New(rand.NewSource(seed)),
	}
}

func (m *memtable) randomLevel() int {
	l := 1
	for l < maxHeight && m.rng.Intn(4) == 0 {
		l++
	}
	return l
}

// alloc returns n bytes of chunk storage, capped so that an append to
// the result cannot reach a neighbour.
func (m *memtable) alloc(n int) []byte {
	if n > cap(m.chunk)-len(m.chunk) {
		m.chunk = make([]byte, 0, max(n, memChunkBytes))
	}
	off := len(m.chunk)
	m.chunk = m.chunk[:off+n]
	m.owned += int64(n)
	return m.chunk[off : off+n : off+n]
}

func (m *memtable) newNode() *skipNode {
	if len(m.slab) == cap(m.slab) {
		m.slab = make([]skipNode, 0, nodeSlabLen)
	}
	m.slab = m.slab[:len(m.slab)+1]
	return &m.slab[len(m.slab)-1]
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

// set inserts or replaces the entry for key, copying e's bytes. A
// replacing value that fits the key's slot is written in place; one that
// does not takes a new slot, and the abandoned one keeps counting toward
// size so that a key rewritten ever larger still fills the memtable.
func (m *memtable) set(e memEntry) {
	var prev [maxHeight]*skipNode
	n := m.findGE(e.key, &prev)
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
		return
	}
	node := m.newNode()
	node.level = m.randomLevel()
	buf := m.alloc(len(e.key) + len(e.value))
	copy(buf[copy(buf, e.key):], e.value)
	node.entry = memEntry{
		key:   buf[:len(e.key):len(e.key)],
		value: buf[len(e.key):],
		seq:   e.seq,
		kind:  e.kind,
	}
	for lvl := 0; lvl < node.level; lvl++ {
		node.next[lvl] = prev[lvl].next[lvl]
		prev[lvl].next[lvl] = node
	}
	m.size += int64(len(e.key)+len(e.value)) + 32
	m.count++
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
