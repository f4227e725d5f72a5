// Package kvstore implements a small log-structured merge-tree key-value
// store: write-ahead log, skiplist memtable, bloom-filtered SSTables and
// size-tiered compaction, persisted through a virtual-time-charged block
// file. It is the stand-in for RocksDB in the paper's OMAP experiments
// (§3.1): the OSD object store keeps object metadata and OMAP entries
// here, and the store's WAL doubles as the OSD transaction journal, the
// role RocksDB's WAL plays inside BlueStore.
//
// Durability and atomicity are real: a batch is committed by a single WAL
// append (all-or-nothing under power cuts), flushes and compactions are
// made visible by an atomic single-sector superblock write, and Open
// recovers by replaying the log, so the paper's data/IV consistency
// requirement is testable end to end.
//
// Memory ownership follows one rule: bytes are copied when they enter a
// container that outlives the call (a Batch's arena, the memtable's
// chunks, a segment image, what Get and Scan return) and nowhere else.
// Everything in between — decoded blocks, merge inputs, WAL replay, the
// commit path's reused scratch — hands views around under the store lock.
package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"repro/internal/vtime"
)

const (
	superMagic   = 0x4B565355 // "KVSU"
	superVersion = 1
	superSector  = 4096

	// tableBlockBytes is the SSTable data block target size.
	tableBlockBytes = 4096
	// tableBloomBits sizes per-table bloom filters, in bits per key.
	tableBloomBits = 10
	// skipSeed makes skiplist behavior deterministic.
	skipSeed = 1
)

// Config tunes the store. Zero values select sensible defaults.
type Config struct {
	// MemtableBytes triggers a flush when the memtable grows past it.
	MemtableBytes int64
	// Fanout is how many tables accumulate in a level before compaction.
	Fanout int
	// MaxLevels bounds the level hierarchy (the last level self-compacts).
	MaxLevels int
	// WALBytes is the log region size.
	WALBytes int64
	// IngestPerEntry models the store's single-threaded write path
	// (RocksDB's single writer/WAL thread plus amortized compaction
	// backpressure): each Apply serializes len(batch)*IngestPerEntry on a
	// per-store writer resource, joined into the commit completion. This
	// is the mechanism behind the paper's OMAP collapse at large IO sizes
	// ("the DB fails to provide high performance", §3.3). Zero disables.
	IngestPerEntry time.Duration
}

func (c Config) withDefaults() Config {
	if c.MemtableBytes <= 0 {
		c.MemtableBytes = 1 << 20
	}
	if c.Fanout <= 1 {
		c.Fanout = 4
	}
	if c.MaxLevels <= 0 {
		c.MaxLevels = 4
	}
	if c.WALBytes <= 0 {
		c.WALBytes = 8 << 20
	}
	return c
}

// KV is a returned key/value pair.
type KV struct {
	Key   []byte
	Value []byte
}

// Stats counts store activity since open.
type Stats struct {
	Applies        int64
	EntriesWritten int64
	Gets           int64
	Scans          int64
	Flushes        int64
	Compactions    int64
	BytesFlushed   int64
	BytesCompacted int64
	WALBytes       int64
}

// Store is the LSM store. All methods are safe for concurrent use.
type Store struct {
	mu   sync.Mutex
	file File
	cfg  Config

	mem      *memtable
	levels   [][]*table
	seq      uint64
	walEpoch uint64
	nextFree int64 // bump pointer for table segments
	segBase  int64
	wal      *wal
	writer   *vtime.Resource // single-threaded ingest path
	payload  []byte          // Apply's encoded batch, reused under mu
	entries  []memEntry      // what a flush or merge hands writeTable, reused under mu
	stats    Stats
}

// Batch is an atomically-applied set of puts and deletes. It owns one
// arena holding every staged key and value back to back, so staging
// allocates only when the arena grows; the zero value is ready to use,
// Reset empties a batch keeping its storage, and Apply only reads it, so
// a batch can be applied again.
type Batch struct {
	arena     []byte
	ops       []batchOp
	transient int // entries exempt from the ingest charge
}

// batchOp locates one staged entry: the key at arena[off:off+klen] and
// the value right behind it. Offsets, not slices, because the arena moves
// when it grows.
type batchOp struct {
	off, klen, vlen int
	kind            entryKind
}

func (b *Batch) stage(kind entryKind, key, head, tail []byte) {
	b.ops = append(b.ops, batchOp{off: len(b.arena), klen: len(key), vlen: len(head) + len(tail), kind: kind})
	b.arena = append(append(append(b.arena, key...), head...), tail...)
}

// entry returns a view of staged entry i, valid until the batch is next
// staged into or reset.
func (b *Batch) entry(i int) memEntry {
	op := b.ops[i]
	v := op.off + op.klen
	return memEntry{key: b.arena[op.off:v:v], value: b.arena[v : v+op.vlen : v+op.vlen], kind: op.kind}
}

// Put stages key=value. The batch copies both slices.
func (b *Batch) Put(key, value []byte) { b.stage(kindPut, key, value, nil) }

// Delete stages a tombstone for key.
func (b *Batch) Delete(key []byte) { b.stage(kindDelete, key, nil, nil) }

// PutTransient stages key=value exempt from the per-entry ingest charge.
// Use it for short-lived records (journal payloads and their cleanup
// tombstones) that die in the memtable and never reach compaction, so
// their amortized LSM ingest cost is negligible.
func (b *Batch) PutTransient(key, value []byte) {
	b.Put(key, value)
	b.transient++
}

// PutTransientParts is PutTransient for a value the caller holds in two
// pieces (a header and a payload), saving it the joined copy.
func (b *Batch) PutTransientParts(key, head, tail []byte) {
	b.stage(kindPut, key, head, tail)
	b.transient++
}

// DeleteTransient stages a tombstone exempt from the ingest charge.
func (b *Batch) DeleteTransient(key []byte) {
	b.Delete(key)
	b.transient++
}

// Reset empties the batch and keeps its storage for the next staging.
func (b *Batch) Reset() {
	b.arena, b.ops, b.transient = b.arena[:0], b.ops[:0], 0
}

// Len returns the number of staged operations.
func (b *Batch) Len() int { return len(b.ops) }

// Bytes returns the approximate payload size of the batch.
func (b *Batch) Bytes() int { return len(b.arena) }

// Open loads the store from file, recovering committed state, or formats a
// fresh store when the superblock is absent. A superblock that carries the
// magic but fails validation is an error wrapping ErrCorrupt, and the file
// is left as it was.
func Open(at vtime.Time, file File, cfg Config) (*Store, vtime.Time, error) {
	cfg = cfg.withDefaults()
	if file.Size() < superSector+cfg.WALBytes+superSector {
		return nil, at, fmt.Errorf("kvstore: file too small (%d bytes)", file.Size())
	}
	s := &Store{
		file:    file,
		cfg:     cfg,
		mem:     newMemtable(skipSeed, cfg.MemtableBytes),
		levels:  make([][]*table, cfg.MaxLevels),
		segBase: superSector + cfg.WALBytes,
	}
	s.nextFree = s.segBase
	s.wal = newWAL(file, superSector, cfg.WALBytes)
	s.writer = vtime.NewResource("kv-writer")

	c := &cursor{at: at}
	super := make([]byte, superSector)
	end, err := file.ReadAt(c.at, super, 0)
	if err != nil {
		return nil, at, err
	}
	c.advance(end)

	if binary.LittleEndian.Uint32(super[0:4]) == superMagic {
		if err := s.loadSuper(c, super); err != nil {
			return nil, at, err
		}
		// Replay the log into the memtable.
		err := s.wal.replay(c, s.walEpoch, func(seqBase uint64, entries []memEntry) error {
			for _, e := range entries {
				s.mem.set(e)
				if e.seq >= s.seq {
					s.seq = e.seq + 1
				}
			}
			return nil
		})
		if err != nil {
			return nil, at, err
		}
		return s, c.at, nil
	}

	// Fresh store.
	s.walEpoch = 1
	s.wal.reset(1)
	if err := s.writeSuper(c); err != nil {
		return nil, at, err
	}
	return s, c.at, nil
}

// loadSuper parses and validates a superblock, then opens every table it
// references.
func (s *Store) loadSuper(c *cursor, super []byte) error {
	stored := binary.LittleEndian.Uint32(super[superSector-4:])
	if crc32.ChecksumIEEE(super[:superSector-4]) != stored {
		return fmt.Errorf("%w: superblock crc", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(super[4:8]) != superVersion {
		return fmt.Errorf("%w: superblock version", ErrCorrupt)
	}
	s.walEpoch = binary.LittleEndian.Uint64(super[8:16])
	s.seq = binary.LittleEndian.Uint64(super[16:24])
	s.nextFree = int64(binary.LittleEndian.Uint64(super[24:32]))
	walBytes := int64(binary.LittleEndian.Uint64(super[32:40]))
	if walBytes != s.cfg.WALBytes {
		return fmt.Errorf("%w: wal size mismatch (%d != %d)", ErrCorrupt, walBytes, s.cfg.WALBytes)
	}
	n := int(binary.LittleEndian.Uint32(super[40:44]))
	p := 44
	for i := 0; i < n; i++ {
		if p+17 > superSector-4 {
			return fmt.Errorf("%w: superblock table list", ErrCorrupt)
		}
		level := int(super[p])
		off := int64(binary.LittleEndian.Uint64(super[p+1:]))
		length := int64(binary.LittleEndian.Uint64(super[p+9:]))
		p += 17
		if level >= s.cfg.MaxLevels {
			return fmt.Errorf("%w: table level %d", ErrCorrupt, level)
		}
		t, err := openTable(c, s.file, off, length)
		if err != nil {
			return err
		}
		s.levels[level] = append(s.levels[level], t)
	}
	return nil
}

// writeSuper persists the manifest in one atomic sector write.
func (s *Store) writeSuper(c *cursor) error {
	super := make([]byte, superSector)
	binary.LittleEndian.PutUint32(super[0:4], superMagic)
	binary.LittleEndian.PutUint32(super[4:8], superVersion)
	binary.LittleEndian.PutUint64(super[8:16], s.walEpoch)
	binary.LittleEndian.PutUint64(super[16:24], s.seq)
	binary.LittleEndian.PutUint64(super[24:32], uint64(s.nextFree))
	binary.LittleEndian.PutUint64(super[32:40], uint64(s.cfg.WALBytes))
	count := 0
	p := 44
	for level, tables := range s.levels {
		for _, t := range tables {
			if p+17 > superSector-4 {
				return fmt.Errorf("kvstore: too many tables for superblock (%d)", count)
			}
			super[p] = byte(level)
			binary.LittleEndian.PutUint64(super[p+1:], uint64(t.segOff))
			binary.LittleEndian.PutUint64(super[p+9:], uint64(t.segLen))
			p += 17
			count++
		}
	}
	binary.LittleEndian.PutUint32(super[40:44], uint32(count))
	binary.LittleEndian.PutUint32(super[superSector-4:], crc32.ChecksumIEEE(super[:superSector-4]))
	end, err := s.file.WriteAt(c.at, super, 0)
	if err != nil {
		return err
	}
	c.advance(end)
	return nil
}

// Apply atomically commits a batch. The returned time is the durability
// point (WAL append complete). Flushes and compactions triggered by the
// apply are charged to the device model in the background and do not
// extend the caller's completion time, matching how RocksDB schedules
// them off the write path.
func (s *Store) Apply(at vtime.Time, b *Batch) (vtime.Time, error) {
	if b.Len() == 0 {
		return at, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	// Nothing is charged, logged or inserted before every entry is known
	// to survive the entry encoding.
	for i, op := range b.ops {
		if op.klen >= maxEntryKey || op.vlen > maxEntryValue {
			return at, fmt.Errorf("%w: entry %d has a %d-byte key and a %d-byte value", ErrEntryTooLarge, i, op.klen, op.vlen)
		}
	}

	payloadLen := b.Bytes() + entryHeaderSize*b.Len()
	if !s.wal.fits(payloadLen) {
		// Rotate the log by flushing; background time charge.
		if err := s.flushLocked(&cursor{at: at}); err != nil {
			return at, err
		}
		if !s.wal.fits(payloadLen) {
			return at, fmt.Errorf("kvstore: batch of %d bytes exceeds wal size %d", payloadLen, s.cfg.WALBytes)
		}
	}
	payload := s.payload[:0]
	for i := range b.ops {
		payload = appendEntry(payload, b.entry(i))
	}
	s.payload = payload
	seqBase := s.seq
	end, err := s.wal.append(at, seqBase, uint32(b.Len()), payload)
	if err != nil {
		return at, err
	}
	if n := b.Len() - b.transient; n > 0 && s.cfg.IngestPerEntry > 0 {
		end = s.writer.Use(end, time.Duration(n)*s.cfg.IngestPerEntry)
	}
	for i := range b.ops {
		e := b.entry(i)
		e.seq = seqBase + uint64(i)
		s.mem.set(e)
	}
	s.seq += uint64(b.Len())
	s.stats.Applies++
	s.stats.EntriesWritten += int64(b.Len())
	s.stats.WALBytes += int64(len(payload) + walHeaderSize)

	if s.mem.size >= s.cfg.MemtableBytes {
		if err := s.flushLocked(&cursor{at: at}); err != nil {
			return at, err
		}
	}
	return end, nil
}

// Get returns the value for key.
func (s *Store) Get(at vtime.Time, key []byte) ([]byte, bool, vtime.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Gets++
	if e, ok := s.mem.get(key); ok {
		if e.kind == kindDelete {
			return nil, false, at, nil
		}
		return append([]byte(nil), e.value...), true, at, nil
	}
	c := &cursor{at: at}
	for _, tables := range s.levels {
		for _, t := range tables {
			e, ok, err := t.get(c, key)
			if err != nil {
				return nil, false, c.at, err
			}
			if ok {
				if e.kind == kindDelete {
					return nil, false, c.at, nil
				}
				return append([]byte(nil), e.value...), true, c.at, nil
			}
		}
	}
	return nil, false, c.at, nil
}

// kvSpan locates one decoded pair inside a scan arena.
type kvSpan struct{ ko, kl, vo, vl int }

// spanPool recycles the per-scan span scratch: unlike the arena (whose
// ownership passes to the caller through the returned KV views), the
// span offsets are dead once the KV slice is built, so large OMAP scans
// reuse them across calls instead of reallocating ~1k entries each time.
var spanPool = sync.Pool{New: func() any { return new([]kvSpan) }}

// Scan returns up to limit live pairs with lo <= key < hi (hi empty means
// unbounded; limit <= 0 means unlimited).
//
// Decoding is batched: all key and value bytes land in one shared arena
// (entries must be copied anyway — memtable-sourced slices alias live
// store memory), so a scan costs O(1) allocations instead of two per
// pair. The OMAP IV read path issues one ~1k-entry scan per large IO,
// which is where those per-pair allocations used to go.
func (s *Store) Scan(at vtime.Time, lo, hi []byte, limit int) ([]KV, vtime.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Scans++
	c := &cursor{at: at}
	it, err := s.mergeIterLocked(c, lo)
	if err != nil {
		return nil, c.at, err
	}
	spansPtr := spanPool.Get().(*[]kvSpan)
	spans := (*spansPtr)[:0]
	putSpans := func() {
		*spansPtr = spans[:0]
		spanPool.Put(spansPtr)
	}
	var arena []byte
	for it.valid() {
		e := it.entry()
		if len(hi) > 0 && bytes.Compare(e.key, hi) >= 0 {
			break
		}
		if e.kind == kindPut {
			ko := len(arena)
			arena = append(arena, e.key...)
			vo := len(arena)
			arena = append(arena, e.value...)
			spans = append(spans, kvSpan{ko, len(e.key), vo, len(e.value)})
			if limit > 0 && len(spans) >= limit {
				break
			}
		}
		if err := it.next(); err != nil {
			putSpans()
			return nil, c.at, err
		}
	}
	if len(spans) == 0 {
		putSpans()
		return nil, c.at, nil
	}
	out := make([]KV, len(spans))
	for i, sp := range spans {
		out[i] = KV{
			Key:   arena[sp.ko : sp.ko+sp.kl : sp.ko+sp.kl],
			Value: arena[sp.vo : sp.vo+sp.vl : sp.vo+sp.vl],
		}
	}
	putSpans()
	return out, c.at, nil
}

// DeleteRange tombstones every live key in [lo, hi) as one atomic batch
// and returns the number deleted.
func (s *Store) DeleteRange(at vtime.Time, lo, hi []byte) (int, vtime.Time, error) {
	kvs, end, err := s.Scan(at, lo, hi, 0)
	if err != nil {
		return 0, end, err
	}
	if len(kvs) == 0 {
		return 0, end, nil
	}
	var b Batch
	for _, kv := range kvs {
		b.Delete(kv.Key)
	}
	end, err = s.Apply(end, &b)
	return len(kvs), end, err
}

func (s *Store) mergeIterLocked(c *cursor, start []byte) (*mergeIter, error) {
	sources := []mergeSource{{it: memIterAdapter{s.mem.iter(start)}}}
	for _, tables := range s.levels {
		for _, t := range tables {
			ti, err := newTableIter(c, t, start)
			if err != nil {
				return nil, err
			}
			sources = append(sources, mergeSource{it: ti})
		}
	}
	return newMergeIter(sources)
}

// Flush forces the memtable into an SSTable.
func (s *Store) Flush(at vtime.Time) (vtime.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := &cursor{at: at}
	if err := s.flushLocked(c); err != nil {
		return at, err
	}
	return c.at, nil
}

func (s *Store) flushLocked(c *cursor) error {
	if s.mem.count > 0 {
		entries := s.entries[:0]
		for it := s.mem.iter(nil); it.valid(); it.next() {
			entries = append(entries, it.entry())
		}
		s.entries = entries
		t, err := s.writeTable(c, entries)
		if err != nil {
			return err
		}
		s.levels[0] = append([]*table{t}, s.levels[0]...)
		s.stats.Flushes++
		s.stats.BytesFlushed += t.segLen
	}
	s.walEpoch++
	s.wal.reset(s.walEpoch)
	if err := s.writeSuper(c); err != nil {
		return err
	}
	// The table holds copies of everything the memtable held.
	s.mem.reset(skipSeed + int64(s.walEpoch))
	return s.compactLocked(c)
}

// writeTable serializes entries into a freshly allocated segment.
func (s *Store) writeTable(c *cursor, entries []memEntry) (*table, error) {
	t, seg := buildTable(entries, tableBlockBytes, tableBloomBits)
	segLen := (int64(len(seg)) + superSector - 1) / superSector * superSector
	if s.nextFree+segLen > s.file.Size() {
		return nil, fmt.Errorf("kvstore: out of space (need %d at %d, file %d)", segLen, s.nextFree, s.file.Size())
	}
	t.file = s.file
	t.segOff = s.nextFree
	end, err := s.file.WriteAt(c.at, seg, s.nextFree)
	if err != nil {
		return nil, err
	}
	c.advance(end)
	// Segment lengths stay sector-aligned; the table footer is located via
	// the exact serialized length.
	t.segLen = int64(len(seg))
	s.nextFree += segLen
	return t, nil
}

// compactLocked runs size-tiered compaction to a fixed point: when a level
// accumulates Fanout tables they merge into the next level; the bottom
// level merges into itself, dropping tombstones.
func (s *Store) compactLocked(c *cursor) error {
	bottom := s.cfg.MaxLevels - 1
	for {
		work := false
		for lvl := 0; lvl <= bottom; lvl++ {
			if len(s.levels[lvl]) < s.cfg.Fanout {
				continue
			}
			work = true
			target := lvl + 1
			drop := false
			if lvl == bottom {
				target = bottom
				drop = true // nothing below can be shadowed
			}
			merged, err := s.mergeTables(c, s.levels[lvl], drop)
			if err != nil {
				return err
			}
			var in int64
			for _, t := range s.levels[lvl] {
				in += t.segLen
			}
			s.stats.Compactions++
			s.stats.BytesCompacted += in
			s.levels[lvl] = nil
			if merged != nil {
				s.levels[target] = append([]*table{merged}, s.levels[target]...)
			}
			if err := s.writeSuper(c); err != nil {
				return err
			}
			break
		}
		if !work {
			return nil
		}
	}
}

// mergeTables merges tables (strongest first) into one new table.
// A nil result means everything merged away (all tombstones dropped).
func (s *Store) mergeTables(c *cursor, tables []*table, dropTombstones bool) (*table, error) {
	sources := make([]mergeSource, 0, len(tables))
	for _, t := range tables {
		ti, err := newTableIter(c, t, nil)
		if err != nil {
			return nil, err
		}
		sources = append(sources, mergeSource{it: ti})
	}
	it, err := newMergeIter(sources)
	if err != nil {
		return nil, err
	}
	// The entries are views of the blocks the iterators decoded, which
	// stay reachable through them until writeTable has copied them out;
	// clearing the views afterwards lets those blocks go.
	entries := s.entries[:0]
	defer func() { clear(entries); s.entries = entries[:0] }()
	for it.valid() {
		e := it.entry()
		if !(dropTombstones && e.kind == kindDelete) {
			entries = append(entries, e)
		}
		if err := it.next(); err != nil {
			return nil, err
		}
	}
	if len(entries) == 0 {
		return nil, nil
	}
	return s.writeTable(c, entries)
}

// Stats returns a snapshot of activity counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// TableCounts reports the number of tables per level, for tests and
// debugging.
func (s *Store) TableCounts() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, len(s.levels))
	for i, t := range s.levels {
		out[i] = len(t)
	}
	return out
}

// Seq returns the next sequence number the store will assign. Callers use
// it to derive unique monotonically increasing identifiers that survive
// recovery (the sequence is restored from the superblock and WAL).
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// MemtableBytes reports the current memtable payload size.
func (s *Store) MemtableBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mem.size
}

// SpaceUsed reports the bump-allocator frontier. Freed segments are not
// reused (the allocator is append-only); size the backing partition
// accordingly. Real deployments would reclaim; the simulation keeps the
// allocator simple because benchmark runs use fresh stores.
func (s *Store) SpaceUsed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextFree
}
