package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/vtime"
)

// File is the byte-granular, virtual-time-charged device view the store
// persists through. *simdisk.Partition satisfies it.
type File interface {
	ReadAt(at vtime.Time, p []byte, off int64) (vtime.Time, error)
	WriteAt(at vtime.Time, p []byte, off int64) (vtime.Time, error)
	Size() int64
}

var (
	// ErrCorrupt reports an on-media structure that failed validation.
	ErrCorrupt = errors.New("kvstore: corrupt structure")
	// ErrEntryTooLarge reports a batch holding a key or value the entry
	// encoding cannot represent. Apply refuses the whole batch.
	ErrEntryTooLarge = errors.New("kvstore: entry too large")
)

const (
	tableMagic    = 0x53535442 // "SSTB"
	tableVersion  = 1
	footerSize    = 48
	maxEntryKey   = 1 << 16 // key lengths are encoded in 16 bits: exclusive
	maxEntryValue = 1 << 30 // inclusive
)

// cursor threads virtual time through a chain of dependent media reads.
type cursor struct{ at vtime.Time }

func (c *cursor) advance(t vtime.Time) {
	if t > c.at {
		c.at = t
	}
}

// ---- entry encoding (shared by WAL and SSTable blocks) ----

const entryHeaderSize = 1 + 2 + 4

// appendEntry encodes e. Apply has checked the lengths against
// maxEntryKey and maxEntryValue; every other caller re-encodes entries
// that were decoded from this form.
func appendEntry(buf []byte, e memEntry) []byte {
	buf = append(buf, byte(e.kind))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.key)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.value)))
	buf = append(buf, e.key...)
	buf = append(buf, e.value...)
	return buf
}

// decodeEntry parses one entry. The key and value it returns are views
// of b, capped so that an append cannot reach the bytes behind them.
func decodeEntry(b []byte) (e memEntry, n int, err error) {
	if len(b) < entryHeaderSize {
		return e, 0, fmt.Errorf("%w: truncated entry header", ErrCorrupt)
	}
	e.kind = entryKind(b[0])
	if e.kind != kindPut && e.kind != kindDelete {
		return e, 0, fmt.Errorf("%w: bad entry kind %d", ErrCorrupt, b[0])
	}
	klen := int(binary.LittleEndian.Uint16(b[1:3]))
	vlen := int(binary.LittleEndian.Uint32(b[3:7]))
	if vlen > maxEntryValue {
		return e, 0, fmt.Errorf("%w: oversized value", ErrCorrupt)
	}
	v := entryHeaderSize + klen
	n = v + vlen
	if len(b) < n {
		return e, 0, fmt.Errorf("%w: truncated entry body", ErrCorrupt)
	}
	e.key = b[entryHeaderSize:v:v]
	e.value = b[v:n:n]
	return e, n, nil
}

// ---- table building ----

type blockMeta struct {
	off      int64 // within the segment
	length   int32
	firstKey []byte
}

// table is an immutable sorted run. Index and bloom filter live in memory
// (RocksDB keeps them in block cache); data blocks are read from media on
// demand so lookups and scans are charged to the device model.
type table struct {
	file       File
	segOff     int64
	segLen     int64
	index      []blockMeta
	bloom      *bloomFilter
	minKey     []byte
	maxKey     []byte
	numEntries int64
}

// buildTable serializes sorted entries (no duplicate keys) into segment
// bytes and returns the parsed table (with segOff unset; the store fills
// it after allocating a segment). It copies what it keeps, so the entries
// may be views.
func buildTable(entries []memEntry, blockBytes, bloomBitsPerKey int) (*table, []byte) {
	t := &table{numEntries: int64(len(entries))}
	bloom := newBloom(len(entries), bloomBitsPerKey)
	// Size the segment image once. A closed block holds at least
	// blockBytes of entries, so data/blockBytes+1 bounds the block count.
	data, longestKey := 0, 0
	for _, e := range entries {
		data += entryHeaderSize + len(e.key) + len(e.value)
		longestKey = max(longestKey, len(e.key))
	}
	blocks := data/blockBytes + 1
	perBlock := 4 + 14 + longestKey   // entry count; index record + first key
	indexHead := 2*(2+longestKey) + 4 // min key, max key, block count
	filter := 1 + len(bloom.bits)     // k, bits
	seg := make([]byte, 0, data+blocks*perBlock+indexHead+filter+footerSize)

	// Each block is written straight into the segment image: its entry
	// count is reserved up front and patched when the block closes.
	blockStart, blockCount := 0, uint32(0)
	closeBlock := func() {
		if blockCount == 0 {
			return
		}
		binary.LittleEndian.PutUint32(seg[blockStart:], blockCount)
		t.index[len(t.index)-1].length = int32(len(seg) - blockStart)
		blockCount = 0
	}
	for _, e := range entries {
		bloom.add(e.key)
		if blockCount == 0 {
			blockStart = len(seg)
			t.index = append(t.index, blockMeta{off: int64(blockStart), firstKey: append([]byte(nil), e.key...)})
			seg = append(seg, 0, 0, 0, 0)
		}
		seg = appendEntry(seg, e)
		blockCount++
		if len(seg)-blockStart-4 >= blockBytes {
			closeBlock()
		}
	}
	closeBlock()

	if len(entries) > 0 {
		t.minKey = append([]byte(nil), entries[0].key...)
		t.maxKey = append([]byte(nil), entries[len(entries)-1].key...)
	}
	t.bloom = bloom

	// Index section.
	indexOff := len(seg)
	seg = binary.LittleEndian.AppendUint16(seg, uint16(len(t.minKey)))
	seg = append(seg, t.minKey...)
	seg = binary.LittleEndian.AppendUint16(seg, uint16(len(t.maxKey)))
	seg = append(seg, t.maxKey...)
	seg = binary.LittleEndian.AppendUint32(seg, uint32(len(t.index)))
	for _, bm := range t.index {
		seg = binary.LittleEndian.AppendUint64(seg, uint64(bm.off))
		seg = binary.LittleEndian.AppendUint32(seg, uint32(bm.length))
		seg = binary.LittleEndian.AppendUint16(seg, uint16(len(bm.firstKey)))
		seg = append(seg, bm.firstKey...)
	}

	bloomOff := len(seg)
	seg = bloom.appendTo(seg)

	// Footer: 44 bytes used, zero padded to footerSize.
	footOff := len(seg)
	seg = binary.LittleEndian.AppendUint32(seg, tableMagic)
	seg = binary.LittleEndian.AppendUint32(seg, tableVersion)
	seg = binary.LittleEndian.AppendUint64(seg, uint64(indexOff))
	seg = binary.LittleEndian.AppendUint32(seg, uint32(bloomOff-indexOff))
	seg = binary.LittleEndian.AppendUint64(seg, uint64(bloomOff))
	seg = binary.LittleEndian.AppendUint32(seg, uint32(footOff-bloomOff))
	seg = binary.LittleEndian.AppendUint64(seg, uint64(len(entries)))
	seg = binary.LittleEndian.AppendUint32(seg, crc32.ChecksumIEEE(seg[footOff:]))
	seg = append(seg, make([]byte, footOff+footerSize-len(seg))...)
	t.segLen = int64(len(seg))
	return t, seg
}

// openTable parses a table whose segment occupies [segOff, segOff+segLen)
// of file, reading the footer, index and bloom filter from media.
func openTable(c *cursor, file File, segOff, segLen int64) (*table, error) {
	if segLen < footerSize {
		return nil, fmt.Errorf("%w: segment too small", ErrCorrupt)
	}
	foot := make([]byte, footerSize)
	end, err := file.ReadAt(c.at, foot, segOff+segLen-footerSize)
	if err != nil {
		return nil, err
	}
	c.advance(end)
	if binary.LittleEndian.Uint32(foot[0:4]) != tableMagic {
		return nil, fmt.Errorf("%w: bad table magic", ErrCorrupt)
	}
	crc := binary.LittleEndian.Uint32(foot[40:44])
	if crc32.ChecksumIEEE(foot[:40]) != crc {
		return nil, fmt.Errorf("%w: bad footer crc", ErrCorrupt)
	}
	indexOff := int64(binary.LittleEndian.Uint64(foot[8:16]))
	indexLen := int64(binary.LittleEndian.Uint32(foot[16:20]))
	bloomOff := int64(binary.LittleEndian.Uint64(foot[20:28]))
	bloomLen := int64(binary.LittleEndian.Uint32(foot[28:32]))
	numEntries := int64(binary.LittleEndian.Uint64(foot[32:40]))
	if indexOff < 0 || indexOff+indexLen > segLen || bloomOff < 0 || bloomOff+bloomLen > segLen {
		return nil, fmt.Errorf("%w: footer offsets out of range", ErrCorrupt)
	}

	t := &table{file: file, segOff: segOff, segLen: segLen, numEntries: numEntries}

	idx := make([]byte, indexLen)
	end, err = file.ReadAt(c.at, idx, segOff+indexOff)
	if err != nil {
		return nil, err
	}
	c.advance(end)
	p := 0
	readKey := func() ([]byte, error) {
		if p+2 > len(idx) {
			return nil, fmt.Errorf("%w: truncated index", ErrCorrupt)
		}
		n := int(binary.LittleEndian.Uint16(idx[p:]))
		p += 2
		if p+n > len(idx) {
			return nil, fmt.Errorf("%w: truncated index key", ErrCorrupt)
		}
		k := append([]byte(nil), idx[p:p+n]...)
		p += n
		return k, nil
	}
	if t.minKey, err = readKey(); err != nil {
		return nil, err
	}
	if t.maxKey, err = readKey(); err != nil {
		return nil, err
	}
	if p+4 > len(idx) {
		return nil, fmt.Errorf("%w: truncated index count", ErrCorrupt)
	}
	nblocks := int(binary.LittleEndian.Uint32(idx[p:]))
	p += 4
	for i := 0; i < nblocks; i++ {
		if p+14 > len(idx) {
			return nil, fmt.Errorf("%w: truncated block meta", ErrCorrupt)
		}
		bm := blockMeta{
			off:    int64(binary.LittleEndian.Uint64(idx[p:])),
			length: int32(binary.LittleEndian.Uint32(idx[p+8:])),
		}
		p += 12
		n := int(binary.LittleEndian.Uint16(idx[p:]))
		p += 2
		if p+n > len(idx) {
			return nil, fmt.Errorf("%w: truncated block first key", ErrCorrupt)
		}
		bm.firstKey = append([]byte(nil), idx[p:p+n]...)
		p += n
		t.index = append(t.index, bm)
	}

	bl := make([]byte, bloomLen)
	end, err = file.ReadAt(c.at, bl, segOff+bloomOff)
	if err != nil {
		return nil, err
	}
	c.advance(end)
	t.bloom = unmarshalBloom(bl)
	return t, nil
}

// blockFor returns the index of the block that may contain key, or -1.
func (t *table) blockFor(key []byte) int {
	// Binary search for the last block whose firstKey <= key.
	lo, hi, ans := 0, len(t.index)-1, -1
	for lo <= hi {
		mid := (lo + hi) / 2
		if bytes.Compare(t.index[mid].firstKey, key) <= 0 {
			ans = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return ans
}

// readBlock fetches and decodes one data block from media. The block's
// extent and its entry count come from media, so each is checked
// against the bytes it describes before it sizes an allocation.
func (t *table) readBlock(c *cursor, i int) ([]memEntry, error) {
	bm := t.index[i]
	if bm.length < 4 {
		return nil, fmt.Errorf("%w: short block", ErrCorrupt)
	}
	if bm.off < 0 || bm.off+int64(bm.length) > t.segLen {
		return nil, fmt.Errorf("%w: block %d outside its table", ErrCorrupt, i)
	}
	raw := make([]byte, bm.length)
	end, err := t.file.ReadAt(c.at, raw, t.segOff+bm.off)
	if err != nil {
		return nil, err
	}
	c.advance(end)
	count := int(binary.LittleEndian.Uint32(raw[:4]))
	if count > (len(raw)-4)/entryHeaderSize {
		return nil, fmt.Errorf("%w: block %d claims %d entries in %d bytes", ErrCorrupt, i, count, len(raw))
	}
	entries := make([]memEntry, 0, count)
	p := 4
	for j := 0; j < count; j++ {
		e, n, err := decodeEntry(raw[p:])
		if err != nil {
			return nil, err
		}
		p += n
		entries = append(entries, e)
	}
	return entries, nil
}

// get looks up key, consulting the bloom filter first.
func (t *table) get(c *cursor, key []byte) (memEntry, bool, error) {
	if len(t.index) == 0 || bytes.Compare(key, t.minKey) < 0 || bytes.Compare(key, t.maxKey) > 0 {
		return memEntry{}, false, nil
	}
	if !t.bloom.mayContain(key) {
		return memEntry{}, false, nil
	}
	bi := t.blockFor(key)
	if bi < 0 {
		return memEntry{}, false, nil
	}
	entries, err := t.readBlock(c, bi)
	if err != nil {
		return memEntry{}, false, err
	}
	// Entries inside a block are sorted.
	lo, hi := 0, len(entries)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(entries[mid].key, key) {
		case 0:
			return entries[mid], true, nil
		case -1:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return memEntry{}, false, nil
}

// ---- iterators ----

// iterator walks entries in ascending key order. Implementations surface
// media errors from next().
type iterator interface {
	valid() bool
	entry() memEntry
	next() error
}

// memIterAdapter adapts the memtable iterator to the iterator interface.
type memIterAdapter struct{ it *memtableIter }

func (a memIterAdapter) valid() bool     { return a.it.valid() }
func (a memIterAdapter) entry() memEntry { return a.it.entry() }
func (a memIterAdapter) next() error     { a.it.next(); return nil }

// tableIter iterates a table's entries, reading one block at a time.
type tableIter struct {
	t     *table
	c     *cursor
	block []memEntry
	bi    int // current block index
	ei    int // entry index within block
}

// newTableIter positions the iterator at the first key >= start
// (or the table start when start is empty).
func newTableIter(c *cursor, t *table, start []byte) (*tableIter, error) {
	it := &tableIter{t: t, c: c}
	if len(t.index) == 0 {
		it.bi = len(t.index)
		return it, nil
	}
	it.bi = 0
	if len(start) > 0 {
		if b := t.blockFor(start); b > 0 {
			it.bi = b
		}
	}
	if err := it.load(); err != nil {
		return nil, err
	}
	// Skip entries before start.
	for len(start) > 0 && it.valid() && bytes.Compare(it.entry().key, start) < 0 {
		if err := it.next(); err != nil {
			return nil, err
		}
	}
	return it, nil
}

func (it *tableIter) load() error {
	for it.bi < len(it.t.index) {
		b, err := it.t.readBlock(it.c, it.bi)
		if err != nil {
			return err
		}
		if len(b) > 0 {
			it.block, it.ei = b, 0
			return nil
		}
		it.bi++
	}
	it.block = nil
	return nil
}

func (it *tableIter) valid() bool     { return it.block != nil && it.ei < len(it.block) }
func (it *tableIter) entry() memEntry { return it.block[it.ei] }

func (it *tableIter) next() error {
	it.ei++
	if it.ei < len(it.block) {
		return nil
	}
	it.bi++
	return it.load()
}

// mergeSource is one input of a merge with its current entry cached, so
// that settling compares keys without calling through the interface.
type mergeSource struct {
	it iterator
	e  memEntry
	ok bool // it is valid and e is its entry
}

func (s *mergeSource) load() {
	if s.ok = s.it.valid(); s.ok {
		s.e = s.it.entry()
	}
}

func (s *mergeSource) next() error {
	if err := s.it.next(); err != nil {
		return err
	}
	s.load()
	return nil
}

// mergeIter merges several sources. Sources are listed strongest-first:
// on equal keys the earliest source wins and the duplicates are skipped.
type mergeIter struct {
	sources []mergeSource
	cur     int // index of source holding the current entry, -1 when done
}

func newMergeIter(sources []mergeSource) (*mergeIter, error) {
	for i := range sources {
		sources[i].load()
	}
	m := &mergeIter{sources: sources}
	if err := m.settle(); err != nil {
		return nil, err
	}
	return m, nil
}

// settle finds the smallest current key, resolving ties by precedence, and
// advances shadowed duplicates past it.
func (m *mergeIter) settle() error {
	m.cur = -1
	var best []byte
	for i := range m.sources {
		if s := &m.sources[i]; s.ok && (m.cur == -1 || bytes.Compare(s.e.key, best) < 0) {
			m.cur, best = i, s.e.key
		}
	}
	if m.cur == -1 {
		return nil
	}
	// Advance weaker sources sitting on the same key.
	for i := m.cur + 1; i < len(m.sources); i++ {
		s := &m.sources[i]
		for s.ok && bytes.Equal(s.e.key, best) {
			if err := s.next(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (m *mergeIter) valid() bool { return m.cur >= 0 }

func (m *mergeIter) entry() memEntry { return m.sources[m.cur].e }

func (m *mergeIter) next() error {
	if m.cur < 0 {
		return nil
	}
	if err := m.sources[m.cur].next(); err != nil {
		return err
	}
	return m.settle()
}
