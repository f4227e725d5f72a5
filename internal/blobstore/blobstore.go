// Package blobstore implements a per-disk object store in the role
// BlueStore plays inside a Ceph OSD. It provides named objects with
// byte-addressable data, per-object attributes and OMAP key-value pairs,
// and atomic multi-op transactions.
//
// The design mirrors the parts of BlueStore the paper's experiments
// exercise:
//
//   - One kvstore (the RocksDB stand-in) per disk holds object metadata,
//     attributes and OMAP entries. Its write-ahead log doubles as the OSD
//     transaction journal: a transaction commits with a single WAL append.
//   - Sector-aligned data spans are written in place in the data area.
//   - Sub-sector spans are the interesting case for the paper: they are
//     journaled in the commit batch (so a crash cannot corrupt the
//     *neighboring* blocks that share the sector — the data/IV consistency
//     requirement of §3.1) and then applied with a real read-modify-write,
//     served through a small sector cache that stands in for the OSD page
//     cache.
//
// Costs (device time, RMW reads, journal bytes, KV churn) accrue naturally
// from these mechanisms; nothing scheme-specific is hard-coded here.
package blobstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/kvstore"
	"repro/internal/simdisk"
	"repro/internal/vtime"
)

var (
	// ErrNotFound reports a missing object.
	ErrNotFound = errors.New("blobstore: object not found")
	// ErrNoSpace reports data-area exhaustion.
	ErrNoSpace = errors.New("blobstore: out of data space")
	// ErrBounds reports an access beyond the object capacity.
	ErrBounds = errors.New("blobstore: access beyond object capacity")
	// ErrExists reports a clone destination that already exists.
	ErrExists = errors.New("blobstore: object already exists")
)

// Config tunes the store. Zero values select defaults.
type Config struct {
	// ObjectCapacity is the fixed byte capacity reserved per object
	// (RADOS object payload plus slack for per-sector metadata layouts).
	ObjectCapacity int64
	// KVBytes is the size of the metadata store partition.
	KVBytes int64
	// CacheSectors bounds the sector cache standing in for the OSD page
	// cache (hot IV sectors live here).
	CacheSectors int
	// KV configures the embedded metadata store.
	KV kvstore.Config
}

func (c Config) withDefaults() Config {
	if c.ObjectCapacity <= 0 {
		c.ObjectCapacity = 4<<20 + 128<<10
	}
	if c.ObjectCapacity%simdisk.SectorSize != 0 {
		c.ObjectCapacity = (c.ObjectCapacity/simdisk.SectorSize + 1) * simdisk.SectorSize
	}
	if c.KVBytes <= 0 {
		c.KVBytes = 256 << 20
	}
	if c.CacheSectors <= 0 {
		c.CacheSectors = 16384 // 64 MiB
	}
	return c
}

// KVPair is an OMAP or attribute key-value pair.
type KVPair struct {
	Key   []byte
	Value []byte
}

// DataWrite is one byte span written inside an object.
type DataWrite struct {
	Off  int64
	Data []byte
}

// Txn is an atomic transaction against a single object: all data writes,
// OMAP mutations and attribute sets commit together or not at all.
type Txn struct {
	Writes   []DataWrite
	OmapSet  []KVPair
	OmapDel  [][]byte
	AttrSet  []KVPair
	Truncate int64 // new object size when >= 0; pass -1 to leave unchanged
}

// NewTxn returns an empty transaction.
func NewTxn() *Txn { return &Txn{Truncate: -1} }

// objectInfo is the persistent per-object record ("onode").
type objectInfo struct {
	baseSector int64 // first data-area sector
	capBytes   int64
	sizeBytes  int64 // logical high-water mark
	version    uint64
}

const onodeSize = 32

func (oi objectInfo) marshal() (b [onodeSize]byte) {
	binary.LittleEndian.PutUint64(b[0:8], uint64(oi.baseSector))
	binary.LittleEndian.PutUint64(b[8:16], uint64(oi.capBytes))
	binary.LittleEndian.PutUint64(b[16:24], uint64(oi.sizeBytes))
	binary.LittleEndian.PutUint64(b[24:32], oi.version)
	return b
}

func unmarshalObjectInfo(b []byte) (objectInfo, error) {
	if len(b) != onodeSize {
		return objectInfo{}, fmt.Errorf("blobstore: bad onode record (%d bytes)", len(b))
	}
	return objectInfo{
		baseSector: int64(binary.LittleEndian.Uint64(b[0:8])),
		capBytes:   int64(binary.LittleEndian.Uint64(b[8:16])),
		sizeBytes:  int64(binary.LittleEndian.Uint64(b[16:24])),
		version:    binary.LittleEndian.Uint64(b[24:32]),
	}, nil
}

// Stats counts store activity.
type Stats struct {
	Txns            int64
	AlignedWrites   int64 // direct in-place sector span writes
	DeferredWrites  int64 // journaled sub-sector spans
	RMWReads        int64 // sector fetches needed to merge sub-sector spans
	CacheHits       int64
	CacheMisses     int64
	Reads           int64
	BytesWritten    int64
	BytesRead       int64
	DeferredReplays int64 // applied during crash recovery
}

// Store is a single-disk object store. All methods are safe for
// concurrent use.
type Store struct {
	mu   sync.Mutex
	disk *simdisk.Disk
	cfg  Config
	kv   *kvstore.Store

	objects     map[string]objectInfo
	frontier    int64 // next free data-area sector
	dataStart   int64 // first data-area sector
	cache       *sectorCache
	pendingDels []uint64 // applied deferred records (by sequence number) awaiting cleanup
	stats       Stats

	// Commit scratch of applyLocked, reused under mu: the batch every
	// transaction is staged in, the buffer its keys are built in, and the
	// one or two sectors applyPartial merges a sub-sector span into.
	batch  kvstore.Batch
	keyBuf []byte
	rmw    [2 * simdisk.SectorSize]byte
}

// Key namespaces inside the metadata store. Object names must not contain
// 0x00 or 0x01 bytes.
const (
	nsObject = "O/"
	nsAttr   = "A/"
	nsOmap   = "M/"
	nsDefer  = "D/"
)

// maxKeyLen is the longest key the metadata store's entry encoding holds.
const maxKeyLen = 1<<16 - 1

// The append forms build a key onto b; the commit path points them at its
// reused key buffer. The allocating forms below serve the read paths,
// which run outside the store lock and need a key of their own.

func appendObjectKey(b []byte, obj string) []byte {
	return append(append(b, nsObject...), obj...)
}

func appendAttrKey(b []byte, obj string, name []byte) []byte {
	return append(append(append(append(b, nsAttr...), obj...), 0), name...)
}

func appendOmapKey(b []byte, obj string, key []byte) []byte {
	return append(append(append(append(b, nsOmap...), obj...), 0), key...)
}

func appendDeferKey(b []byte, seq uint64) []byte {
	return binary.BigEndian.AppendUint64(append(b, nsDefer...), seq)
}

func omapKey(obj string, key []byte) []byte {
	return appendOmapKey(make([]byte, 0, len(nsOmap)+len(obj)+1+len(key)), obj, key)
}

func attrKey(obj, name string) []byte {
	return []byte(nsAttr + obj + "\x00" + name)
}

// Open formats or recovers a store occupying the whole disk. The metadata
// partition sits at the front; the data area fills the rest. Recovery
// replays the KV journal (inside kvstore.Open) and reapplies any deferred
// sub-sector writes that committed but may not have reached the data area.
func Open(at vtime.Time, disk *simdisk.Disk, cfg Config) (*Store, vtime.Time, error) {
	cfg = cfg.withDefaults()
	kvSectors := cfg.KVBytes / simdisk.SectorSize
	if kvSectors+16 > disk.Sectors() {
		return nil, at, fmt.Errorf("blobstore: disk %s too small (%d sectors) for KV partition", disk.Name(), disk.Sectors())
	}
	part := simdisk.NewPartition(disk, 0, kvSectors)
	kv, end, err := kvstore.Open(at, part, cfg.KV)
	if err != nil {
		return nil, at, err
	}
	s := &Store{
		disk:      disk,
		cfg:       cfg,
		kv:        kv,
		objects:   make(map[string]objectInfo),
		dataStart: kvSectors,
		frontier:  kvSectors,
		cache:     newSectorCache(cfg.CacheSectors),
	}

	// Rebuild the object table and allocator frontier.
	objs, end, err := kv.Scan(end, []byte(nsObject), []byte(nsObject+"\xff"), 0)
	if err != nil {
		return nil, at, err
	}
	for _, kvp := range objs {
		oi, err := unmarshalObjectInfo(kvp.Value)
		if err != nil {
			return nil, at, err
		}
		s.commitObject(string(kvp.Key[len(nsObject):]), oi)
	}

	// Replay deferred sub-sector writes in commit order (idempotent).
	defs, end, err := kv.Scan(end, []byte(nsDefer), []byte(nsDefer+"\xff"), 0)
	if err != nil {
		return nil, at, err
	}
	if len(defs) > 0 {
		var cleanup kvstore.Batch
		for _, d := range defs {
			if len(d.Value) < 8 {
				return nil, at, fmt.Errorf("blobstore: corrupt deferred record")
			}
			off := int64(binary.LittleEndian.Uint64(d.Value[:8]))
			payload := d.Value[8:]
			e, err := disk.WriteAt(end, payload, off)
			if err != nil {
				return nil, at, err
			}
			if e > end {
				end = e
			}
			s.stats.DeferredReplays++
			cleanup.Delete(d.Key)
		}
		if end, err = kv.Apply(end, &cleanup); err != nil {
			return nil, at, err
		}
	}
	return s, end, nil
}

// Disk returns the underlying device (for stats and fault injection).
func (s *Store) Disk() *simdisk.Disk { return s.disk }

// KV returns the embedded metadata store (for stats).
func (s *Store) KV() *kvstore.Store { return s.kv }

// Stats returns a snapshot of activity counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Exists reports whether the object is present.
func (s *Store) Exists(obj string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.objects[obj]
	return ok
}

// List returns all object names, sorted.
func (s *Store) List() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.objects))
	for name := range s.objects {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Size returns the logical size of an object.
func (s *Store) Size(obj string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	oi, ok := s.objects[obj]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, obj)
	}
	return oi.sizeBytes, nil
}

// place picks the data-area span the next new object will occupy. It
// reserves nothing: commitObject does, once the creating transaction has
// committed, so a create that is refused or fails leaves no capacity
// behind.
func (s *Store) place() (objectInfo, error) {
	capSectors := s.cfg.ObjectCapacity / simdisk.SectorSize
	if s.frontier+capSectors > s.disk.Sectors() {
		return objectInfo{}, fmt.Errorf("%w: frontier %d + %d > %d", ErrNoSpace, s.frontier, capSectors, s.disk.Sectors())
	}
	return objectInfo{baseSector: s.frontier, capBytes: s.cfg.ObjectCapacity}, nil
}

// commitObject records a committed onode and keeps the frontier past it.
func (s *Store) commitObject(name string, oi objectInfo) {
	s.objects[name] = oi
	if top := oi.baseSector + oi.capBytes/simdisk.SectorSize; top > s.frontier {
		s.frontier = top
	}
}

// Apply atomically executes a transaction against obj, creating it if
// needed. The returned time is when the transaction is both durable and
// applied (data readable).
func (s *Store) Apply(at vtime.Time, obj string, txn *Txn) (vtime.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyLocked(at, obj, txn)
}

func (s *Store) applyLocked(at vtime.Time, obj string, txn *Txn) (vtime.Time, error) {
	oi, exists := s.objects[obj]
	if !exists {
		var err error
		if oi, err = s.place(); err != nil {
			return at, err
		}
	}

	// Validate and split data writes into aligned and sub-sector spans.
	// A write yields at most one aligned and two partial spans, so the
	// usual transaction's spans fit the arrays and never reach the heap.
	// A partial span is either a whole write with no aligned sector in it
	// or the head or tail a sector boundary cuts off one, so it covers at
	// most two sectors: the size of the s.rmw scratch.
	type alignedSpan struct {
		sector int64
		data   []byte
	}
	type partialSpan struct {
		diskOff int64
		data    []byte
	}
	var (
		alignedArr [4]alignedSpan
		partialArr [8]partialSpan
	)
	aligned, partial := alignedArr[:0], partialArr[:0]
	base := oi.baseSector * simdisk.SectorSize
	for _, w := range txn.Writes {
		if w.Off < 0 || w.Off+int64(len(w.Data)) > oi.capBytes {
			return at, fmt.Errorf("%w: write [%d,+%d) cap %d", ErrBounds, w.Off, len(w.Data), oi.capBytes)
		}
		if len(w.Data) == 0 {
			continue
		}
		start, end := w.Off, w.Off+int64(len(w.Data))
		alignedStart := (start + simdisk.SectorSize - 1) / simdisk.SectorSize * simdisk.SectorSize
		alignedEnd := end / simdisk.SectorSize * simdisk.SectorSize
		if alignedStart >= alignedEnd {
			// Entirely within one or two sectors with no aligned middle.
			partial = append(partial, partialSpan{diskOff: base + start, data: w.Data})
		} else {
			if start < alignedStart {
				partial = append(partial, partialSpan{diskOff: base + start, data: w.Data[:alignedStart-start]})
			}
			aligned = append(aligned, alignedSpan{
				sector: oi.baseSector + alignedStart/simdisk.SectorSize,
				data:   w.Data[alignedStart-start : alignedEnd-start],
			})
			if end > alignedEnd {
				partial = append(partial, partialSpan{diskOff: base + alignedEnd, data: w.Data[alignedEnd-start:]})
			}
		}
		if end > oi.sizeBytes {
			oi.sizeBytes = end
		}
	}
	if txn.Truncate >= 0 {
		if txn.Truncate > oi.capBytes {
			return at, fmt.Errorf("%w: truncate to %d", ErrBounds, txn.Truncate)
		}
		oi.sizeBytes = txn.Truncate
	}
	oi.version++

	// Stage the commit batch: onode, attrs, omap, deferred payloads, and
	// cleanup of previously applied deferred records. Every key is built
	// in the one key buffer (the batch copies it out), and a key the
	// metadata store could not hold refuses the transaction here, before
	// the data area is touched.
	batch := &s.batch
	batch.Reset()
	tooLong := false
	key := func(k []byte) []byte {
		s.keyBuf = k
		tooLong = tooLong || len(k) > maxKeyLen
		return k
	}
	onode := oi.marshal()
	batch.Put(key(appendObjectKey(s.keyBuf[:0], obj)), onode[:])
	for _, a := range txn.AttrSet {
		batch.Put(key(appendAttrKey(s.keyBuf[:0], obj, a.Key)), a.Value)
	}
	for _, m := range txn.OmapSet {
		batch.Put(key(appendOmapKey(s.keyBuf[:0], obj, m.Key)), m.Value)
	}
	for _, k := range txn.OmapDel {
		batch.Delete(key(appendOmapKey(s.keyBuf[:0], obj, k)))
	}
	if tooLong {
		return at, fmt.Errorf("%w: a key of object %q exceeds %d bytes", kvstore.ErrEntryTooLarge, obj, maxKeyLen)
	}
	deferBase := s.kv.Seq()
	for i, p := range partial {
		var off [8]byte
		binary.LittleEndian.PutUint64(off[:], uint64(p.diskOff))
		// Transient: deferred payloads die in the memtable once applied.
		batch.PutTransientParts(key(appendDeferKey(s.keyBuf[:0], deferBase+uint64(i))), off[:], p.data)
	}
	for _, seq := range s.pendingDels {
		batch.DeleteTransient(key(appendDeferKey(s.keyBuf[:0], seq)))
	}

	// Aligned data goes straight to the data area, concurrently with the
	// journal commit (both must complete).
	dataEnd := at
	for _, a := range aligned {
		e, err := s.disk.WriteSectors(at, a.sector, int64(len(a.data))/simdisk.SectorSize, a.data)
		if err != nil {
			return at, err
		}
		dataEnd = vtime.Max(dataEnd, e)
		s.cache.invalidate(a.sector, int64(len(a.data))/simdisk.SectorSize)
		s.stats.AlignedWrites++
		s.stats.BytesWritten += int64(len(a.data))
	}

	// Durability point: the WAL append inside kv.Apply.
	commitEnd, err := s.kv.Apply(at, batch)
	if err != nil {
		return at, err
	}
	s.pendingDels = s.pendingDels[:0]
	// The onode is durable from here on, whatever becomes of the deferred
	// spans below (recovery replays them): the object exists and, if it
	// is new, its capacity is taken.
	s.commitObject(obj, oi)

	// Apply sub-sector spans via read-modify-write after commit.
	applyEnd := commitEnd
	for i, p := range partial {
		e, err := s.applyPartial(commitEnd, p.diskOff, p.data)
		if err != nil {
			return at, err
		}
		applyEnd = vtime.Max(applyEnd, e)
		s.stats.DeferredWrites++
		s.stats.BytesWritten += int64(len(p.data))
		s.pendingDels = append(s.pendingDels, deferBase+uint64(i))
	}

	s.stats.Txns++
	return vtime.MaxAll(dataEnd, commitEnd, applyEnd), nil
}

// cacheAdmitLimit bounds which partial spans admit their sectors into the
// sector cache: small metadata-ish writes (IVs, tags) stay hot; boundary
// sectors of bulk writes would only flush the cache with data the OSD
// page cache could not keep resident either.
const cacheAdmitLimit = 1024

// applyPartial merges a sub-sector span into its covering sectors in
// s.rmw, using the sector cache to avoid device reads for hot (e.g. IV)
// sectors. Nothing keeps a view of s.rmw past the return: the disk and
// the cache copy it.
func (s *Store) applyPartial(at vtime.Time, diskOff int64, data []byte) (vtime.Time, error) {
	first := diskOff / simdisk.SectorSize
	last := (diskOff + int64(len(data)) + simdisk.SectorSize - 1) / simdisk.SectorSize
	n := last - first
	buf := s.rmw[:n*simdisk.SectorSize]
	readEnd := at
	for i := int64(0); i < n; i++ {
		sect := first + i
		dst := buf[i*simdisk.SectorSize : (i+1)*simdisk.SectorSize]
		if c, ok := s.cache.get(sect); ok {
			copy(dst, c)
			s.stats.CacheHits++
			continue
		}
		s.stats.CacheMisses++
		s.stats.RMWReads++
		e, err := s.disk.ReadSectors(at, sect, 1, dst)
		if err != nil {
			return at, err
		}
		readEnd = vtime.Max(readEnd, e)
	}
	copy(buf[diskOff-first*simdisk.SectorSize:], data)
	end, err := s.disk.WriteSectors(readEnd, first, n, buf)
	if err != nil {
		return at, err
	}
	if len(data) <= cacheAdmitLimit {
		for i := int64(0); i < n; i++ {
			s.cache.put(first+i, buf[i*simdisk.SectorSize:(i+1)*simdisk.SectorSize])
		}
	} else {
		s.cache.invalidate(first, n)
	}
	return end, nil
}

// Read fills p from the object's data at off. Reads beyond the logical
// size return zeros (sparse semantics); reads beyond capacity fail.
func (s *Store) Read(at vtime.Time, obj string, off int64, p []byte) (vtime.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	oi, ok := s.objects[obj]
	if !ok {
		return at, fmt.Errorf("%w: %q", ErrNotFound, obj)
	}
	if off < 0 || off+int64(len(p)) > oi.capBytes {
		return at, fmt.Errorf("%w: read [%d,+%d) cap %d", ErrBounds, off, len(p), oi.capBytes)
	}
	if len(p) == 0 {
		return at, nil
	}
	s.stats.Reads++
	s.stats.BytesRead += int64(len(p))

	base := oi.baseSector * simdisk.SectorSize
	start, end := off, off+int64(len(p))
	first := start / simdisk.SectorSize
	last := (end + simdisk.SectorSize - 1) / simdisk.SectorSize

	// Serve fully from the sector cache when possible (hot IV sectors),
	// otherwise issue one covering device read.
	allCached := true
	for sec := first; sec < last; sec++ {
		if _, ok := s.cache.get(oi.baseSector + sec); !ok {
			allCached = false
			break
		}
	}
	if allCached {
		for sec := first; sec < last; sec++ {
			c, _ := s.cache.get(oi.baseSector + sec)
			lo := sec * simdisk.SectorSize
			oStart, oEnd := lo, lo+simdisk.SectorSize
			if oStart < start {
				oStart = start
			}
			if oEnd > end {
				oEnd = end
			}
			copy(p[oStart-start:oEnd-start], c[oStart-lo:oEnd-lo])
		}
		s.stats.CacheHits += last - first
		return at, nil
	}
	return s.disk.ReadAt(at, p, base+off)
}

// GetAttr returns an object attribute.
func (s *Store) GetAttr(at vtime.Time, obj, name string) ([]byte, bool, vtime.Time, error) {
	s.mu.Lock()
	exists := false
	if _, ok := s.objects[obj]; ok {
		exists = true
	}
	s.mu.Unlock()
	if !exists {
		return nil, false, at, fmt.Errorf("%w: %q", ErrNotFound, obj)
	}
	return s.kv.Get(at, attrKey(obj, name))
}

// OmapGet returns the OMAP value for one key.
func (s *Store) OmapGet(at vtime.Time, obj string, key []byte) ([]byte, bool, vtime.Time, error) {
	return s.kv.Get(at, omapKey(obj, key))
}

// OmapScan returns up to limit OMAP pairs with lo <= key < hi (nil hi
// scans to the end of the object's OMAP). Keys are returned without the
// object prefix.
func (s *Store) OmapScan(at vtime.Time, obj string, lo, hi []byte, limit int) ([]KVPair, vtime.Time, error) {
	lok := omapKey(obj, lo)
	var hik []byte
	if hi == nil {
		hik = append([]byte(nsOmap+obj), 1)
	} else {
		hik = omapKey(obj, hi)
	}
	kvs, end, err := s.kv.Scan(at, lok, hik, limit)
	if err != nil {
		return nil, end, err
	}
	out := make([]KVPair, len(kvs))
	prefix := len(nsOmap) + len(obj) + 1
	for i, kv := range kvs {
		out[i] = KVPair{Key: kv.Key[prefix:], Value: kv.Value}
	}
	return out, end, nil
}

// Delete removes an object, its attributes and OMAP entries. The data
// area space is not reclaimed (append-only allocator; see kvstore notes).
func (s *Store) Delete(at vtime.Time, obj string) (vtime.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[obj]; !ok {
		return at, fmt.Errorf("%w: %q", ErrNotFound, obj)
	}
	var batch kvstore.Batch
	batch.Delete([]byte(nsObject + obj))
	end, err := s.kv.Apply(at, &batch)
	if err != nil {
		return at, err
	}
	if _, end2, err := s.kv.DeleteRange(end, []byte(nsAttr+obj+"\x00"), append([]byte(nsAttr+obj), 1)); err != nil {
		return at, err
	} else {
		end = end2
	}
	if _, end2, err := s.kv.DeleteRange(end, []byte(nsOmap+obj+"\x00"), append([]byte(nsOmap+obj), 1)); err != nil {
		return at, err
	} else {
		end = end2
	}
	delete(s.objects, obj)
	return end, nil
}

// Clone copies src to a fresh object dst: full data copy (the
// object-granularity copy-on-write Ceph performs for snapshots) plus
// attributes and OMAP entries.
func (s *Store) Clone(at vtime.Time, src, dst string) (vtime.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	soi, ok := s.objects[src]
	if !ok {
		return at, fmt.Errorf("%w: %q", ErrNotFound, src)
	}
	if _, ok := s.objects[dst]; ok {
		return at, fmt.Errorf("%w: %q", ErrExists, dst)
	}
	doi, err := s.place()
	if err != nil {
		return at, err
	}
	doi.sizeBytes = soi.sizeBytes
	doi.version = 1

	// Bulk data copy of the written prefix, sector-rounded.
	end := at
	if soi.sizeBytes > 0 {
		sectors := (soi.sizeBytes + simdisk.SectorSize - 1) / simdisk.SectorSize
		buf := make([]byte, sectors*simdisk.SectorSize)
		e, err := s.disk.ReadSectors(at, soi.baseSector, sectors, buf)
		if err != nil {
			return at, err
		}
		// Overlay any cached (freshly merged) sectors.
		for i := int64(0); i < sectors; i++ {
			if c, ok := s.cache.get(soi.baseSector + i); ok {
				copy(buf[i*simdisk.SectorSize:(i+1)*simdisk.SectorSize], c)
			}
		}
		if e, err = s.disk.WriteSectors(e, doi.baseSector, sectors, buf); err != nil {
			return at, err
		}
		end = e
	}

	var batch kvstore.Batch
	onode := doi.marshal()
	batch.Put([]byte(nsObject+dst), onode[:])
	// Copy attrs and omap.
	attrs, end, err := s.kv.Scan(end, []byte(nsAttr+src+"\x00"), append([]byte(nsAttr+src), 1), 0)
	if err != nil {
		return at, err
	}
	for _, a := range attrs {
		name := a.Key[len(nsAttr)+len(src)+1:]
		batch.Put(attrKey(dst, string(name)), a.Value)
	}
	omap, end, err := s.kv.Scan(end, []byte(nsOmap+src+"\x00"), append([]byte(nsOmap+src), 1), 0)
	if err != nil {
		return at, err
	}
	prefix := len(nsOmap) + len(src) + 1
	for _, m := range omap {
		batch.Put(omapKey(dst, m.Key[prefix:]), m.Value)
	}
	end, err = s.kv.Apply(end, &batch)
	if err != nil {
		return at, err
	}
	s.commitObject(dst, doi)
	return end, nil
}
