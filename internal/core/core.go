// Package core implements the paper's contribution: client-side virtual
// disk encryption with per-sector metadata. Every 4 KiB encryption block
// can carry a stored IV (and, in the authenticated scheme, a MAC),
// placed in one of the three §3.1 layouts — Unaligned, Object end, or
// OMAP — and written atomically with its data using RADOS transactions.
//
// The public surface is EncryptedImage, which wraps an rbd.Image the way
// Ceph's libRBD crypto layer wraps plain image IO: Format seals a fresh
// master key behind a LUKS2-style passphrase container stored in the
// image header, Load unlocks it, and ReadAt/WriteAt run the chosen
// scheme+layout transparently.
package core

import (
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/luks"
	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/telemetry"
	"repro/internal/telemetry/attr"
	"repro/internal/vtime"
)

// DefaultBlockSize is the encryption block size (LUKS2 4 KiB sectors,
// §2.4 footnote 4).
const DefaultBlockSize = 4096

var (
	// ErrAlignment reports IO not aligned to the encryption block size.
	ErrAlignment = errors.New("core: IO must be aligned to the encryption block size")
	// ErrPassphrase re-exports the LUKS unlock failure.
	ErrPassphrase = luks.ErrPassphrase
	// ErrNotEncrypted reports a Load on an image without a container.
	ErrNotEncrypted = errors.New("core: image is not encryption-formatted")
)

// Options selects the encryption construction for an image.
type Options struct {
	Scheme    Scheme
	Layout    Layout
	BlockSize int64
}

// The client's cipher cost in virtual time: the simulated client of
// §3.2 has modelCores cores at clientCryptoNsPerByte each (≈2.5 GB/s
// per core, calibrated to AES-NI XTS), so simulated bandwidth is
// machine-independent even though the real datapath scales with the
// host (SetParallelism). Real CPU time is measured by the Go benchmarks.
const (
	clientCryptoNsPerByte = 0.4
	modelCores            = 8
)

func (o Options) withDefaults() Options {
	if o.BlockSize <= 0 {
		o.BlockSize = DefaultBlockSize
	}
	return o
}

// Validate rejects incoherent combinations: schemes with metadata need a
// metadata layout, metadata-free schemes must use LayoutNone.
func (o Options) Validate() error {
	c, err := newCryptor(o.Scheme, make([]byte, 64))
	if err != nil {
		return err
	}
	if c.metaLen() == 0 && o.Layout != LayoutNone {
		return fmt.Errorf("core: scheme %v stores no metadata; use LayoutNone", o.Scheme)
	}
	if c.metaLen() > 0 && o.Layout == LayoutNone {
		return fmt.Errorf("core: scheme %v needs a metadata layout", o.Scheme)
	}
	if o.BlockSize > 0 && o.BlockSize%512 != 0 {
		return fmt.Errorf("core: block size %d not sector aligned", o.BlockSize)
	}
	return nil
}

// format is the persisted encryption descriptor (stored in the image
// header next to the LUKS container).
type format struct {
	Scheme    string          `json:"scheme"`
	Layout    string          `json:"layout"`
	BlockSize int64           `json:"block_size"`
	LUKS      json.RawMessage `json:"luks"`
}

// EncryptedImage is an encrypted view of an rbd image. All methods are
// safe for concurrent use from one handle; like RBD with the exclusive
// lock, an image must not be written through two handles at once (the
// allocation-sidecar cache assumes a single writer).
type EncryptedImage struct {
	img     *rbd.Image
	opts    Options
	proto   cryptor // scheme-static metaLen/randLen probe (zero key)
	ring    *keyring
	plan    planner
	cpu     *vtime.MultiResource
	workers int // datapath parallelism (SetParallelism)

	// Key lifecycle: the unlocked container and master key stay resident
	// (as in any open LUKS device) so epochs can be minted and destroyed
	// without re-prompting for the passphrase. keyMu serializes container
	// mutations.
	keyMu     sync.Mutex
	container *luks.Container
	masterKey []byte

	// locks hands out per-object RW mutexes: writers share, the rekey
	// walker / Discard / sidecar read-modify-writes exclude.
	locks lockTable

	// alloc caches decoded allocation sidecars for metadata-free schemes
	// (entries are only touched under the object's exclusive lock).
	allocMu sync.Mutex
	alloc   map[int64]*objAlloc

	// met holds the image's (scheme, layout)-labeled telemetry series,
	// resolved once in Load so the datapath records allocation-free.
	met imageMetrics
}

// Format initializes encryption on an image: generates a master key,
// seals it behind the passphrase, and persists the descriptor. The image
// must be empty (freshly created); existing plaintext is not converted.
func Format(at vtime.Time, img *rbd.Image, passphrase []byte, opts Options) (vtime.Time, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return at, err
	}
	if len(img.EncryptionBlob()) != 0 {
		return at, fmt.Errorf("core: image %q already encryption-formatted", img.Name())
	}
	if img.ObjectSize()%opts.BlockSize != 0 {
		return at, fmt.Errorf("core: object size %d not a multiple of block size %d", img.ObjectSize(), opts.BlockSize)
	}
	container, masterKey, err := luks.Format(passphrase, "aes-xts-plain64/"+opts.Scheme.String())
	if err != nil {
		return at, err
	}
	clear(masterKey) // the caller re-derives it via Load
	desc, err := marshalDescriptor(opts, container)
	if err != nil {
		return at, err
	}
	return img.SetEncryptionBlob(at, desc)
}

// marshalDescriptor renders the persisted descriptor: the construction
// opts names around the container's current state.
func marshalDescriptor(opts Options, container *luks.Container) ([]byte, error) {
	luksBlob, err := container.Marshal()
	if err != nil {
		return nil, err
	}
	return json.Marshal(format{
		Scheme:    opts.Scheme.String(),
		Layout:    opts.Layout.String(),
		BlockSize: opts.BlockSize,
		LUKS:      luksBlob,
	})
}

// Load opens an encrypted image with a passphrase.
func Load(at vtime.Time, img *rbd.Image, passphrase []byte) (*EncryptedImage, vtime.Time, error) {
	blob := img.EncryptionBlob()
	if len(blob) == 0 {
		return nil, at, ErrNotEncrypted
	}
	var desc format
	if err := json.Unmarshal(blob, &desc); err != nil {
		return nil, at, fmt.Errorf("core: corrupt encryption descriptor: %v", err)
	}
	scheme, err := ParseScheme(desc.Scheme)
	if err != nil {
		return nil, at, err
	}
	lay, err := ParseLayout(desc.Layout)
	if err != nil {
		return nil, at, err
	}
	container, err := luks.Unmarshal(desc.LUKS)
	if err != nil {
		return nil, at, err
	}
	masterKey, err := container.Unlock(passphrase)
	if err != nil {
		return nil, at, err
	}
	opts := Options{Scheme: scheme, Layout: lay, BlockSize: desc.BlockSize}.withDefaults()
	proto, err := newCryptor(scheme, make([]byte, 64))
	if err != nil {
		return nil, at, err
	}
	// Build one cryptor per live key epoch.
	ring := newKeyring()
	for _, ep := range container.EpochIDs() {
		key, err := container.EpochKey(masterKey, ep)
		if err != nil {
			return nil, at, err
		}
		c, err := newCryptor(scheme, key)
		if err != nil {
			return nil, at, err
		}
		ring.install(ep, c)
	}
	ring.setCurrent(container.CurrentEpoch())
	storedMeta := int64(proto.metaLen())
	if storedMeta > 0 {
		storedMeta += epochLen
	}
	e := &EncryptedImage{
		img:       img,
		opts:      opts,
		proto:     proto,
		ring:      ring,
		container: container,
		masterKey: masterKey,
		plan: planner{
			layout:     lay,
			blockSize:  opts.BlockSize,
			metaLen:    storedMeta,
			objectSize: img.ObjectSize(),
			trackAlloc: storedMeta == 0,
		},
		cpu:     vtime.NewMultiResource(img.Name()+"/crypto", modelCores),
		workers: maxParallelism(),
		alloc:   make(map[int64]*objAlloc),
		met:     newImageMetrics(scheme, lay),
	}
	return e, at, nil
}

// SetParallelism overrides the real datapath parallelism (the number of
// blocks ciphered concurrently). n <= 1 forces the serial path; the
// virtual-time cost model is unaffected. It is a tuning knob for
// benchmarks and busy multi-image clients and must not be called
// concurrently with IO.
func (e *EncryptedImage) SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	e.workers = n
}

// Image returns the underlying image.
func (e *EncryptedImage) Image() *rbd.Image { return e.img }

// Options returns the image's encryption options.
func (e *EncryptedImage) Options() Options { return e.opts }

// MetaLen returns the stored metadata bytes per encryption block (the
// scheme's IV/tag plus the key-epoch tag; 0 for metadata-free schemes).
func (e *EncryptedImage) MetaLen() int { return int(e.plan.metaLen) }

// schemeMetaLen is the prefix of each stored metadata slot owned by the
// cipher scheme (the rest is the epoch tag).
func (e *EncryptedImage) schemeMetaLen() int64 { return int64(e.proto.metaLen()) }

// ObjectCount reports how many striping objects the image spans.
func (e *EncryptedImage) ObjectCount() int64 { return e.img.ObjectCount() }

// Size returns the usable image size.
func (e *EncryptedImage) Size() int64 { return e.img.Size() }

// CreateSnap snapshots the underlying image.
func (e *EncryptedImage) CreateSnap(at vtime.Time, name string) (uint64, vtime.Time, error) {
	return e.img.CreateSnap(at, name)
}

func (e *EncryptedImage) checkAligned(p []byte, off int64) error {
	bs := e.opts.BlockSize
	if off%bs != 0 || int64(len(p))%bs != 0 {
		return fmt.Errorf("%w: off=%d len=%d block=%d", ErrAlignment, off, len(p), bs)
	}
	return nil
}

// chargeCrypto models the client-side cipher cost in virtual time.
func (e *EncryptedImage) chargeCrypto(at vtime.Time, n int64) vtime.Time {
	return e.cpu.Use(at, time.Duration(float64(n)*clientCryptoNsPerByte))
}

// errStaleEpoch reports a write sealed under an epoch that stopped being
// current before the transaction could be issued (a rekey began
// mid-write). The write path retries under the new epoch — committing
// the old tag would let the completing rekey destroy the key for data
// the walker already swept past.
var errStaleEpoch = errors.New("core: key epoch advanced mid-write")

// WriteAt encrypts p and writes it (with per-block metadata under the
// image's layout) at off. The IO must be block-aligned, as with dm-crypt.
// Blocks are always sealed under the newest key epoch, and the epoch tag
// travels with the block (metadata tail, or the allocation sidecar for
// metadata-free schemes).
//
// The seal pipeline is zero-copy and parallel: each extent gets a
// layout-aware writePlan whose wire buffers are the very payloads the
// RADOS ops will carry, the cryptor seals every block directly into its
// wire destination, and the per-block work is fanned across the shared
// datapath worker pool (within and across extents).
func (e *EncryptedImage) WriteAt(at vtime.Time, p []byte, off int64) (vtime.Time, error) {
	for attempt := 0; ; attempt++ {
		end, err := e.writeAtEpoch(at, p, off)
		if !errors.Is(err, errStaleEpoch) {
			if err == nil && len(p) > 0 {
				e.met.sealOps.Inc()
				e.met.sealBytes.Add(int64(len(p)))
				e.met.writeLat.Observe(end.Sub(at))
			}
			return end, err
		}
		if attempt >= 8 {
			return at, fmt.Errorf("core: write never settled on a current epoch: %w", err)
		}
	}
}

func (e *EncryptedImage) writeAtEpoch(at vtime.Time, p []byte, off int64) (vtime.Time, error) {
	if err := e.checkAligned(p, off); err != nil {
		return at, err
	}
	if len(p) == 0 {
		return at, nil
	}
	exts, err := e.img.Extents(off, int64(len(p)))
	if err != nil {
		return at, err
	}
	bs := e.opts.BlockSize
	epoch := e.ring.currentEpoch()
	sealer, err := e.ring.cryptorFor(epoch)
	if err != nil {
		return at, err
	}

	plans := make([]*writePlan, len(exts))
	for i, ext := range exts {
		plans[i] = e.plan.newWritePlan(ext.ObjOff/bs, ext.Length/bs)
	}
	release := func() {
		for _, w := range plans {
			w.release()
		}
	}
	if err := e.scatterIVs(plans); err != nil {
		release()
		return at, err
	}

	err = forExtentBlocks(e.workers, exts, bs, func(ei int, b int64) error {
		ext := exts[ei]
		blockIdx := uint64((off+ext.BufOff)/bs + b)
		return plans[ei].sealBlock(sealer, epoch, b, blockIdx, p[ext.BufOff+b*bs:ext.BufOff+(b+1)*bs])
	})
	if err != nil {
		release()
		return at, err
	}

	sealed := e.chargeCrypto(at, int64(len(p)))
	attr.Observe(attr.OpWrite, attr.PhaseSeal, sealed.Sub(at))
	at = sealed

	// Fan out per-object transactions. The transport fully consumes the
	// plan buffers before Operate returns — the typed in-process path
	// hands them to the OSD, which copies what it persists; the byte
	// codec encodes them — so the plans can be released once every call
	// is back.
	// Writers hold the object lock shared (metadata schemes) so the rekey
	// walker's read-modify-write cannot interleave, or exclusive
	// (metadata-free) around the allocation-sidecar update.
	issue := func(at vtime.Time, i int) (vtime.Time, error) {
		ext := exts[i]
		ops := plans[i].ops()
		lk := e.locks.of(ext.ObjIdx)
		if !e.plan.trackAlloc {
			lk.RLock()
			defer lk.RUnlock()
		} else {
			lk.Lock()
			defer lk.Unlock()
		}
		// Epoch fence, checked only now that the object lock is held: a
		// seal epoch that went stale before this point could commit
		// behind the rekey walker's sweep of this object and then be
		// destroyed with its epoch. Fail the attempt; WriteAt re-seals
		// under the new epoch.
		if e.ring.currentEpoch() != epoch {
			return at, errStaleEpoch
		}
		dirtyAlloc := false
		if e.plan.trackAlloc {
			a, end, err := e.loadAlloc(at, ext.ObjIdx)
			if err != nil {
				return at, err
			}
			at = end
			// Mutate the cached sidecar in place (we hold the object
			// exclusively; nothing reads it concurrently) and invalidate
			// on failure instead of paying a defensive clone per IO.
			start := ext.ObjOff / bs
			for b := int64(0); b < ext.Length/bs; b++ {
				a.set(start+b, epoch)
			}
			dirtyAlloc = true
			ops = append(ops, sidecarOp(a))
		}
		return e.commitObjectTxn(at, ext.ObjIdx, ops, dirtyAlloc)
	}

	end, err := vtime.Join(at, len(plans), func(i int) (vtime.Time, error) {
		return issue(at, i)
	})
	release()
	if err != nil {
		return at, err
	}
	return end, nil
}

// ReadAt reads and decrypts into p from off (image head).
func (e *EncryptedImage) ReadAt(at vtime.Time, p []byte, off int64) (vtime.Time, error) {
	return e.ReadAtSnap(at, p, off, 0)
}

// ReadAtSnapPresent is ReadAtSnap with per-block presence reporting:
// present (len(p)/BlockSize entries; nil to skip) receives, per block of
// the IO, whether the block was ever written in THIS image. Absent
// blocks read as zeros, exactly as in ReadAtSnap. The clone layer uses
// the report to decide which blocks fall through to the parent
// snapshot and must be filled from there.
func (e *EncryptedImage) ReadAtSnapPresent(at vtime.Time, p []byte, off int64, snapID uint64, present []bool) (vtime.Time, error) {
	if present != nil && int64(len(present)) != int64(len(p))/e.opts.BlockSize {
		return at, fmt.Errorf("core: presence buffer covers %d blocks, IO has %d", len(present), int64(len(p))/e.opts.BlockSize)
	}
	for attempt := 0; ; attempt++ {
		end, err := e.readAtSnapOnce(at, p, off, snapID, present)
		if !errors.Is(err, errEpochRetiredMidRead) || attempt >= 2 {
			if err == nil && len(p) > 0 {
				e.met.openOps.Inc()
				e.met.openBytes.Add(int64(len(p)))
				e.met.readLat.Observe(end.Sub(at))
			}
			return end, err
		}
	}
}

// ReadAtSnap reads from a snapshot (0 = head). Stored IVs travel with
// snapshot clones, so old versions decrypt with their original IVs.
//
// The open pipeline mirrors WriteAt: per-object fetches fan out first
// (virtual-time concurrency), then every fetched block is opened in
// parallel on the shared datapath pool, decrypting straight into p.
// Block presence comes from the read results (object existence, logical
// size, OMAP keys — see parseFetch), never from sniffing content, so
// a legitimately written all-zero-ciphertext block decrypts normally.
func (e *EncryptedImage) ReadAtSnap(at vtime.Time, p []byte, off int64, snapID uint64) (vtime.Time, error) {
	// A rekey may retire an epoch between an attempt's fetch and its open
	// phase; refetching sees the re-sealed blocks (the retry inside
	// ReadAtSnapPresent). Genuinely crypto-erased blocks (epoch already
	// dead at fetch time) fail immediately without the refetch.
	return e.ReadAtSnapPresent(at, p, off, snapID, nil)
}

// errEpochRetiredMidRead marks an ErrKeyErased hit on a block whose
// epoch was still live when the read fetched it — the one case where a
// refetch can succeed (the rekey walker re-sealed the block since).
var errEpochRetiredMidRead = fmt.Errorf("%w (retired mid-read)", ErrKeyErased)

func (e *EncryptedImage) readAtSnapOnce(at vtime.Time, p []byte, off int64, snapID uint64, presOut []bool) (vtime.Time, error) {
	if err := e.checkAligned(p, off); err != nil {
		return at, err
	}
	if len(p) == 0 {
		return at, nil
	}
	exts, err := e.img.Extents(off, int64(len(p)))
	if err != nil {
		return at, err
	}
	bs := e.opts.BlockSize
	liveAtFetch := e.ring.epochs()

	// Phase 1: fetch ciphertext+metadata for every extent into pooled
	// buffers, every object's fetch issued at the same virtual instant.
	// The buffers are handed to the read ops as destinations, so on the
	// in-process fast path the OSD fills them directly — a fetched block
	// crosses the wire with zero intermediate copies. (LayoutUnaligned
	// reads its interleaved stream into one raw buffer, and every block
	// is opened where it lies there.)
	bufs := make([]objFetch, len(exts))
	release := func() {
		for i := range bufs {
			bufs[i].release()
		}
	}
	end, err := vtime.Join(at, len(exts), func(i int) (vtime.Time, error) {
		ext := exts[i]
		f, end, err := e.fetch(at, ext.ObjIdx, snapID, ext.ObjOff/bs, ext.Length/bs, true, primaryOSD)
		bufs[i] = f
		return end, err
	})
	if err != nil {
		release()
		return at, err
	}

	// Phase 2: open every block in parallel, straight into p, each under
	// the key epoch its tag names (a destroyed epoch fails the read —
	// that block has been crypto-erased).
	err = forExtentBlocks(e.workers, exts, bs, func(ei int, b int64) error {
		ext := exts[ei]
		f := &bufs[ei]
		dst := p[ext.BufOff+b*bs : ext.BufOff+(b+1)*bs]
		if presOut != nil {
			// Distinct elements written from distinct blocks: race-free.
			presOut[ext.BufOff/bs+b] = f.present[b] != 0
		}
		if f.present[b] == 0 {
			// Hole: never written (sparse read).
			clear(dst)
			return nil
		}
		err := e.openBlock(f, b, uint64((off+ext.BufOff)/bs+b), dst)
		if errors.Is(err, ErrKeyErased) && slices.Contains(liveAtFetch, f.epoch(b)) {
			return fmt.Errorf("core: epoch %d: %w", f.epoch(b), errEpochRetiredMidRead)
		}
		return err
	})
	release()
	if err != nil {
		return at, err
	}
	opened := e.chargeCrypto(end, int64(len(p)))
	attr.Observe(attr.OpRead, attr.PhaseOpen, opened.Sub(end))
	return opened, nil
}

// ---- the object transaction ----
//
// Everything that touches one striping object — the read and write
// paths above and the maintenance primitives below (rekey, copyup,
// scrub-verify, repair) — goes through one fetch and one re-seal/commit:
// fetch fills an objFetch and decides presence (parseFetch, the only
// place the rules exist), openBlock opens a fetched block under the
// epoch its tag names, resealObject seals plaintext into a block set
// and commits data, metadata and sidecar in one atomic transaction. A
// maintenance primitive is the order
//
//	lock → sample epoch → fetch → decide → reseal → commit → release
//
// and supplies only the deciding: which blocks, and where their
// plaintext comes from.

// primaryOSD as a fetch target reads through the normal replicated path.
const primaryOSD = -1

// fetch reads blocks [start, start+nb) of one object at snapID into
// pooled buffers and decodes presence (see parseFetch); withData false is
// the presence probe. target is primaryOSD, or one replica's OSD id for
// a direct single-copy read (repair). On success the caller release()s
// the result; on failure nothing is retained.
func (e *EncryptedImage) fetch(at vtime.Time, objIdx int64, snapID uint64, start, nb int64, withData bool, target int) (objFetch, vtime.Time, error) {
	f, raw := e.plan.newFetch(nb, withData)
	ops := e.plan.fetchOps(start, nb, withData, raw, f.metas)
	var (
		res []rados.Result
		end vtime.Time
		err error
	)
	if target == primaryOSD {
		res, end, err = e.img.Operate(at, objIdx, snapID, ops)
	} else {
		res, end, err = e.img.OperateOn(at, target, objIdx, snapID, ops)
	}
	if err == nil {
		err = e.plan.parseFetch(start, nb, withData, res, &f)
	}
	if err != nil {
		f.release()
		return objFetch{}, at, err
	}
	return f, end, nil
}

// openBlock opens fetched block b (relative to the fetch's first block)
// into dst under the key epoch its tag names; a destroyed epoch is
// ErrKeyErased. Under LayoutUnaligned the block is opened where it lies
// in the stream, its ciphertext's capacity running over its own slot —
// the adjacency writePlan.cipherDst gives the seal — so an AEAD opens
// ciphertext||tag in place. The opener leaves raw as it found it, so a
// fetch opens the same way twice (repair and verify rely on that).
func (e *EncryptedImage) openBlock(f *objFetch, b int64, blockIdx uint64, dst []byte) error {
	opener, err := e.ring.cryptorFor(f.epoch(b))
	if err != nil {
		return err
	}
	bs, ml, sml := e.plan.blockSize, e.plan.metaLen, e.schemeMetaLen()
	if e.plan.layout == LayoutUnaligned {
		s := b * (bs + ml)
		return opener.open(dst, f.raw[s:s+bs:s+bs+ml], blockIdx, f.raw[s+bs:s+bs+sml])
	}
	return opener.open(dst, f.cipher[b*bs:(b+1)*bs], blockIdx, f.metas[b*ml:b*ml+sml])
}

// checkObject rejects an object index outside the image: the
// maintenance primitives take indexes from walkers and callers, and a
// stray one would seal blocks into (or do IO against) an object name
// that is not part of the image.
func (e *EncryptedImage) checkObject(op string, objIdx int64) error {
	if objIdx < 0 || objIdx >= e.ObjectCount() {
		return fmt.Errorf("core: %s object %d out of range", op, objIdx)
	}
	return nil
}

// scatterIVs draws one batch of entropy and scatters it into the random
// prefix of every staged block's metadata slot, in plan order.
func (e *EncryptedImage) scatterIVs(plans []*writePlan) error {
	rl := e.proto.randLen()
	if rl == 0 {
		return nil
	}
	var nb int64
	for _, w := range plans {
		nb += w.nb
	}
	rbuf := getBuf(int(nb) * rl)
	_, err := rand.Read(rbuf)
	if err == nil {
		g := 0
		for _, w := range plans {
			for b := int64(0); b < w.nb; b++ {
				copy(w.metaDst(b)[:rl], rbuf[g*rl:])
				g++
			}
		}
	}
	putBuf(rbuf)
	return err
}

// sidecarOp is the op persisting an allocation sidecar: appended to the
// transaction that writes the blocks the sidecar now describes.
func sidecarOp(a *objAlloc) rados.Op {
	return rados.Op{Kind: rados.OpSetAttr, Key: []byte(allocAttr), Data: a.encode()}
}

// resealObject seals plain (len(blocks)*BlockSize bytes, in blocks'
// order) into the given sorted object-relative blocks under epoch and
// commits every run, its metadata and — for metadata-free schemes — the
// sidecar in one atomic transaction. The caller holds the object's
// exclusive lock.
func (e *EncryptedImage) resealObject(at vtime.Time, objIdx int64, blocks []int64, plain []byte, epoch uint32) (vtime.Time, error) {
	sealer, err := e.ring.cryptorFor(epoch)
	if err != nil {
		return at, err
	}
	plans, slots := e.stagePlans(blocks)
	defer func() {
		for _, w := range plans {
			w.release()
		}
	}()
	if err := e.scatterIVs(plans); err != nil {
		return at, err
	}
	bs, nbObj := e.opts.BlockSize, e.plan.objBlocks()
	err = forBlocks(e.workers, int64(len(blocks)), func(lo, hi int64) error {
		for k := lo; k < hi; k++ {
			blockIdx := uint64(objIdx*nbObj + blocks[k])
			if err := slots[k].plan.sealBlock(sealer, epoch, slots[k].local, blockIdx, plain[k*bs:(k+1)*bs]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return at, err
	}
	end := e.chargeCrypto(at, int64(len(blocks))*bs)

	var ops []rados.Op
	for _, w := range plans {
		ops = append(ops, w.ops()...)
	}
	if e.plan.trackAlloc {
		a, loaded, err := e.loadAlloc(end, objIdx)
		if err != nil {
			return at, err
		}
		end = loaded
		for _, b := range blocks {
			a.set(b, epoch)
		}
		ops = append(ops, sidecarOp(a))
	}
	end, err = e.commitObjectTxn(end, objIdx, ops, e.plan.trackAlloc)
	if err != nil {
		return at, err
	}
	return end, nil
}

// planSlot locates one staged block inside a writePlan.
type planSlot struct {
	plan  *writePlan
	local int64
}

// stagePlans builds write plans over the contiguous runs of the given
// sorted object-relative blocks. slots[i] is blocks[i]'s destination;
// the caller releases every returned plan.
func (e *EncryptedImage) stagePlans(blocks []int64) ([]*writePlan, []planSlot) {
	slots := make([]planSlot, len(blocks))
	var plans []*writePlan
	for i := 0; i < len(blocks); {
		j := i
		for j+1 < len(blocks) && blocks[j+1] == blocks[j]+1 {
			j++
		}
		w := e.plan.newWritePlan(blocks[i], int64(j-i+1))
		plans = append(plans, w)
		for k := i; k <= j; k++ {
			slots[k] = planSlot{plan: w, local: int64(k - i)}
		}
		i = j + 1
	}
	return plans, slots
}

// appendBlock appends b to an ascending list of an object's blocks,
// sizing the list once, on first use, for everything that can follow.
func appendBlock(list []int64, b, nb int64) []int64 {
	if list == nil {
		list = make([]int64, 0, nb-b)
	}
	return append(list, b)
}

// compactKept drops the blocks whose keep flag is false (or missing),
// moving the kept blocks' plaintext down in place so plain stays in
// block order, and returns the kept blocks.
func compactKept(blocks []int64, keep []bool, plain []byte, bs int64) []int64 {
	kept := blocks[:0]
	for i, b := range blocks {
		if i >= len(keep) || !keep[i] {
			continue
		}
		if k := int64(len(kept)); k != int64(i) {
			copy(plain[k*bs:(k+1)*bs], plain[int64(i)*bs:int64(i+1)*bs])
		}
		kept = append(kept, b)
	}
	return kept
}

// ---- allocation sidecar cache (metadata-free schemes) ----

// loadAlloc returns the object's decoded sidecar, fetching it from the
// OSD on first touch; an object that does not exist yet starts with an
// empty one. An object that exists without its sidecar is errNoSidecar
// and nothing is cached, so no write can persist a guess about which of
// its blocks hold data. The caller must hold the object's exclusive
// lock.
func (e *EncryptedImage) loadAlloc(at vtime.Time, objIdx int64) (*objAlloc, vtime.Time, error) {
	e.allocMu.Lock()
	a, ok := e.alloc[objIdx]
	e.allocMu.Unlock()
	if ok {
		return a, at, nil
	}
	res, end, err := e.img.Operate(at, objIdx, 0, []rados.Op{
		{Kind: rados.OpGetAttr, Key: []byte(allocAttr)},
		{Kind: rados.OpStat},
	})
	if err != nil {
		return nil, at, err
	}
	nb := e.plan.objBlocks()
	switch {
	case res[1].Status == rados.StatusNotFound:
		a = newObjAlloc(nb)
	case res[0].Status == rados.StatusNotFound:
		return nil, at, errNoSidecar
	default:
		if a, err = decodeObjAlloc(res[0].Data, nb); err != nil {
			return nil, at, err
		}
	}
	e.storeAlloc(objIdx, a)
	return a, end, nil
}

func (e *EncryptedImage) storeAlloc(objIdx int64, a *objAlloc) {
	e.allocMu.Lock()
	e.alloc[objIdx] = a
	e.allocMu.Unlock()
}

// invalidateAlloc drops a cached sidecar whose in-place mutation was not
// committed (failed transaction); the next touch refetches from the OSD.
func (e *EncryptedImage) invalidateAlloc(objIdx int64) {
	e.allocMu.Lock()
	delete(e.alloc, objIdx)
	e.allocMu.Unlock()
}

// commitObjectTxn issues one object transaction and surfaces per-op
// failures. When the transaction carried an in-place sidecar mutation
// (dirtyAlloc), any failure invalidates the cached sidecar so the next
// touch refetches the committed state. On failure the caller's arrival
// time is returned unchanged.
func (e *EncryptedImage) commitObjectTxn(at vtime.Time, objIdx int64, ops []rados.Op, dirtyAlloc bool) (vtime.Time, error) {
	fail := func(err error) (vtime.Time, error) {
		if dirtyAlloc {
			e.invalidateAlloc(objIdx)
		}
		return at, err
	}
	res, end, err := e.img.Operate(at, objIdx, 0, ops)
	if err != nil {
		return fail(err)
	}
	for _, r := range res {
		if err := r.Status.Err(); err != nil {
			return fail(err)
		}
	}
	return end, nil
}

// ---- key lifecycle ----

// persistContainer rewrites the image's encryption descriptor with the
// current container state. Callers hold keyMu.
func (e *EncryptedImage) persistContainer(at vtime.Time) (vtime.Time, error) {
	desc, err := marshalDescriptor(e.opts, e.container)
	if err != nil {
		return at, err
	}
	return e.img.SetEncryptionBlob(at, desc)
}

// CurrentEpoch returns the key epoch new writes seal under.
func (e *EncryptedImage) CurrentEpoch() uint32 { return e.ring.currentEpoch() }

// Epochs lists the live (unlockable) key epochs.
func (e *EncryptedImage) Epochs() []uint32 { return e.ring.epochs() }

// BeginEpoch mints the next key epoch and makes it current: the
// container gains a fresh wrapped data key, the descriptor is persisted
// (so a crashed client reloads both epochs), and from the moment this
// returns every new write seals under the new epoch. Existing blocks
// keep their old epoch until the rekey walker re-seals them.
func (e *EncryptedImage) BeginEpoch(at vtime.Time) (uint32, vtime.Time, error) {
	e.keyMu.Lock()
	defer e.keyMu.Unlock()
	prev := e.container.CurrentEpoch()
	epoch, err := e.container.AddEpoch(e.masterKey)
	if err != nil {
		return 0, at, err
	}
	// Any failure below retracts the in-memory mint, so the container
	// never desyncs from the keyring (an orphan live epoch would escape
	// every future rekey's DropEpoch).
	retract := func(err error) (uint32, vtime.Time, error) {
		if rerr := e.container.RetractEpoch(epoch, prev); rerr != nil {
			return 0, at, errors.Join(err, rerr)
		}
		return 0, at, err
	}
	key, err := e.container.EpochKey(e.masterKey, epoch)
	if err != nil {
		return retract(err)
	}
	c, err := newCryptor(e.opts.Scheme, key)
	if err != nil {
		return retract(err)
	}
	end, err := e.persistContainer(at)
	if err != nil {
		return retract(err)
	}
	e.ring.install(epoch, c)
	e.ring.setCurrent(epoch)
	telemetry.Log.Append(end, telemetry.EventEpochAdd, e.img.Name(), "minted", int64(epoch))
	return epoch, end, nil
}

// DropEpoch destroys a retired epoch's key material — the crypto-erase
// endpoint of a completed rekey. Any block (head or snapshot) still
// sealed under the epoch becomes permanently unreadable (ErrKeyErased).
func (e *EncryptedImage) DropEpoch(at vtime.Time, epoch uint32) (vtime.Time, error) {
	e.keyMu.Lock()
	defer e.keyMu.Unlock()
	entry, err := e.container.RemoveEpoch(epoch)
	if err != nil {
		return at, err
	}
	end, err := e.persistContainer(at)
	if err != nil {
		// Reinstate: the erase never became durable, and reporting it
		// destroyed while the wrapped key survives on disk would void
		// the crypto-erase guarantee on retry (Step tolerates
		// ErrEpochUnknown for the genuine already-destroyed case).
		e.container.ReinstateEpoch(entry)
		return at, err
	}
	clear(entry.Wrapped)
	e.ring.drop(epoch)
	telemetry.Log.Append(end, telemetry.EventEpochRetire, e.img.Name(), "crypto-erased", int64(epoch))
	return end, nil
}

// RekeyObject re-seals every present block of one striping object that
// is not yet at the current epoch — the walker primitive behind
// internal/keymgr. It holds the object's exclusive lock across its
// read-modify-write, so live writes (which always seal under the newest
// epoch and hold the lock shared) either land before the walker reads —
// and are skipped as already-current — or after it commits. All
// re-sealed blocks and their metadata move in one atomic transaction.
// It returns the number of blocks rewritten.
func (e *EncryptedImage) RekeyObject(at vtime.Time, objIdx int64) (int, vtime.Time, error) {
	if err := e.checkObject("rekey", objIdx); err != nil {
		return 0, at, err
	}
	bs, nb := e.opts.BlockSize, e.plan.objBlocks()
	lk := e.locks.of(objIdx)
	lk.Lock()
	defer lk.Unlock()
	target := e.ring.currentEpoch()

	f, end, err := e.fetch(at, objIdx, 0, 0, nb, true, primaryOSD)
	if err != nil {
		return 0, at, err
	}
	defer f.release()
	var stale []int64
	for b := int64(0); b < nb; b++ {
		if f.present[b] != 0 && f.epoch(b) != target {
			stale = appendBlock(stale, b, nb)
		}
	}
	if len(stale) == 0 {
		return 0, end, nil
	}

	// Open under each block's old epoch, on the shared datapath pool.
	plain := getBuf(len(stale) * int(bs))
	defer putBuf(plain)
	err = forBlocks(e.workers, int64(len(stale)), func(lo, hi int64) error {
		for k := lo; k < hi; k++ {
			if err := e.openBlock(&f, stale[k], uint64(objIdx*nb+stale[k]), plain[k*bs:(k+1)*bs]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, at, err
	}
	end = e.chargeCrypto(end, int64(len(stale))*bs)
	if end, err = e.resealObject(end, objIdx, stale, plain, target); err != nil {
		return 0, at, err
	}
	return len(stale), end, nil
}

// PresentRange reports, per block of the block-aligned range
// [off, off+length), whether the block was ever written in this image
// (snapID 0 = head), using the layout's cheapest presence probe — no
// ciphertext is fetched except under LayoutUnaligned, whose interleaved
// metadata cannot be addressed separately. The clone layer uses it to
// answer "would this range fall through to the parent?" without moving
// data.
func (e *EncryptedImage) PresentRange(at vtime.Time, off, length int64, snapID uint64) ([]bool, vtime.Time, error) {
	bs := e.opts.BlockSize
	if off%bs != 0 || length%bs != 0 || length < 0 {
		return nil, at, fmt.Errorf("%w: present off=%d len=%d block=%d", ErrAlignment, off, length, bs)
	}
	out := make([]bool, length/bs)
	if length == 0 {
		return out, at, nil
	}
	exts, err := e.img.Extents(off, length)
	if err != nil {
		return nil, at, err
	}
	end, err := vtime.Join(at, len(exts), func(i int) (vtime.Time, error) {
		ext := exts[i]
		f, end, err := e.fetch(at, ext.ObjIdx, snapID, ext.ObjOff/bs, ext.Length/bs, false, primaryOSD)
		if err != nil {
			return at, err
		}
		for b, v := range f.present {
			out[ext.BufOff/bs+int64(b)] = v != 0
		}
		f.release()
		return end, nil
	})
	if err != nil {
		return nil, at, err
	}
	return out, end, nil
}

// CopyupObject seals externally supplied plaintext into every block of
// one striping object that is absent in this image — the clone copyup /
// flatten primitive. It holds the object's exclusive lock across its
// probe-fetch-seal-commit cycle, so concurrent writes (shared lock)
// either land before the probe — and are skipped as already-owned — or
// after the commit; the same fencing discipline as RekeyObject. source is
// called once, under the lock, with the object-relative indices of the
// absent blocks and a plaintext buffer to fill (len(blocks) *
// BlockSize); keep[i] = false leaves blocks[i] a hole (the parent chain
// had no data either). source must not IO back into this image (the lock
// is held). All copied blocks seal under the current key epoch — sampled
// under the lock, so a concurrent rekey either re-seals them afterwards
// (it queues on the same lock) or already advanced the epoch this sample
// sees — and commit in one atomic transaction. Returns the number of
// blocks copied.
func (e *EncryptedImage) CopyupObject(at vtime.Time, objIdx int64,
	source func(at vtime.Time, blocks []int64, plain []byte) (keep []bool, end vtime.Time, err error),
) (int, vtime.Time, error) {
	if err := e.checkObject("copyup", objIdx); err != nil {
		return 0, at, err
	}
	bs, nb := e.opts.BlockSize, e.plan.objBlocks()
	// Clip to the image tail: the last striping object may extend past
	// the image size, and copyup must not materialize phantom blocks.
	if maxNb := (e.img.Size()+bs-1)/bs - objIdx*nb; maxNb < nb {
		nb = maxNb
	}
	lk := e.locks.of(objIdx)
	lk.Lock()
	defer lk.Unlock()
	epoch := e.ring.currentEpoch()

	// Probe which blocks the image already owns.
	f, end, err := e.fetch(at, objIdx, 0, 0, nb, false, primaryOSD)
	if err != nil {
		return 0, at, err
	}
	var absent []int64
	for b, v := range f.present {
		if v == 0 {
			absent = appendBlock(absent, int64(b), nb)
		}
	}
	f.release()
	if len(absent) == 0 {
		return 0, end, nil
	}

	plain := getBuf(len(absent) * int(bs))
	defer putBuf(plain)
	keep, end, err := source(end, absent, plain)
	if err != nil {
		return 0, at, err
	}
	kept := compactKept(absent, keep, plain, bs)
	if len(kept) == 0 {
		return 0, end, nil
	}
	if end, err = e.resealObject(end, objIdx, kept, plain, epoch); err != nil {
		return 0, at, err
	}
	return len(kept), end, nil
}

// Discard crypto-erases the block-aligned range [off, off+length): the
// ciphertext region is overwritten with zeros and the per-block metadata
// punched (or the allocation bits cleared), in one atomic transaction
// per object. Afterwards the blocks read as holes — exact sparse reads
// now hold under every scheme, including the metadata-free ones, via the
// allocation sidecar — and the discarded ciphertext is unrecoverable
// with any retained key. Snapshot clones taken before the discard keep
// their (separately erasable, via DropEpoch) copies, as in RADOS.
func (e *EncryptedImage) Discard(at vtime.Time, off, length int64) (vtime.Time, error) {
	bs := e.opts.BlockSize
	if off%bs != 0 || length%bs != 0 || length < 0 {
		return at, fmt.Errorf("%w: discard off=%d len=%d block=%d", ErrAlignment, off, length, bs)
	}
	if length == 0 {
		return at, nil
	}
	exts, err := e.img.Extents(off, length)
	if err != nil {
		return at, err
	}

	discardOne := func(at vtime.Time, ext rbd.Extent) (vtime.Time, error) {
		start := ext.ObjOff / bs
		nbx := ext.Length / bs
		lk := e.locks.of(ext.ObjIdx)
		lk.Lock()
		defer lk.Unlock()

		// Probe before punching: discarding a never-created object (or a
		// range with nothing allocated in it) must not materialize it, or
		// move zero bytes, just to make holes that already exist.
		var a *objAlloc
		if e.plan.trackAlloc {
			var err error
			if a, at, err = e.loadAlloc(at, ext.ObjIdx); err != nil {
				return at, err
			}
			if !a.anyPresent(start, start+nbx) {
				return at, nil
			}
			for b := start; b < start+nbx; b++ {
				a.clearBlock(b)
			}
		} else {
			res, end, err := e.img.Operate(at, ext.ObjIdx, 0, []rados.Op{{Kind: rados.OpStat}})
			if err != nil {
				return at, err
			}
			at = end
			if res[0].Status == rados.StatusNotFound {
				return at, nil
			}
		}
		w, ops := e.plan.discardPlan(start, nbx)
		defer w.release()
		if a != nil {
			ops = append(ops, sidecarOp(a))
		}
		return e.commitObjectTxn(at, ext.ObjIdx, ops, a != nil)
	}

	return vtime.Join(at, len(exts), func(i int) (vtime.Time, error) {
		return discardOne(at, exts[i])
	})
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
