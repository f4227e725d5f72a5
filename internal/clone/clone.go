// Package clone is the layered-image subsystem: encrypted copy-on-write
// clones with per-layer keys, the golden-image capability the paper
// holds up as the payoff of moving encryption into the virtual-disk
// layer (§1, §4). A provider writes one base image, encrypts it under
// its own key, snapshots it, and hands every tenant a clone of that
// snapshot sealed under the tenant's *own* LUKS container — something
// length-preserving dm-crypt under the VM cannot express, because the
// two layers would have to share one key.
//
// A clone is an ordinary encrypted image (its own container, epoch
// table, cryptor keyring, data objects) plus a parent pointer in its rbd
// header. Reads resolve through the layer chain: blocks present in the
// child decrypt with the child's keys; absent blocks fall through to the
// parent snapshot and are opened with the *parent's* keys, recursively,
// until a layer owns the block or the base reports a hole. Writes always
// seal under the child's current key epoch into the child's objects —
// the parent is never written — so key lifecycle operations stay
// per-tenant: DropEpoch on one clone crypto-erases that tenant's writes
// and nothing else, and rekeying a clone walks only child-owned blocks.
//
// Sub-block writes copy up: the covering block is read through the chain
// (decrypted with whatever layer's key owns it), merged with the new
// bytes, and re-sealed under the child's key — the moment data migrates
// from the provider's trust domain into the tenant's.
//
// Flatten (flatten.go) is the background walker that copies every still-
// inherited block into the child and severs the parent link, mirroring
// the rekey walker's discipline: per-object exclusive locking against
// live writers, crash-resumable progress in the child's header OMAP, and
// an optional vtime.Pacer bounding its interference on foreground IO.
package clone

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/vtime"
)

var (
	// ErrNoKey reports a layer whose passphrase is missing from the
	// keychain.
	ErrNoKey = errors.New("clone: keychain has no passphrase for layer")
	// ErrNotClone reports a flatten on an image without a parent.
	ErrNotClone = errors.New("clone: image has no parent")
	// ErrBlockSize reports a child block size differing from the parent's
	// (layer resolution maps blocks 1:1 across the chain).
	ErrBlockSize = errors.New("clone: child and parent block sizes differ")
)

// Keychain maps image names to their container passphrases. Opening a
// clone needs the credential of every layer in its chain: read-through
// decrypts inherited blocks with the keys of the layer that owns them.
type Keychain map[string][]byte

func (k Keychain) passphrase(image string) ([]byte, error) {
	p, ok := k[image]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoKey, image)
	}
	return p, nil
}

// layer is one read-only ancestor in the chain: an encrypted image
// frozen at a snapshot, plus its own parent (nil at the base).
type layer struct {
	enc    *core.EncryptedImage
	snapID uint64
	parent *layer
}

// Image is an open layered image: its own writable encrypted layer plus,
// until flattened, a read-only parent chain. It satisfies fio.Target and
// fio.Discarder, so workloads run against clones unchanged. Like
// core.EncryptedImage, one handle must be the only writer.
type Image struct {
	enc *core.EncryptedImage

	// pmu guards the parent link, which flatten severs while readers may
	// be resolving through it.
	pmu    sync.RWMutex
	parent *layer
}

// Create makes an encrypted clone of parentName@snapName: a fresh image
// of the parent's geometry, linked to the parent snapshot and formatted
// with its own container under keys[childName]. opts picks the child's
// scheme and layout — they are free to differ from the parent's (the
// chain resolves blocks, not bytes, so any scheme can layer over any
// other); the block size must match and defaults to the parent's.
func Create(at vtime.Time, client *rados.Client, pool, parentName, snapName, childName string, keys Keychain, opts core.Options) (*Image, vtime.Time, error) {
	parent, at, err := openLayerChain(at, client, pool, parentName, snapName, keys)
	if err != nil {
		return nil, at, err
	}
	popts := parent.enc.Options()
	if opts.BlockSize == 0 {
		opts.BlockSize = popts.BlockSize
	}
	if opts.BlockSize != popts.BlockSize {
		return nil, at, fmt.Errorf("%w: child %d, parent %d", ErrBlockSize, opts.BlockSize, popts.BlockSize)
	}
	// Validate everything validatable before the first mutation, so the
	// common failures (missing child key, bad options) cannot strand a
	// half-built image squatting on the tenant's name.
	pass, err := keys.passphrase(childName)
	if err != nil {
		return nil, at, err
	}
	if err := opts.Validate(); err != nil {
		return nil, at, err
	}
	pimg := parent.enc.Image()
	if at, err = rbd.CreateWithObjectSize(at, client, pool, childName, pimg.Size(), pimg.ObjectSize()); err != nil {
		return nil, at, err
	}
	img, at, err := rbd.Open(at, client, pool, childName)
	if err != nil {
		return nil, at, err
	}
	if at, err = img.SetParent(at, rbd.ParentSpec{Pool: pool, Image: parentName, SnapID: parent.snapID, SnapName: snapName}); err != nil {
		return nil, at, err
	}
	if at, err = core.Format(at, img, pass, opts); err != nil {
		return nil, at, err
	}
	enc, at, err := core.Load(at, img, pass)
	if err != nil {
		return nil, at, err
	}
	return &Image{enc: enc, parent: parent}, at, nil
}

// Open loads a layered image and its whole parent chain. It also opens
// plain (non-layered or already flattened) encrypted images, whose
// chain is empty.
func Open(at vtime.Time, client *rados.Client, pool, name string, keys Keychain) (*Image, vtime.Time, error) {
	enc, parent, at, err := openLayer(at, client, pool, name, keys)
	if err != nil {
		return nil, at, err
	}
	return &Image{enc: enc, parent: parent}, at, nil
}

// openLayer opens one image plus its ancestors, returning the image's
// encrypted handle and the chain above it.
func openLayer(at vtime.Time, client *rados.Client, pool, name string, keys Keychain) (*core.EncryptedImage, *layer, vtime.Time, error) {
	img, at, err := rbd.Open(at, client, pool, name)
	if err != nil {
		return nil, nil, at, err
	}
	pass, err := keys.passphrase(name)
	if err != nil {
		return nil, nil, at, err
	}
	enc, at, err := core.Load(at, img, pass)
	if err != nil {
		return nil, nil, at, err
	}
	spec := img.Parent()
	if spec == nil {
		return enc, nil, at, nil
	}
	penc, pparent, at, err := openLayer(at, client, spec.Pool, spec.Image, keys)
	if err != nil {
		return nil, nil, at, err
	}
	if penc.Options().BlockSize != enc.Options().BlockSize {
		return nil, nil, at, fmt.Errorf("%w: child %d, parent %d", ErrBlockSize, enc.Options().BlockSize, penc.Options().BlockSize)
	}
	return enc, &layer{enc: penc, snapID: spec.SnapID, parent: pparent}, at, nil
}

// openLayerChain opens parentName@snapName as the top of a read-only
// chain (the shape Create links a child to).
func openLayerChain(at vtime.Time, client *rados.Client, pool, name, snapName string, keys Keychain) (*layer, vtime.Time, error) {
	enc, parent, at, err := openLayer(at, client, pool, name, keys)
	if err != nil {
		return nil, at, err
	}
	snapID, err := enc.Image().SnapID(snapName)
	if err != nil {
		return nil, at, err
	}
	return &layer{enc: enc, snapID: snapID, parent: parent}, at, nil
}

// Enc exposes the image's own encrypted layer — the handle key-lifecycle
// subsystems operate on: keymgr.Start(.., img.Enc()) rekeys the child,
// walking (and re-sealing) only child-owned blocks, and
// Enc().DropEpoch crypto-erases the child's writes without touching the
// parent or any sibling clone.
func (img *Image) Enc() *core.EncryptedImage { return img.enc }

// Size returns the usable image size.
func (img *Image) Size() int64 { return img.enc.Size() }

// Options returns the child layer's encryption options.
func (img *Image) Options() core.Options { return img.enc.Options() }

// Parent reports the parent pointer, or nil once flattened.
func (img *Image) Parent() *rbd.ParentSpec { return img.enc.Image().Parent() }

// CreateSnap snapshots the child layer (inherited blocks stay inherited;
// a snapshot of a clone still resolves through the chain). Snapshots pin
// the parent link: an image with snapshots refuses to flatten
// (ErrHasSnaps), and — symmetrically — a clone refuses to snapshot while
// a flatten is in flight, because the walker fills only the head and the
// sever would silently zero the snapshot's inherited view.
func (img *Image) CreateSnap(at vtime.Time, name string) (uint64, vtime.Time, error) {
	if img.parentLayer() != nil {
		// The flatten record is persisted before any data moves, so this
		// probe cannot miss an in-flight walk.
		if found, _, end, err := flattenWalk.Active(at, img.enc.Image()); err != nil {
			return 0, at, err
		} else if found {
			return 0, end, ErrFlattenActive
		}
	}
	return img.enc.CreateSnap(at, name)
}

func (img *Image) parentLayer() *layer {
	img.pmu.RLock()
	defer img.pmu.RUnlock()
	return img.parent
}

// detachParent drops the in-memory chain once flatten severed the
// persistent pointer.
func (img *Image) detachParent() {
	img.pmu.Lock()
	img.parent = nil
	img.pmu.Unlock()
}

// ---- read-through ----

// presPool recycles the per-read presence scratch so layer resolution
// adds no per-IO heap allocation on the hot path.
type presBuf struct{ p []bool }

var presPool = sync.Pool{New: func() any { return new(presBuf) }}

func getPres(n int) *presBuf {
	b := presPool.Get().(*presBuf)
	if cap(b.p) < n {
		b.p = make([]bool, n)
	}
	b.p = b.p[:n]
	clear(b.p)
	return b
}

func putPres(b *presBuf) { presPool.Put(b) }

// forRuns invokes fn for each maximal run pres[lo:hi) of one repeated
// value — the chunking every chain operation shares (recurse over absent
// runs, mask over present runs).
func forRuns(pres []bool, fn func(lo, hi int, val bool) error) error {
	for lo := 0; lo < len(pres); {
		hi := lo + 1
		for hi < len(pres) && pres[hi] == pres[lo] {
			hi++
		}
		if err := fn(lo, hi, pres[lo]); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// forBlockRuns invokes fn for each maximal run blocks[lo:hi) of
// consecutive indices.
func forBlockRuns(blocks []int64, fn func(lo, hi int) error) error {
	for lo := 0; lo < len(blocks); {
		hi := lo + 1
		for hi < len(blocks) && blocks[hi] == blocks[hi-1]+1 {
			hi++
		}
		if err := fn(lo, hi); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// readInto fills p from the layer (at its snapshot) and, for blocks the
// layer does not own, recurses into its parent over the maximal absent
// runs. present reports the union over the chain; blocks absent
// everywhere are zero-filled (holes).
func (l *layer) readInto(at vtime.Time, p []byte, off int64, present []bool) (vtime.Time, error) {
	return readThrough(at, l.enc, l.snapID, l.parent, p, off, present)
}

func readThrough(at vtime.Time, enc *core.EncryptedImage, snapID uint64, parent *layer, p []byte, off int64, present []bool) (vtime.Time, error) {
	end, err := enc.ReadAtSnapPresent(at, p, off, snapID, present)
	if err != nil || parent == nil {
		return end, err
	}
	bs := enc.Options().BlockSize
	err = forRuns(present, func(lo, hi int, owned bool) error {
		if owned {
			return nil
		}
		sub := p[int64(lo)*bs : int64(hi)*bs]
		e2, err := parent.readInto(at, sub, off+int64(lo)*bs, present[lo:hi])
		if err != nil {
			return err
		}
		end = vtime.Max(end, e2)
		return nil
	})
	if err != nil {
		return at, err
	}
	return end, nil
}

// presentRange reports, per block of [off, off+length), whether any
// layer of the chain (this one or an ancestor) owns the block, using the
// layout presence probes — no ciphertext moves.
func (l *layer) presentRange(at vtime.Time, off, length int64) ([]bool, vtime.Time, error) {
	pres, end, err := l.enc.PresentRange(at, off, length, l.snapID)
	if err != nil || l.parent == nil {
		return pres, end, err
	}
	bs := l.enc.Options().BlockSize
	err = forRuns(pres, func(lo, hi int, owned bool) error {
		if owned {
			return nil
		}
		sub, e2, err := l.parent.presentRange(at, off+int64(lo)*bs, int64(hi-lo)*bs)
		if err != nil {
			return err
		}
		copy(pres[lo:hi], sub)
		end = vtime.Max(end, e2)
		return nil
	})
	if err != nil {
		return nil, at, err
	}
	return pres, end, nil
}

// ReadAt reads [off, off+len(p)) from the image head, resolving through
// the layer chain: child blocks decrypt under the child's keys,
// inherited blocks under their owning ancestor's keys, and blocks absent
// everywhere read as zeros.
func (img *Image) ReadAt(at vtime.Time, p []byte, off int64) (vtime.Time, error) {
	return img.ReadAtSnap(at, p, off, 0)
}

// ReadAtSnap reads from a child snapshot (0 = head) through the chain.
func (img *Image) ReadAtSnap(at vtime.Time, p []byte, off int64, snapID uint64) (vtime.Time, error) {
	parent := img.parentLayer()
	if parent == nil {
		return img.enc.ReadAtSnap(at, p, off, snapID)
	}
	bs := img.enc.Options().BlockSize
	if off%bs != 0 || int64(len(p))%bs != 0 {
		return at, fmt.Errorf("%w: off=%d len=%d block=%d", core.ErrAlignment, off, len(p), bs)
	}
	pres := getPres(len(p) / int(bs))
	end, err := readThrough(at, img.enc, snapID, parent, p, off, pres.p)
	putPres(pres)
	return end, err
}

// WriteAt writes p at off, always sealing under the child's current key
// epoch into the child's objects. Block-aligned spans go straight to the
// child layer; a sector-aligned write that partially covers a block
// copies the block up first — its current content is read through the
// chain (opened with the owning layer's key), merged with the new bytes,
// and the whole block re-sealed under the child's key. Partial-block
// read-modify-write is not atomic against a second writer handle, the
// same single-writer contract the allocation sidecar already assumes.
func (img *Image) WriteAt(at vtime.Time, p []byte, off int64) (vtime.Time, error) {
	bs := img.enc.Options().BlockSize
	if off%bs == 0 && int64(len(p))%bs == 0 {
		return img.enc.WriteAt(at, p, off)
	}
	const sector = 512
	if off%sector != 0 || int64(len(p))%sector != 0 {
		return at, fmt.Errorf("%w: off=%d len=%d sector=%d", core.ErrAlignment, off, len(p), sector)
	}
	end := at
	n := int64(len(p))
	// Head partial block, middle full blocks, tail partial block.
	headLen := int64(0)
	if off%bs != 0 {
		headLen = bs - off%bs
		if headLen > n {
			headLen = n
		}
	}
	midLen := (n - headLen) / bs * bs
	copyupBlock := func(blockOff, dataOff, dataLen int64, data []byte) (vtime.Time, error) {
		buf := bufpool.Get(int(bs))
		defer bufpool.Put(buf)
		pres := getPres(1)
		defer putPres(pres)
		e, err := readThrough(at, img.enc, 0, img.parentLayer(), buf, blockOff, pres.p)
		if err != nil {
			return at, err
		}
		copy(buf[dataOff:], data[:dataLen])
		return img.enc.WriteAt(e, buf, blockOff)
	}
	if headLen > 0 {
		e, err := copyupBlock(off-off%bs, off%bs, headLen, p)
		if err != nil {
			return at, err
		}
		end = vtime.Max(end, e)
	}
	if midLen > 0 {
		e, err := img.enc.WriteAt(at, p[headLen:headLen+midLen], off+headLen)
		if err != nil {
			return at, err
		}
		end = vtime.Max(end, e)
	}
	if tail := n - headLen - midLen; tail > 0 {
		e, err := copyupBlock(off+headLen+midLen, 0, tail, p[headLen+midLen:])
		if err != nil {
			return at, err
		}
		end = vtime.Max(end, e)
	}
	return end, nil
}

// Discard drops the block-aligned range [off, off+length) from the
// child's view. Blocks the parent chain has no data for are punched in
// the child (true holes, crypto-erased as in core.Discard); blocks the
// chain does own are instead masked by an explicit zero block sealed
// under the child's key — punching those would resurrect the parent's
// data through read-through.
func (img *Image) Discard(at vtime.Time, off, length int64) (vtime.Time, error) {
	parent := img.parentLayer()
	if parent == nil {
		return img.enc.Discard(at, off, length)
	}
	bs := img.enc.Options().BlockSize
	if off%bs != 0 || length%bs != 0 || length < 0 {
		return at, fmt.Errorf("%w: discard off=%d len=%d block=%d", core.ErrAlignment, off, length, bs)
	}
	if length == 0 {
		return at, nil
	}
	pres, end, err := parent.presentRange(at, off, length)
	if err != nil {
		return at, err
	}
	err = forRuns(pres, func(lo, hi int, chainOwned bool) error {
		runOff, runLen := off+int64(lo)*bs, int64(hi-lo)*bs
		if !chainOwned {
			e, err := img.enc.Discard(at, runOff, runLen)
			if err == nil {
				end = vtime.Max(end, e)
			}
			return err
		}
		// Mask in bounded chunks: a giant present run must not translate
		// into one payload-sized zero buffer (the true-punch branch above
		// carries no payload at all).
		const maskChunk = 1 << 20
		for o := int64(0); o < runLen; o += maskChunk {
			n := min(int64(maskChunk), runLen-o)
			zero := bufpool.GetZero(int(n))
			e, err := img.enc.WriteAt(at, zero, runOff+o)
			bufpool.Put(zero)
			if err != nil {
				return err
			}
			end = vtime.Max(end, e)
		}
		return nil
	})
	if err != nil {
		return at, err
	}
	return end, nil
}
