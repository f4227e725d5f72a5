// Package rbd is the virtual-disk image layer in the role of libRBD
// (§2.4): it stripes a linear block device over fixed-size RADOS objects
// (4 MB by default), carries image metadata in a header object, and
// provides self-managed snapshots. The per-sector-metadata encryption
// layer (internal/core) piggybacks on exactly this mapping, the
// opportunity the paper identifies in virtual disks.
package rbd

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/rados"
	"repro/internal/vtime"
)

// DefaultObjectSize is the striping unit (Ceph default).
const DefaultObjectSize = 4 << 20

var (
	// ErrExists reports that an image name is taken.
	ErrExists = errors.New("rbd: image exists")
	// ErrNotFound reports a missing image or snapshot.
	ErrNotFound = errors.New("rbd: not found")
	// ErrBounds reports IO beyond the image size.
	ErrBounds = errors.New("rbd: out of bounds")
)

// SnapInfo describes one image snapshot.
type SnapInfo struct {
	ID   uint64 `json:"id"`
	Name string `json:"name"`
}

// ParentSpec names the parent snapshot a cloned image reads through
// until it is flattened — the layering pointer of RBD's golden-image
// workflow. The pointer is pure metadata: the child's data objects are
// its own, and blocks absent there fall through to the parent snapshot
// (internal/clone owns that resolution, including the per-layer keys).
type ParentSpec struct {
	Pool     string `json:"pool"`
	Image    string `json:"image"`
	SnapID   uint64 `json:"snap_id"`
	SnapName string `json:"snap_name,omitempty"`
}

// header is the persistent image metadata (the rbd_header object).
type header struct {
	Size       int64       `json:"size"`
	ObjectSize int64       `json:"object_size"`
	SnapSeq    uint64      `json:"snap_seq"`
	Snaps      []SnapInfo  `json:"snaps"`
	Encryption []byte      `json:"encryption,omitempty"` // LUKS container blob
	Parent     *ParentSpec `json:"parent,omitempty"`     // clone layering pointer
}

// Image is an open image handle. All methods are safe for concurrent use.
type Image struct {
	client *rados.Client
	pool   string
	name   string

	mu  sync.Mutex
	hdr header
}

func headerObject(name string) string { return "rbd_header." + name }

func dataObject(name string, idx int64) string {
	return fmt.Sprintf("rbd_data.%s.%016x", name, idx)
}

const headerAttr = "rbd.header"

// Create makes a new image of the given size.
func Create(at vtime.Time, client *rados.Client, pool, name string, size int64) (vtime.Time, error) {
	return CreateWithObjectSize(at, client, pool, name, size, DefaultObjectSize)
}

// CreateWithObjectSize makes a new image with a custom striping unit.
func CreateWithObjectSize(at vtime.Time, client *rados.Client, pool, name string, size, objectSize int64) (vtime.Time, error) {
	if size <= 0 || objectSize <= 0 || objectSize%4096 != 0 {
		return at, fmt.Errorf("rbd: bad geometry size=%d objectSize=%d", size, objectSize)
	}
	// Refuse to clobber an existing image.
	res, _, err := client.Operate(at, pool, headerObject(name), rados.SnapContext{}, 0,
		[]rados.Op{{Kind: rados.OpGetAttr, Key: []byte(headerAttr)}})
	if err == nil && res[0].Status == rados.StatusOK {
		return at, fmt.Errorf("%w: %s/%s", ErrExists, pool, name)
	}
	hdr := header{Size: size, ObjectSize: objectSize}
	return writeHeader(at, client, pool, name, &hdr)
}

func writeHeader(at vtime.Time, client *rados.Client, pool, name string, hdr *header) (vtime.Time, error) {
	blob, err := json.Marshal(hdr)
	if err != nil {
		return at, err
	}
	res, end, err := client.Operate(at, pool, headerObject(name), rados.SnapContext{}, 0,
		[]rados.Op{{Kind: rados.OpSetAttr, Key: []byte(headerAttr), Data: blob}})
	if err != nil {
		return at, err
	}
	return end, res[0].Status.Err()
}

// Open loads an image handle.
func Open(at vtime.Time, client *rados.Client, pool, name string) (*Image, vtime.Time, error) {
	res, end, err := client.Operate(at, pool, headerObject(name), rados.SnapContext{}, 0,
		[]rados.Op{{Kind: rados.OpGetAttr, Key: []byte(headerAttr)}})
	if err != nil {
		if errors.Is(err, rados.ErrNotFound) {
			return nil, at, fmt.Errorf("%w: image %s/%s", ErrNotFound, pool, name)
		}
		return nil, at, err
	}
	if res[0].Status != rados.StatusOK {
		return nil, at, fmt.Errorf("%w: image %s/%s", ErrNotFound, pool, name)
	}
	img := &Image{client: client, pool: pool, name: name}
	if err := json.Unmarshal(res[0].Data, &img.hdr); err != nil {
		return nil, at, fmt.Errorf("rbd: corrupt header: %v", err)
	}
	return img, end, nil
}

// Name returns the image name.
func (img *Image) Name() string { return img.name }

// Pool returns the pool the image lives in.
func (img *Image) Pool() string { return img.pool }

// Size returns the image size in bytes.
func (img *Image) Size() int64 {
	img.mu.Lock()
	defer img.mu.Unlock()
	return img.hdr.Size
}

// ObjectSize returns the striping unit.
func (img *Image) ObjectSize() int64 {
	img.mu.Lock()
	defer img.mu.Unlock()
	return img.hdr.ObjectSize
}

// SnapContext returns the current write snap context.
func (img *Image) SnapContext() rados.SnapContext {
	img.mu.Lock()
	defer img.mu.Unlock()
	return rados.SnapContext{Seq: img.hdr.SnapSeq}
}

// Snaps lists the image snapshots.
func (img *Image) Snaps() []SnapInfo {
	img.mu.Lock()
	defer img.mu.Unlock()
	return append([]SnapInfo(nil), img.hdr.Snaps...)
}

// SnapID resolves a snapshot name.
func (img *Image) SnapID(name string) (uint64, error) {
	img.mu.Lock()
	defer img.mu.Unlock()
	for _, s := range img.hdr.Snaps {
		if s.Name == name {
			return s.ID, nil
		}
	}
	return 0, fmt.Errorf("%w: snapshot %q", ErrNotFound, name)
}

// CreateSnap takes a snapshot: it bumps the snap sequence and persists the
// header, so later writes trigger clone-on-write at the OSDs.
func (img *Image) CreateSnap(at vtime.Time, name string) (uint64, vtime.Time, error) {
	img.mu.Lock()
	for _, s := range img.hdr.Snaps {
		if s.Name == name {
			img.mu.Unlock()
			return 0, at, fmt.Errorf("%w: snapshot %q", ErrExists, name)
		}
	}
	img.hdr.SnapSeq++
	id := img.hdr.SnapSeq
	img.hdr.Snaps = append(img.hdr.Snaps, SnapInfo{ID: id, Name: name})
	hdr := img.hdr
	img.mu.Unlock()

	end, err := writeHeader(at, img.client, img.pool, img.name, &hdr)
	return id, end, err
}

// Parent returns the clone parent pointer, or nil for a non-layered
// (or already flattened) image.
func (img *Image) Parent() *ParentSpec {
	img.mu.Lock()
	defer img.mu.Unlock()
	if img.hdr.Parent == nil {
		return nil
	}
	p := *img.hdr.Parent
	return &p
}

// SetParent persists the clone parent pointer. It refuses to re-link an
// image that already has a parent (layer chains are built by cloning
// clones, never by rewriting a link).
func (img *Image) SetParent(at vtime.Time, p ParentSpec) (vtime.Time, error) {
	img.mu.Lock()
	if img.hdr.Parent != nil {
		img.mu.Unlock()
		return at, fmt.Errorf("%w: image %s already has a parent", ErrExists, img.name)
	}
	img.hdr.Parent = &p
	hdr := img.hdr
	img.mu.Unlock()
	return writeHeader(at, img.client, img.pool, img.name, &hdr)
}

// RemoveParent severs the clone parent pointer — the final step of a
// flatten, after every inherited block has been copied into the child.
// Removing an absent pointer is a no-op (flatten resume idempotence).
func (img *Image) RemoveParent(at vtime.Time) (vtime.Time, error) {
	img.mu.Lock()
	if img.hdr.Parent == nil {
		img.mu.Unlock()
		return at, nil
	}
	img.hdr.Parent = nil
	hdr := img.hdr
	img.mu.Unlock()
	return writeHeader(at, img.client, img.pool, img.name, &hdr)
}

// Remove deletes an image: every data object, then the header. Snapshot
// clones held at the OSDs are deleted with their head objects. It is the
// caller's job to ensure no clone still references the image as parent.
func Remove(at vtime.Time, client *rados.Client, pool, name string) (vtime.Time, error) {
	img, at, err := Open(at, client, pool, name)
	if err != nil {
		return at, err
	}
	objects := (img.Size() + img.ObjectSize() - 1) / img.ObjectSize()
	for idx := int64(0); idx < objects; idx++ {
		res, end, err := client.Operate(at, pool, img.ObjectName(idx), rados.SnapContext{}, 0,
			[]rados.Op{{Kind: rados.OpDelete}})
		if err != nil {
			return at, err
		}
		if res[0].Status != rados.StatusOK && res[0].Status != rados.StatusNotFound {
			return at, res[0].Status.Err()
		}
		at = end
	}
	res, end, err := client.Operate(at, pool, headerObject(name), rados.SnapContext{}, 0,
		[]rados.Op{{Kind: rados.OpDelete}})
	if err != nil {
		return at, err
	}
	return end, res[0].Status.Err()
}

// SetEncryptionBlob persists the encryption container (LUKS header blob)
// in the image metadata.
func (img *Image) SetEncryptionBlob(at vtime.Time, blob []byte) (vtime.Time, error) {
	img.mu.Lock()
	img.hdr.Encryption = append([]byte(nil), blob...)
	hdr := img.hdr
	img.mu.Unlock()
	return writeHeader(at, img.client, img.pool, img.name, &hdr)
}

// EncryptionBlob returns the stored encryption container, if any.
func (img *Image) EncryptionBlob() []byte {
	img.mu.Lock()
	defer img.mu.Unlock()
	return append([]byte(nil), img.hdr.Encryption...)
}

// ObjectFor maps an image offset to its object index and intra-object
// offset.
func (img *Image) ObjectFor(off int64) (idx, objOff int64) {
	os := img.ObjectSize()
	return off / os, off % os
}

// ObjectName returns the RADOS object name for an object index.
func (img *Image) ObjectName(idx int64) string { return dataObject(img.name, idx) }

// Operate issues ops against one data object with the image's snap
// context; core's layouts use this to attach IV placement ops.
func (img *Image) Operate(at vtime.Time, objIdx int64, snapID uint64, ops []rados.Op) ([]rados.Result, vtime.Time, error) {
	return img.client.Operate(at, img.pool, img.ObjectName(objIdx), img.SnapContext(), snapID, ops)
}

// Replicas returns the OSDs holding one data object's replicas,
// primary first — the iteration domain for scrub's replica repair.
func (img *Image) Replicas(objIdx int64) []int {
	return img.client.ReplicasFor(img.pool, img.ObjectName(objIdx))
}

// OperateOn issues ops against one data object directly at a specific
// OSD (one of Replicas), bypassing primary routing — the scrub/repair
// surface for reading individual copies. See rados.Client.OperateOn
// for the direct-mutation semantics.
func (img *Image) OperateOn(at vtime.Time, osd int, objIdx int64, snapID uint64, ops []rados.Op) ([]rados.Result, vtime.Time, error) {
	return img.client.OperateOn(at, osd, img.pool, img.ObjectName(objIdx), img.SnapContext(), snapID, ops)
}

// OperateHeader issues ops against the image's header object. The
// key-lifecycle subsystem keeps its rekey progress records in the header
// OMAP, next to the snapshot table and the encryption container.
func (img *Image) OperateHeader(at vtime.Time, ops []rados.Op) ([]rados.Result, vtime.Time, error) {
	return img.client.Operate(at, img.pool, headerObject(img.name), rados.SnapContext{}, 0, ops)
}

// Extent is one object-aligned piece of an image IO.
type Extent struct {
	ObjIdx int64 // object index
	ObjOff int64 // offset within the object
	Length int64 // bytes covered
	BufOff int64 // offset within the IO buffer
}

// Extents splits an image IO into per-object pieces, validating bounds.
// The encryption layer uses this to plan per-object op vectors.
func (img *Image) Extents(off int64, length int64) ([]Extent, error) {
	if off < 0 || length < 0 || off+length > img.Size() {
		return nil, fmt.Errorf("%w: [%d,+%d) size %d", ErrBounds, off, length, img.Size())
	}
	os := img.ObjectSize()
	var out []Extent
	var done int64
	for done < length {
		idx := (off + done) / os
		objOff := (off + done) % os
		n := os - objOff
		if n > length-done {
			n = length - done
		}
		out = append(out, Extent{ObjIdx: idx, ObjOff: objOff, Length: n, BufOff: done})
		done += n
	}
	return out, nil
}

// WriteAt writes p at off (plaintext images; the encryption layer has its
// own path). Object ops are issued at the same virtual instant; the
// returned time is the latest completion.
func (img *Image) WriteAt(at vtime.Time, p []byte, off int64) (vtime.Time, error) {
	exts, err := img.Extents(off, int64(len(p)))
	if err != nil {
		return at, err
	}
	return img.parallelSnap(at, exts, 0, func(ext Extent) []rados.Op {
		return []rados.Op{{Kind: rados.OpWrite, Off: ext.ObjOff, Data: p[ext.BufOff : ext.BufOff+ext.Length]}}
	}, nil)
}

// ReadAt fills p from off, reading the image head. Holes (unwritten
// objects) read as zeros.
func (img *Image) ReadAt(at vtime.Time, p []byte, off int64) (vtime.Time, error) {
	return img.ReadAtSnap(at, p, off, 0)
}

// ReadAtSnap reads from a snapshot (0 = head). Each extent's read lands
// straight in its slice of p (the in-process Dst fast path); over the
// byte codec the result is copied there instead.
func (img *Image) ReadAtSnap(at vtime.Time, p []byte, off int64, snapID uint64) (vtime.Time, error) {
	exts, err := img.Extents(off, int64(len(p)))
	if err != nil {
		return at, err
	}
	dst := func(ext Extent) []byte { return p[ext.BufOff : ext.BufOff+ext.Length] }
	return img.parallelSnap(at, exts, snapID, func(ext Extent) []rados.Op {
		return []rados.Op{{Kind: rados.OpRead, Off: ext.ObjOff, Len: ext.Length, Dst: dst(ext)}}
	}, func(ext Extent, res []rados.Result) error {
		d := dst(ext)
		switch res[0].Status {
		case rados.StatusOK:
			// Short object reads (beyond object size) are zero-filled.
			n := len(res[0].Data)
			if n == 0 || &res[0].Data[0] != &d[0] {
				n = copy(d, res[0].Data)
			}
			clear(d[n:])
		case rados.StatusNotFound:
			clear(d)
		default:
			return res[0].Status.Err()
		}
		return nil
	})
}

// parallelSnap issues one request per extent, all at the same virtual
// instant, and joins the completions.
func (img *Image) parallelSnap(at vtime.Time, exts []Extent, snapID uint64, build func(Extent) []rados.Op, handle func(Extent, []rados.Result) error) (vtime.Time, error) {
	return vtime.Join(at, len(exts), func(i int) (vtime.Time, error) {
		ext := exts[i]
		res, end, err := img.Operate(at, ext.ObjIdx, snapID, build(ext))
		if err == nil {
			if handle != nil {
				err = handle(ext, res)
			} else {
				err = firstError(res)
			}
		}
		return end, err
	})
}

func firstError(res []rados.Result) error {
	for _, r := range res {
		if err := r.Status.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Marshal helpers for tests and tools.

// EncodeBlockIndex renders a block index as the fixed-width big-endian key
// used for OMAP IVs, so lexicographic order equals numeric order.
func EncodeBlockIndex(idx uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], idx)
	return b[:]
}
