package core

// alloc.go is the per-object allocation sidecar for the metadata-free
// schemes (luks2, eme2-det). Those schemes store no per-block bytes in
// the data path, so — exactly as the ROADMAP's sparse-read item and the
// paper's dm-crypt comparison observe — they cannot otherwise tell a
// written block from an interior hole, and they have nowhere to hang a
// key-epoch tag. The sidecar is a small object attribute (one KV entry,
// like OMAP metadata it consumes no data-path sectors) holding an
// allocation bitmap plus per-block epoch ids, written atomically in the
// same RADOS transaction as the data it describes. It restores exact
// sparse reads, powers crypto-erase Discard, and lets the rekey walker
// know each block's epoch.

import (
	"encoding/binary"
	"fmt"
)

// allocAttr is the object attribute carrying the sidecar.
const allocAttr = "core.alloc"

// errNoSidecar reports a metadata-free object that exists without its
// sidecar: which of its blocks hold data, and under which epoch, is
// unknown, so every fetch and sidecar update of it fails loudly.
var errNoSidecar = fmt.Errorf("%w: object exists without its allocation sidecar", ErrIntegrity)

const (
	allocVersion     = 1
	allocFlagUniform = 1 << 0 // single epoch value covers every block
)

// objAlloc is the decoded sidecar: presence bit and epoch per block.
type objAlloc struct {
	nb     int64
	bits   []byte // ceil(nb/8), bit set = block written
	epochs []uint32
}

func newObjAlloc(nb int64) *objAlloc {
	return &objAlloc{nb: nb, bits: make([]byte, (nb+7)/8), epochs: make([]uint32, nb)}
}

func (a *objAlloc) present(b int64) bool { return a.bits[b/8]&(1<<(b%8)) != 0 }

func (a *objAlloc) set(b int64, epoch uint32) {
	a.bits[b/8] |= 1 << (b % 8)
	a.epochs[b] = epoch
}

func (a *objAlloc) clearBlock(b int64) {
	a.bits[b/8] &^= 1 << (b % 8)
	a.epochs[b] = 0
}

func (a *objAlloc) epoch(b int64) uint32 { return a.epochs[b] }

// anyPresent reports whether any block in [lo, hi) is allocated.
func (a *objAlloc) anyPresent(lo, hi int64) bool {
	for b := lo; b < hi; b++ {
		if a.present(b) {
			return true
		}
	}
	return false
}

// encode serializes the sidecar. When every block shares one epoch (the
// steady state outside a rekey transition) the epoch array collapses to
// a single value, so the attribute written with every metadata-free IO
// stays a few dozen bytes instead of 4 bytes per block.
func (a *objAlloc) encode() []byte {
	uniform := true
	var e0 uint32
	for b := int64(0); b < a.nb; b++ {
		if a.present(b) {
			e0 = a.epochs[b]
			break
		}
	}
	for b := int64(0); b < a.nb; b++ {
		if a.present(b) && a.epochs[b] != e0 {
			uniform = false
			break
		}
	}
	flags := byte(0)
	n := 2 + 4 + len(a.bits)
	if uniform {
		flags |= allocFlagUniform
		n += 4
	} else {
		n += 4 * int(a.nb)
	}
	out := make([]byte, 0, n)
	out = append(out, allocVersion, flags)
	out = binary.LittleEndian.AppendUint32(out, uint32(a.nb))
	out = append(out, a.bits...)
	if uniform {
		out = binary.LittleEndian.AppendUint32(out, e0)
	} else {
		for _, e := range a.epochs {
			out = binary.LittleEndian.AppendUint32(out, e)
		}
	}
	return out
}

// decodeObjAlloc parses a sidecar blob for an object of nb blocks.
func decodeObjAlloc(raw []byte, nb int64) (*objAlloc, error) {
	if len(raw) < 6 || raw[0] != allocVersion {
		return nil, fmt.Errorf("core: corrupt alloc sidecar (%d bytes)", len(raw))
	}
	flags := raw[1]
	if got := int64(binary.LittleEndian.Uint32(raw[2:6])); got != nb {
		return nil, fmt.Errorf("core: alloc sidecar covers %d blocks, object has %d", got, nb)
	}
	bl := int((nb + 7) / 8)
	body := raw[6:]
	if len(body) < bl {
		return nil, fmt.Errorf("core: truncated alloc bitmap")
	}
	a := newObjAlloc(nb)
	copy(a.bits, body[:bl])
	body = body[bl:]
	if flags&allocFlagUniform != 0 {
		if len(body) < 4 {
			return nil, fmt.Errorf("core: truncated alloc epoch")
		}
		e0 := binary.LittleEndian.Uint32(body)
		for b := int64(0); b < nb; b++ {
			if a.present(b) {
				a.epochs[b] = e0
			}
		}
		return a, nil
	}
	if len(body) < 4*int(nb) {
		return nil, fmt.Errorf("core: truncated alloc epoch array")
	}
	for b := int64(0); b < nb; b++ {
		a.epochs[b] = binary.LittleEndian.Uint32(body[4*b:])
	}
	return a, nil
}
