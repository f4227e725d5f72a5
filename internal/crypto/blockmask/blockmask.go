// Package blockmask holds the primitives the sector-batched cipher
// kernels of xts and eme share: doubling in GF(2^128), tables of
// successive doublings laid out block after block so that a whole data
// unit is masked by one subtle.XORBytes pass, the AES that encrypts or
// decrypts a whole buffer of blocks between two such passes (eight
// blocks per pass with AES-NI), the XTS pass that fuses masking and
// doubling into that AES loop, and the aliasing rule both packages
// enforce before they start (DESIGN.md, "Cipher kernels").
package blockmask

import (
	"encoding/binary"
	"unsafe"
)

// BlockSize is the AES block size, the unit of every table and loop here.
const BlockSize = 16

// double multiplies the 128-bit value hi:lo by x in GF(2^128) with the
// little-endian convention of IEEE 1619 (the carry out of bit 127 folds
// back as 0x87 into the low byte).
func double(lo, hi uint64) (uint64, uint64) {
	return lo<<1 ^ (hi>>63)*0x87, hi<<1 | lo>>63
}

// Mul2 doubles v in place.
func Mul2(v *[BlockSize]byte) {
	lo, hi := double(binary.LittleEndian.Uint64(v[:8]), binary.LittleEndian.Uint64(v[8:]))
	binary.LittleEndian.PutUint64(v[:8], lo)
	binary.LittleEndian.PutUint64(v[8:], hi)
}

// Fill writes v, 2v, 4v, … into the successive blocks of table (whose
// length must be a multiple of BlockSize) and leaves in v the value that
// follows the last one written, so a caller working in strides continues
// the chain by calling Fill again.
func Fill(table []byte, v *[BlockSize]byte) {
	lo, hi := binary.LittleEndian.Uint64(v[:8]), binary.LittleEndian.Uint64(v[8:])
	for i := 0; i+BlockSize <= len(table); i += BlockSize {
		b := table[i : i+BlockSize : i+BlockSize]
		binary.LittleEndian.PutUint64(b[:8], lo)
		binary.LittleEndian.PutUint64(b[8:], hi)
		lo, hi = double(lo, hi)
	}
	binary.LittleEndian.PutUint64(v[:8], lo)
	binary.LittleEndian.PutUint64(v[8:], hi)
}

// InexactOverlap reports whether dst and src share memory without
// starting at the same byte. Exact aliasing is how callers work in
// place and every pass here handles it; a partial overlap would have a
// pass overwrite input it has not read yet (and makes subtle.XORBytes
// panic), so the ciphers reject it up front.
func InexactOverlap(dst, src []byte) bool {
	if len(dst) == 0 || len(src) == 0 || &dst[0] == &src[0] {
		return false
	}
	d, s := uintptr(unsafe.Pointer(&dst[0])), uintptr(unsafe.Pointer(&src[0]))
	return d < s+uintptr(len(src)) && s < d+uintptr(len(dst))
}
