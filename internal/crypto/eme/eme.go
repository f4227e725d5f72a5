// Package eme implements an EME-style wide-block tweakable cipher
// (Encrypt-Mix-Encrypt, Halevi–Rogaway), the construction family behind
// the IEEE 1619.2 wide-block standards (EME2-AES) discussed in §2.2 of
// the paper as a mitigation: with a wide-block cipher, every plaintext
// bit influences the whole sector, so a deterministic overwrite only
// reveals whether the *entire sector* changed, not which 16-byte
// sub-block.
//
// The implementation follows the classic two-pass ECB–mix–ECB structure
// with tweak mixing. IEEE 1619.2 test vectors are not available offline,
// so this package is validated by construction properties instead:
// exact invertibility for every length, and full-block diffusion (see the
// tests). Treat it as a faithful behavioural stand-in rather than an
// interoperable EME2 implementation — DESIGN.md records this substitution.
//
// The classical EME security bound holds for up to 128 AES blocks
// (2048 bytes); this implementation accepts up to 512 blocks so it can
// cover 4 KiB sectors the way EME2 does, trading the proof bound for the
// paper's use case.
package eme

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/crypto/blockmask"
)

// BlockSize is the underlying AES block size.
const BlockSize = 16

// MaxBlocks bounds the data unit length.
const MaxBlocks = 512

// TweakSize is the tweak size in bytes.
const TweakSize = 16

var (
	// ErrDataSize reports an unsupported data unit length.
	ErrDataSize = errors.New("eme: data must be a multiple of 16 bytes, between 16 and 8192")
	// ErrOverlap reports a dst that overlaps src without starting at the
	// same byte. Working in place (dst and src the same slice) is legal.
	ErrOverlap = errors.New("eme: dst and src overlap inexactly")
)

// Cipher is a wide-block cipher instance. It is safe for concurrent use.
type Cipher struct {
	block *blockmask.AES
	l0    [BlockSize]byte // L = 2·E_K(0)
	// masks is the whitening table L, 2L, 4L, … for the longest data
	// unit. It depends on the key alone, so it is built once here and
	// both ECB passes of every call mask with a prefix of it.
	masks [MaxBlocks * BlockSize]byte
}

// New creates a wide-block cipher from a 16, 24 or 32-byte AES key.
func New(key []byte) (*Cipher, error) {
	b, err := blockmask.NewAES(key)
	if err != nil {
		return nil, err
	}
	c := &Cipher{block: b}
	b.Encrypt(c.l0[:], c.l0[:])
	blockmask.Mul2(&c.l0)
	l := c.l0
	blockmask.Fill(c.masks[:], &l)
	return c, nil
}

func checkArgs(dst, src []byte) error {
	if n := len(src); n < BlockSize || n%BlockSize != 0 || n > MaxBlocks*BlockSize {
		return fmt.Errorf("%w (got %d)", ErrDataSize, n)
	}
	if len(dst) < len(src) {
		return errors.New("eme: dst shorter than src")
	}
	if blockmask.InexactOverlap(dst[:len(src)], src) {
		return ErrOverlap
	}
	return nil
}

// Encrypt computes the wide-block encryption of src into dst (which may
// be src itself) under tweak.
func (c *Cipher) Encrypt(dst, src []byte, tweak [TweakSize]byte) error {
	if err := checkArgs(dst, src); err != nil {
		return err
	}
	c.process(dst[:len(src)], src, tweak, c.block.Encrypt)
	return nil
}

// Decrypt reverses Encrypt.
func (c *Cipher) Decrypt(dst, src []byte, tweak [TweakSize]byte) error {
	if err := checkArgs(dst, src); err != nil {
		return err
	}
	c.process(dst[:len(src)], src, tweak, c.block.Decrypt)
	return nil
}

// scratch holds the per-call working state. It lives on the heap (via a
// sync.Pool) rather than the stack because the buffers are passed to the
// crypt function value, which would force them to escape — and allocate
// — on every call otherwise. Pooling keeps the hot sector path
// allocation-free in the steady state.
type scratch struct {
	table  [MaxBlocks * BlockSize]byte // mix masks M, 2M, 4M, … from block 1 on
	mp, mc [BlockSize]byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// fold returns the XOR of all blocks of buf as two little-endian words.
func fold(buf []byte) (lo, hi uint64) {
	for i := 0; i+BlockSize <= len(buf); i += BlockSize {
		b := buf[i : i+BlockSize : i+BlockSize]
		lo ^= binary.LittleEndian.Uint64(b[:8])
		hi ^= binary.LittleEndian.Uint64(b[8:])
	}
	return lo, hi
}

// process is the transform in either direction (crypt is block.Encrypt
// or block.Decrypt), worked in dst: every step is a whole-data-unit pass
// — XOR with a mask table, AES over every block in place, or a
// word-wide fold — around one single-block AES call for the mix. dst
// and src have equal, valid length and are the same slice or disjoint.
func (c *Cipher) process(dst, src []byte, tweak [TweakSize]byte, crypt func(dst, src []byte)) {
	n := len(src)
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)

	// Pass 1: whiten with the doubling mask and apply ECB.
	subtle.XORBytes(dst, src, c.masks[:n])
	crypt(dst, dst)

	// Mix: fold everything plus the tweak into a mask applied to blocks
	// 2..m; block 1 carries the correction so the transform inverts.
	tlo, thi := binary.LittleEndian.Uint64(tweak[:8]), binary.LittleEndian.Uint64(tweak[8:])
	lo, hi := fold(dst)
	binary.LittleEndian.PutUint64(s.mp[:8], lo^tlo)
	binary.LittleEndian.PutUint64(s.mp[8:], hi^thi)
	crypt(s.mc[:], s.mp[:])
	mclo, mchi := binary.LittleEndian.Uint64(s.mc[:8]), binary.LittleEndian.Uint64(s.mc[8:])

	subtle.XORBytes(s.mp[:], s.mp[:], s.mc[:]) // M = MP ^ MC
	rest := dst[BlockSize:]
	blockmask.Fill(s.table[:len(rest)], &s.mp)
	subtle.XORBytes(rest, rest, s.table[:len(rest)])
	lo, hi = fold(rest)
	binary.LittleEndian.PutUint64(dst[:8], mclo^tlo^lo)
	binary.LittleEndian.PutUint64(dst[8:BlockSize], mchi^thi^hi)

	// Pass 2: ECB and unwhiten.
	crypt(dst, dst)
	subtle.XORBytes(dst, dst, c.masks[:n])
}
