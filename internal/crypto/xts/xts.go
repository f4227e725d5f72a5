// Package xts implements the XTS-AES tweakable block cipher mode of
// IEEE Std 1619 / NIST SP 800-38E, the mode used by LUKS2, dm-crypt,
// BitLocker and FileVault for sector encryption (paper §2.1).
//
// Unlike kernel implementations that derive the 16-byte tweak from the
// sector number only, Encrypt and Decrypt accept an arbitrary tweak so the
// paper's random-IV scheme can feed a random 128-bit value. The
// sector-number convention is available via SectorTweak. Ciphertext
// stealing handles data units that are not a multiple of 16 bytes.
//
// XTS is a narrow-block mode: a plaintext change affects only the 16-byte
// sub-block that contains it (§2.1's leakage discussion). The eme package
// provides the wide-block alternative.
//
// Encrypt on whole-block data units, which is every sector, encrypts
// the tweak and hands the rest to blockmask.AES.EncryptXTS, whose
// assembly masks, advances the tweak and encrypts in registers: sixteen
// blocks per pass with VAES on 256-bit registers, eight per pass with
// AES-NI for the remainder or on a CPU without VAES. Decrypt and
// ciphertext stealing run the per-block loop.
package xts

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/crypto/blockmask"
)

// BlockSize is the cipher block size in bytes.
const BlockSize = 16

// TweakSize is the tweak (IV) size in bytes.
const TweakSize = 16

var (
	// ErrKeySize reports an XTS key that is not 32 or 64 bytes
	// (two AES-128 or two AES-256 keys).
	ErrKeySize = errors.New("xts: key must be 32 or 64 bytes")
	// ErrDataSize reports a data unit shorter than one block.
	ErrDataSize = errors.New("xts: data unit must be at least 16 bytes")
	// ErrOverlap reports a dst that overlaps src without starting at the
	// same byte. Working in place (dst and src the same slice) is legal.
	ErrOverlap = errors.New("xts: dst and src overlap inexactly")
)

// Cipher is an XTS-AES instance. It is safe for concurrent use.
type Cipher struct {
	k1  *blockmask.AES // data encryption key, whole data units (EncryptXTS)
	k1b cipher.Block   // the same key one block at a time (process)
	k2  cipher.Block   // tweak encryption key
}

// NewCipher creates an XTS-AES cipher from the concatenation of the data
// key and the tweak key (each 16 bytes for XTS-AES-128 or 32 bytes for
// XTS-AES-256).
func NewCipher(key []byte) (*Cipher, error) {
	if len(key) != 32 && len(key) != 64 {
		return nil, fmt.Errorf("%w (got %d)", ErrKeySize, len(key))
	}
	half := len(key) / 2
	k1, err := blockmask.NewAES(key[:half])
	if err != nil {
		return nil, err
	}
	k1b, err := aes.NewCipher(key[:half])
	if err != nil {
		return nil, err
	}
	k2, err := aes.NewCipher(key[half:])
	if err != nil {
		return nil, err
	}
	return &Cipher{k1: k1, k1b: k1b, k2: k2}, nil
}

// SectorTweak returns the conventional deterministic tweak for a sector:
// the 64-bit little-endian sector number padded with zeros, as used by
// dm-crypt/LUKS ("plain64" IV).
func SectorTweak(sector uint64) [TweakSize]byte {
	var t [TweakSize]byte
	binary.LittleEndian.PutUint64(t[:8], sector)
	return t
}

// mul2 multiplies a 128-bit value by x in GF(2^128) with the XTS
// little-endian convention (carry out of byte 15 folds back as 0x87 into
// byte 0).
func mul2(t *[TweakSize]byte) {
	var carry byte
	for i := 0; i < TweakSize; i++ {
		next := t[i] >> 7
		t[i] = t[i]<<1 | carry
		carry = next
	}
	if carry != 0 {
		t[0] ^= 0x87
	}
}

// Encrypt encrypts a data unit src into dst (which may be src itself)
// under the given tweak. len(dst) must be at least len(src), and
// len(src) at least one block; ciphertext stealing covers trailing
// partial blocks. A whole-block data unit, which is every sector, is
// one tweak encryption and one k1.EncryptXTS call, with the masking and
// the tweak advance fused into the assembly: a 4 KiB sector is sixteen
// passes of sixteen blocks with VAES, thirty-two of eight with AES-NI
// alone.
func (c *Cipher) Encrypt(dst, src []byte, tweak [TweakSize]byte) error {
	if err := checkArgs(dst, src); err != nil {
		return err
	}
	if len(src)%BlockSize == 0 {
		s := scratchPool.Get().(*scratch)
		s.tw = tweak
		c.k2.Encrypt(s.t[:], s.tw[:])
		c.k1.EncryptXTS(dst[:len(src)], src, &s.t)
		scratchPool.Put(s)
		return nil
	}
	return c.process(dst, src, tweak, true)
}

// Decrypt reverses Encrypt. It stays on the per-block loop, one
// crypto/aes call per block: a faster open moves the benchmark's
// virtual-clock percentiles on small reads (ROADMAP item 2(i)). Moving
// it over is the switch Encrypt makes, with k1.DecryptXTS (the
// eight-block AES-NI pass; there is no VAES decrypt pass), which the
// tests already hold to this loop.
func (c *Cipher) Decrypt(dst, src []byte, tweak [TweakSize]byte) error {
	if err := checkArgs(dst, src); err != nil {
		return err
	}
	return c.process(dst, src, tweak, false)
}

func checkArgs(dst, src []byte) error {
	if len(src) < BlockSize {
		return fmt.Errorf("%w (got %d)", ErrDataSize, len(src))
	}
	if len(dst) < len(src) {
		return errors.New("xts: dst shorter than src")
	}
	if blockmask.InexactOverlap(dst[:len(src)], src) {
		return ErrOverlap
	}
	return nil
}

// scratch holds the per-call tweak and block state. It is pooled rather
// than stack-allocated because the arrays are passed into cipher.Block
// interface methods, which makes them escape — one heap allocation per
// sector — and the sector path must be allocation-free in steady state.
type scratch struct {
	tw, t, t2, x, tail, pp, cc [BlockSize]byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (c *Cipher) process(dst, src []byte, tweak [TweakSize]byte, enc bool) error {
	if len(src) < BlockSize {
		return fmt.Errorf("%w (got %d)", ErrDataSize, len(src))
	}
	if len(dst) < len(src) {
		return errors.New("xts: dst shorter than src")
	}
	s0 := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s0)
	t, x := &s0.t, &s0.x
	// Copy the tweak into the pooled scratch before handing it to the
	// cipher.Block interface; a param slice would escape (allocate).
	s0.tw = tweak
	c.k2.Encrypt(t[:], s0.tw[:])

	full := len(src) / BlockSize
	rem := len(src) % BlockSize
	steal := rem != 0

	blocks := full
	if steal {
		blocks = full - 1 // the final full block participates in stealing
	}

	for i := 0; i < blocks; i++ {
		s := src[i*BlockSize : (i+1)*BlockSize]
		d := dst[i*BlockSize : (i+1)*BlockSize]
		xorBlock(x, s, t)
		if enc {
			c.k1b.Encrypt(x[:], x[:])
		} else {
			c.k1b.Decrypt(x[:], x[:])
		}
		xorInto(d, x, t)
		mul2(t)
	}

	if !steal {
		return nil
	}

	// Ciphertext stealing for the trailing partial block (IEEE 1619 §5.3).
	// The tail is copied up front because dst may alias src.
	m := blocks // index of the last full block
	tail, pp, cc, t2 := &s0.tail, &s0.pp, &s0.cc, &s0.t2
	clear(tail[:])
	copy(tail[:rem], src[(m+1)*BlockSize:])
	if enc {
		// CC = E(Pm) under tweak m; the stolen head of CC becomes the
		// final partial ciphertext; the last full block is
		// E(tail || rest of CC) under tweak m+1.
		xorBlock(x, src[m*BlockSize:(m+1)*BlockSize], t)
		c.k1b.Encrypt(x[:], x[:])
		xorIntoSelf(x, t)
		copy(cc[:], x[:])
		copy(pp[:rem], tail[:rem])
		copy(pp[rem:], cc[rem:])
		copy(dst[(m+1)*BlockSize:], cc[:rem]) // stolen head
		*t2 = *t
		mul2(t2)
		xorBlock(x, pp[:], t2)
		c.k1b.Encrypt(x[:], x[:])
		xorInto(dst[m*BlockSize:(m+1)*BlockSize], x, t2)
	} else {
		// Mirror image: decrypt the last full block under tweak m+1 first.
		*t2 = *t
		mul2(t2)
		xorBlock(x, src[m*BlockSize:(m+1)*BlockSize], t2)
		c.k1b.Decrypt(x[:], x[:])
		xorIntoSelf(x, t2)
		copy(pp[:], x[:])
		copy(cc[:rem], tail[:rem])
		copy(cc[rem:], pp[rem:])
		copy(dst[(m+1)*BlockSize:], pp[:rem])
		xorBlock(x, cc[:], t)
		c.k1b.Decrypt(x[:], x[:])
		xorInto(dst[m*BlockSize:(m+1)*BlockSize], x, t)
	}
	return nil
}

func xorBlock(dst *[BlockSize]byte, src []byte, t *[TweakSize]byte) {
	for i := 0; i < BlockSize; i++ {
		dst[i] = src[i] ^ t[i]
	}
}

func xorInto(dst []byte, x *[BlockSize]byte, t *[TweakSize]byte) {
	for i := 0; i < BlockSize; i++ {
		dst[i] = x[i] ^ t[i]
	}
}

func xorIntoSelf(x *[BlockSize]byte, t *[TweakSize]byte) {
	for i := 0; i < BlockSize; i++ {
		x[i] ^= t[i]
	}
}
