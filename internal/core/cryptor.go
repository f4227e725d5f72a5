package core

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/crypto/eme"
	"repro/internal/crypto/xts"
)

// Scheme selects the per-block cipher construction.
type Scheme int

// Schemes. SchemeLUKS2 is the paper's baseline (deterministic LBA tweak,
// no stored metadata); SchemeXTSRand is the paper's main proposal (random
// 16-byte IV stored per block); SchemeGCM adds authentication (the
// integrity extension of §3.1); the EME schemes are the §2.2 wide-block
// mitigation with and without random IVs.
const (
	SchemeLUKS2 Scheme = iota
	SchemeXTSRand
	SchemeGCM
	SchemeEME2Det
	SchemeEME2Rand
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeLUKS2:
		return "luks2"
	case SchemeXTSRand:
		return "xts-rand"
	case SchemeGCM:
		return "gcm-auth"
	case SchemeEME2Det:
		return "eme2-det"
	case SchemeEME2Rand:
		return "eme2-rand"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// ParseScheme is the inverse of String.
func ParseScheme(s string) (Scheme, error) {
	for _, sc := range []Scheme{SchemeLUKS2, SchemeXTSRand, SchemeGCM, SchemeEME2Det, SchemeEME2Rand} {
		if sc.String() == s {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("core: unknown scheme %q", s)
}

// ErrIntegrity reports failed authentication on an authenticated scheme.
var ErrIntegrity = errors.New("core: sector failed integrity verification")

// cryptor seals and opens one encryption block (4 KiB). The meta buffer
// is the per-sector metadata the paper stores in the virtual disk layout;
// seal receives it pre-filled with fresh randomness (where the scheme
// needs any) and may rewrite parts of it (e.g. the GCM tag).
type cryptor interface {
	metaLen() int
	// randLen is the prefix of meta that must be random at seal time.
	randLen() int
	seal(dst, src []byte, blockIdx uint64, meta []byte) error
	open(dst, src []byte, blockIdx uint64, meta []byte) error
}

// newCryptor builds a scheme's cryptor from the 64-byte master key.
func newCryptor(s Scheme, masterKey []byte) (cryptor, error) {
	if len(masterKey) != 64 {
		return nil, fmt.Errorf("core: master key must be 64 bytes, got %d", len(masterKey))
	}
	switch s {
	case SchemeLUKS2:
		c, err := xts.NewCipher(masterKey)
		if err != nil {
			return nil, err
		}
		return &xtsDet{c: c}, nil
	case SchemeXTSRand:
		c, err := xts.NewCipher(masterKey)
		if err != nil {
			return nil, err
		}
		return &xtsRand{c: c}, nil
	case SchemeGCM:
		blk, err := aes.NewCipher(masterKey[:32])
		if err != nil {
			return nil, err
		}
		aead, err := cipher.NewGCM(blk)
		if err != nil {
			return nil, err
		}
		return &gcmAuth{aead: aead}, nil
	case SchemeEME2Det:
		c, err := eme.New(masterKey[:32])
		if err != nil {
			return nil, err
		}
		return &emeCryptor{c: c, rand: false}, nil
	case SchemeEME2Rand:
		c, err := eme.New(masterKey[:32])
		if err != nil {
			return nil, err
		}
		return &emeCryptor{c: c, rand: true}, nil
	default:
		return nil, fmt.Errorf("core: unknown scheme %d", s)
	}
}

// xtsDet is the LUKS2 baseline: XTS with the block address as tweak.
type xtsDet struct{ c *xts.Cipher }

func (x *xtsDet) metaLen() int { return 0 }
func (x *xtsDet) randLen() int { return 0 }

func (x *xtsDet) seal(dst, src []byte, blockIdx uint64, _ []byte) error {
	return x.c.Encrypt(dst, src, xts.SectorTweak(blockIdx))
}

func (x *xtsDet) open(dst, src []byte, blockIdx uint64, _ []byte) error {
	return x.c.Decrypt(dst, src, xts.SectorTweak(blockIdx))
}

// xtsRand is the paper's proposal: a fresh random 16-byte IV per write.
// The effective tweak mixes in the block address (§2.2: "include the
// sector number as part of the IV") so replaying a sector+IV at another
// address decrypts to garbage.
type xtsRand struct{ c *xts.Cipher }

func (x *xtsRand) metaLen() int { return 16 }
func (x *xtsRand) randLen() int { return 16 }

func tweakFromMeta(meta []byte, blockIdx uint64) [16]byte {
	var t [16]byte
	copy(t[:], meta)
	var lba [8]byte
	binary.LittleEndian.PutUint64(lba[:], blockIdx)
	for i := 0; i < 8; i++ {
		t[i] ^= lba[i]
	}
	return t
}

func (x *xtsRand) seal(dst, src []byte, blockIdx uint64, meta []byte) error {
	return x.c.Encrypt(dst, src, tweakFromMeta(meta, blockIdx))
}

func (x *xtsRand) open(dst, src []byte, blockIdx uint64, meta []byte) error {
	return x.c.Decrypt(dst, src, tweakFromMeta(meta, blockIdx))
}

// gcmAuth provides authenticated encryption: 12-byte random nonce plus
// 16-byte tag in the metadata (28 bytes/block), with the block address as
// associated data so relocation fails authentication.
type gcmAuth struct{ aead cipher.AEAD }

func (g *gcmAuth) metaLen() int { return 28 }
func (g *gcmAuth) randLen() int { return 12 }

// gcmScratch holds the nonce, AAD and ciphertext staging for one
// seal/open. It is pooled because the arrays are passed into the
// cipher.AEAD interface, which would otherwise force a heap escape on
// every 4 KiB block; ct is grown once per block size and then reused
// (only by the separate-metadata layouts: under LayoutUnaligned both
// directions work in place).
type gcmScratch struct {
	nonce [12]byte
	aad   [8]byte
	ct    []byte
}

func (s *gcmScratch) buf(n int) []byte {
	if cap(s.ct) < n {
		s.ct = make([]byte, n)
	}
	return s.ct[:n]
}

var gcmScratchPool = sync.Pool{New: func() any { return new(gcmScratch) }}

func (g *gcmAuth) seal(dst, src []byte, blockIdx uint64, meta []byte) error {
	if len(meta) != 28 {
		return fmt.Errorf("core: gcm needs 28 metadata bytes, got %d", len(meta))
	}
	s := gcmScratchPool.Get().(*gcmScratch)
	defer gcmScratchPool.Put(s)
	copy(s.nonce[:], meta[:12])
	binary.LittleEndian.PutUint64(s.aad[:], blockIdx)
	if cap(dst) >= len(src)+16 && &dst[:len(src)+1][len(src)] == &meta[0] {
		// Layout-aware fast path, taken only when the byte after the
		// ciphertext destination IS the block's own metadata slot (the
		// LayoutUnaligned wire arrangement — spare capacity alone is not
		// authorization to scribble past len(dst)). GCM then seals
		// ciphertext||tag in place — zero copies, zero allocations. The
		// tag lands on meta[0:16]; relocate it to its meta[12:28] home
		// and restore the nonce (copy handles the overlap).
		out := g.aead.Seal(dst[:0], s.nonce[:], src, s.aad[:])
		copy(meta[12:28], out[len(src):])
		copy(meta[:12], s.nonce[:])
		return nil
	}
	// Separate metadata region: seal into pooled scratch, copy out.
	buf := s.buf(len(src) + 16)
	out := g.aead.Seal(buf[:0], s.nonce[:], src, s.aad[:])
	copy(dst, out[:len(src)])
	copy(meta[12:], out[len(src):])
	return nil
}

func (g *gcmAuth) open(dst, src []byte, blockIdx uint64, meta []byte) error {
	if len(meta) != 28 {
		return fmt.Errorf("core: gcm needs 28 metadata bytes, got %d", len(meta))
	}
	s := gcmScratchPool.Get().(*gcmScratch)
	defer gcmScratchPool.Put(s)
	copy(s.nonce[:], meta[:12])
	binary.LittleEndian.PutUint64(s.aad[:], blockIdx)
	var out []byte
	var err error
	if cap(src) >= len(src)+16 && &src[:len(src)+1][len(src)] == &meta[0] {
		// seal's fast path run backwards, under the same authorization:
		// the byte after the ciphertext IS the block's own slot (a fetched
		// LayoutUnaligned stream). Move the tag next to the ciphertext,
		// open ciphertext||tag where it lies, and put the slot back as it
		// was whatever the verdict, so the fetch opens the same way twice.
		copy(meta[:16], meta[12:28])
		out, err = g.aead.Open(dst[:0], s.nonce[:], src[:len(src)+16], s.aad[:])
		copy(meta[12:28], meta[:16])
		copy(meta[:12], s.nonce[:])
	} else {
		// Separate metadata region: stage ciphertext||tag in pooled scratch.
		ct := s.buf(len(src) + 16)
		n := copy(ct, src)
		copy(ct[n:], meta[12:28])
		out, err = g.aead.Open(dst[:0], s.nonce[:], ct, s.aad[:])
	}
	if err != nil {
		return fmt.Errorf("%w: block %d", ErrIntegrity, blockIdx)
	}
	if len(out) != len(src) {
		return fmt.Errorf("%w: block %d length", ErrIntegrity, blockIdx)
	}
	return nil
}

// emeCryptor is the wide-block mode, deterministic or with a random IV.
type emeCryptor struct {
	c    *eme.Cipher
	rand bool
}

func (e *emeCryptor) metaLen() int {
	if e.rand {
		return 16
	}
	return 0
}

func (e *emeCryptor) randLen() int { return e.metaLen() }

func (e *emeCryptor) tweak(blockIdx uint64, meta []byte) [16]byte {
	if e.rand {
		return tweakFromMeta(meta, blockIdx)
	}
	var t [16]byte
	binary.LittleEndian.PutUint64(t[:8], blockIdx)
	return t
}

func (e *emeCryptor) seal(dst, src []byte, blockIdx uint64, meta []byte) error {
	return e.c.Encrypt(dst, src, e.tweak(blockIdx, meta))
}

func (e *emeCryptor) open(dst, src []byte, blockIdx uint64, meta []byte) error {
	return e.c.Decrypt(dst, src, e.tweak(blockIdx, meta))
}
