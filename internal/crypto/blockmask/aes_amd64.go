package blockmask

import (
	"encoding/binary"
	"math/bits"
)

// hostKernel is the fastest kernel this CPU runs, read once.
var hostKernel = detect()

// detect reads the CPU's features. AES-NI is CPUID leaf 1, ECX bit 25.
// The VAES pass needs AVX2 (leaf 7, EBX bit 5), VAES and VPCLMULQDQ
// (leaf 7, ECX bits 9 and 10), and the OS saving the YMM registers:
// OSXSAVE and AVX (leaf 1, ECX bits 27 and 28), then XCR0 bits 1 and 2.
func detect() kernel {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, c1, _ := cpuid(1, 0)
	if c1&(1<<25) == 0 {
		return generic
	}
	const osxsaveAVX = 1<<27 | 1<<28
	if maxLeaf < 7 || c1&osxsaveAVX != osxsaveAVX || xgetbv()&6 != 6 {
		return aesni
	}
	_, b7, c7, _ := cpuid(7, 0)
	if b7&(1<<5) == 0 || c7&(1<<9) == 0 || c7&(1<<10) == 0 {
		return aesni
	}
	return vaes
}

// expandKey fills enc with the FIPS-197 §5.2 key schedule and dec with
// the equivalent inverse cipher's (§5.3.5), which AESDEC expects. Words
// are little-endian, so RotWord is a right rotation by a byte and Rcon
// goes into the low byte. SubWord is AESENCLAST, so no table is indexed
// by key bytes and the schedule runs in constant time.
func (a *AES) expandKey(key []byte) {
	nk, n := len(key)/4, 4*(a.rounds+1)
	enc := a.enc[:n]
	for i := range nk {
		enc[i] = binary.LittleEndian.Uint32(key[4*i:])
	}
	rcon := uint32(1)
	for i := nk; i < n; i++ {
		t := enc[i-1]
		switch {
		case i%nk == 0:
			t = subWord(bits.RotateLeft32(t, -8)) ^ rcon
			rcon = rcon<<1&0xff ^ (rcon>>7)*0x1b
		case nk > 6 && i%nk == 4:
			t = subWord(t)
		}
		enc[i] = enc[i-nk] ^ t
	}
	copy(a.dec[:4], enc[n-4:])
	for r := 1; r < a.rounds; r++ {
		invMixColumns(&a.dec[4*r], &enc[4*(a.rounds-r)])
	}
	copy(a.dec[n-4:n], enc[:4])
}

// cpuid runs CPUID with EAX=leaf and ECX=sub.
func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// xgetbv returns the low word of XCR0, the register state the OS saves.
// Only call it when CPUID reports OSXSAVE.
func xgetbv() uint32

// subWord applies the S-box to each byte of w.
//
//go:noescape
func subWord(w uint32) uint32

// invMixColumns writes InvMixColumns of the round key at src to dst.
//
//go:noescape
func invMixColumns(dst, src *uint32)

// encryptBlocks encrypts n blocks of src into dst under the rounds+1
// round keys at xk, eight blocks per pass and then one at a time.
//
//go:noescape
func encryptBlocks(rounds int, xk *uint32, dst, src *byte, n int)

// decryptBlocks is encryptBlocks with AESDEC and the decryption round
// keys.
//
//go:noescape
func decryptBlocks(rounds int, xk *uint32, dst, src *byte, n int)

// encryptXTS is the XTS-AES whole-block pass: each block of src is
// masked with the tweak at t, encrypted and masked again into dst, and
// the tweak doubled; t is left at the tweak after the last block. Eight
// blocks go per pass, then one at a time.
//
//go:noescape
func encryptXTS(rounds int, xk *uint32, dst, src *byte, n int, t *[BlockSize]byte)

// encryptXTS16 is encryptXTS with 256-bit VAES, sixteen blocks per
// pass; n must be a positive multiple of 16.
//
//go:noescape
func encryptXTS16(rounds int, xk *uint32, dst, src *byte, n int, t *[BlockSize]byte)

// decryptXTS is encryptXTS with AESDEC and the decryption round keys.
//
//go:noescape
func decryptXTS(rounds int, xk *uint32, dst, src *byte, n int, t *[BlockSize]byte)
