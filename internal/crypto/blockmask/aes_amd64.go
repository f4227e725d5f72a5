package blockmask

import (
	"encoding/binary"
	"math/bits"
)

// hasAESNI is CPUID leaf 1, ECX bit 25, read once.
var hasAESNI = cpuidAES()

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

// cpuidAES reports whether the CPU has the AES-NI instructions.
func cpuidAES() bool

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

// decryptXTS is encryptXTS with AESDEC and the decryption round keys.
//
//go:noescape
func decryptXTS(rounds int, xk *uint32, dst, src *byte, n int, t *[BlockSize]byte)
