package blockmask

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
)

// AES is an AES key that encrypts and decrypts whole buffers of blocks:
// the ECB pass eme runs between its masking passes, and the XTS pass
// with the masking fused in. On amd64 with AES-NI it runs eight blocks
// per pass through the rounds (aes_amd64.s) on round keys expanded once
// here, and with VAES it seals XTS sixteen blocks per pass on 256-bit
// registers; elsewhere it loops over crypto/aes one block at a time. It
// is safe for concurrent use.
type AES struct {
	kernel kernel // the passes this key runs on
	// rounds is 10, 12 or 14 on the assembly kernels and 0 on the
	// generic one, which loops over block instead.
	rounds   int
	enc, dec [4 * 15]uint32 // round keys, in the byte order AESENC reads
	block    cipher.Block
}

// kernel is one way to run the passes. Each needs the CPU features of
// the one before it.
type kernel uint8

const (
	generic kernel = iota // crypto/aes, one block at a time
	aesni                 // the eight-block AES-NI passes
	vaes                  // aesni, but EncryptXTS's whole 16-block groups in the VAES pass
)

// NewAES returns the primitive for a 16, 24 or 32-byte key on the
// fastest kernel the CPU runs.
func NewAES(key []byte) (*AES, error) {
	return newAES(key, hostKernel)
}

// newAES is NewAES on the kernel k, which must not be above
// hostKernel. crypto/aes checks the key size.
func newAES(key []byte, k kernel) (*AES, error) {
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	a := &AES{kernel: k, block: b}
	if k != generic {
		a.rounds = len(key)/4 + 6
		a.expandKey(key)
	}
	return a, nil
}

// Encrypt encrypts the blocks of src into dst. len(src) must be a
// multiple of BlockSize, dst at least as long, and dst and src the same
// slice or disjoint.
func (a *AES) Encrypt(dst, src []byte) {
	if n := checkBlocks(dst, src); n > 0 && a.rounds != 0 {
		encryptBlocks(a.rounds, &a.enc[0], &dst[0], &src[0], n)
		return
	}
	for i := 0; i < len(src); i += BlockSize {
		a.block.Encrypt(dst[i:i+BlockSize], src[i:i+BlockSize])
	}
}

// Decrypt reverses Encrypt under the same rules.
func (a *AES) Decrypt(dst, src []byte) {
	if n := checkBlocks(dst, src); n > 0 && a.rounds != 0 {
		decryptBlocks(a.rounds, &a.dec[0], &dst[0], &src[0], n)
		return
	}
	for i := 0; i < len(src); i += BlockSize {
		a.block.Decrypt(dst[i:i+BlockSize], src[i:i+BlockSize])
	}
}

// EncryptXTS is XTS-AES (IEEE 1619) over the whole blocks of src into
// dst, under Encrypt's buffer rules: block i is masked with t·xⁱ,
// encrypted, and masked again. t is the encrypted tweak on entry and
// is left at the mask that follows the last block, so a data unit split
// across calls chains. With AES-NI the masking and the doubling run in
// the assembly's eight-block pass; with VAES whole 16-block groups go
// through the sixteen-block pass first and the rest through the
// eight-block one. Otherwise the masks are laid out with Fill and
// applied with subtle.XORBytes around Encrypt.
func (a *AES) EncryptXTS(dst, src []byte, t *[BlockSize]byte) {
	if n := checkBlocks(dst, src); n > 0 && a.rounds != 0 {
		if g := n &^ 15; g > 0 && a.kernel == vaes {
			encryptXTS16(a.rounds, &a.enc[0], &dst[0], &src[0], g, t)
			dst, src, n = dst[g*BlockSize:], src[g*BlockSize:], n-g
		}
		if n > 0 {
			encryptXTS(a.rounds, &a.enc[0], &dst[0], &src[0], n, t)
		}
		return
	}
	xtsGeneric(dst, src, t, a.Encrypt)
}

// DecryptXTS reverses EncryptXTS under the same rules and the same t.
func (a *AES) DecryptXTS(dst, src []byte, t *[BlockSize]byte) {
	if n := checkBlocks(dst, src); n > 0 && a.rounds != 0 {
		decryptXTS(a.rounds, &a.dec[0], &dst[0], &src[0], n, t)
		return
	}
	xtsGeneric(dst, src, t, a.Decrypt)
}

// xtsStride is how much of a data unit the generic XTS pass masks per
// table: 32 blocks, on the stack.
const xtsStride = 32 * BlockSize

// xtsGeneric is the XTS pass without the assembly, stride by stride:
// lay out the masks, mask with one XOR pass, run crypt in place, and
// mask again.
func xtsGeneric(dst, src []byte, t *[BlockSize]byte, crypt func(dst, src []byte)) {
	var table [xtsStride]byte
	for len(src) > 0 {
		n := min(len(src), xtsStride)
		Fill(table[:n], t)
		subtle.XORBytes(dst[:n], src[:n], table[:n])
		crypt(dst[:n], dst[:n])
		subtle.XORBytes(dst[:n], dst[:n], table[:n])
		dst, src = dst[n:], src[n:]
	}
}

// checkBlocks enforces the buffer rules with cipher.Block's panics and
// returns the number of blocks.
func checkBlocks(dst, src []byte) int {
	if len(src)%BlockSize != 0 {
		panic("blockmask: input not whole blocks")
	}
	if len(dst) < len(src) {
		panic("blockmask: output smaller than input")
	}
	if InexactOverlap(dst[:len(src)], src) {
		panic("blockmask: invalid buffer overlap")
	}
	return len(src) / BlockSize
}
