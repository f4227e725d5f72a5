//go:build !amd64

package blockmask

// Without the amd64 assembly every AES takes the generic path, so the
// functions below are never reached.
const hasAESNI = false

func (a *AES) expandKey(key []byte) { panic("blockmask: no AES assembly on this GOARCH") }

func encryptBlocks(rounds int, xk *uint32, dst, src *byte, n int) {
	panic("blockmask: no AES assembly on this GOARCH")
}

func decryptBlocks(rounds int, xk *uint32, dst, src *byte, n int) {
	panic("blockmask: no AES assembly on this GOARCH")
}

func encryptXTS(rounds int, xk *uint32, dst, src *byte, n int, t *[BlockSize]byte) {
	panic("blockmask: no AES assembly on this GOARCH")
}

func decryptXTS(rounds int, xk *uint32, dst, src *byte, n int, t *[BlockSize]byte) {
	panic("blockmask: no AES assembly on this GOARCH")
}
