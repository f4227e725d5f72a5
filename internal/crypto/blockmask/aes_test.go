package blockmask

import (
	"bytes"
	"crypto/aes"
	"encoding/hex"
	"testing"
)

// path is one way to build the primitive.
type path struct {
	name string
	asm  bool
}

// paths is every way to build the primitive on this host: the generic
// loop always, the assembly when the CPU has AES-NI.
func paths() []path {
	p := []path{{"generic", false}}
	if hasAESNI {
		p = append(p, path{"asm", true})
	}
	return p
}

func mustAES(t testing.TB, k []byte, asm bool) *AES {
	t.Helper()
	a, err := newAES(k, asm)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func unhex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// FIPS-197 Appendix C.1–C.3: one block under AES-128, -192 and -256.
func TestAESKnownAnswers(t *testing.T) {
	pt := unhex("00112233445566778899aabbccddeeff")
	for _, tc := range []struct {
		name, k, ct string
	}{
		{"C.1 AES-128", "000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"},
		{"C.2 AES-192", "000102030405060708090a0b0c0d0e0f1011121314151617", "dda97ca4864cdfe06eaf70a0ec0d7191"},
		{"C.3 AES-256", "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f", "8ea2b7ca516745bfeafc49904b496089"},
	} {
		for _, p := range paths() {
			a := mustAES(t, unhex(tc.k), p.asm)
			got := make([]byte, BlockSize)
			a.Encrypt(got, pt)
			if want := unhex(tc.ct); !bytes.Equal(got, want) {
				t.Errorf("%s %s: encrypt %x, want %x", tc.name, p.name, got, want)
			}
			a.Decrypt(got, got)
			if !bytes.Equal(got, pt) {
				t.Errorf("%s %s: decrypt %x, want %x", tc.name, p.name, got, pt)
			}
		}
	}
}

// checkAgainstBlock holds the primitive, on both paths, in place and out
// of place (into a dst with no spare capacity), to crypto/aes one block
// at a time, in both directions.
func checkAgainstBlock(t *testing.T, k, data []byte) {
	t.Helper()
	ref, err := aes.NewCipher(k)
	if err != nil {
		t.Fatal(err)
	}
	n := len(data)
	wantEnc, wantDec := make([]byte, n), make([]byte, n)
	for i := 0; i < n; i += BlockSize {
		ref.Encrypt(wantEnc[i:i+BlockSize], data[i:i+BlockSize])
		ref.Decrypt(wantDec[i:i+BlockSize], data[i:i+BlockSize])
	}
	for _, p := range paths() {
		a := mustAES(t, k, p.asm)
		for _, d := range []struct {
			name string
			op   func(dst, src []byte)
			want []byte
		}{{"Encrypt", a.Encrypt, wantEnc}, {"Decrypt", a.Decrypt, wantDec}} {
			got := make([]byte, n)
			d.op(got, data)
			if !bytes.Equal(got, d.want) {
				t.Fatalf("%s %s, %d blocks, %d-byte key: diverges from crypto/aes", p.name, d.name, n/BlockSize, len(k))
			}
			inplace := bytes.Clone(data)
			d.op(inplace, inplace)
			if !bytes.Equal(inplace, d.want) {
				t.Fatalf("%s %s, %d blocks, %d-byte key: in place diverges", p.name, d.name, n/BlockSize, len(k))
			}
		}
	}
}

// One to 31 blocks covers the eight-way body zero to three times and
// every tail length after it.
func TestAESMatchesBlockLoop(t *testing.T) {
	for _, size := range []int{16, 24, 32} {
		for blocks := 1; blocks <= 31; blocks++ {
			seed := byte(size + blocks)
			k := bytes.Repeat([]byte{seed}, size)
			for i := range k {
				k[i] ^= byte(i * 37)
			}
			data := make([]byte, blocks*BlockSize)
			for i := range data {
				data[i] = byte(i*131) ^ seed
			}
			checkAgainstBlock(t, k, data)
		}
	}
}

func TestAESRejects(t *testing.T) {
	for _, p := range paths() {
		for _, size := range []int{0, 8, 17, 31, 33, 64} {
			if _, err := newAES(make([]byte, size), p.asm); err == nil {
				t.Errorf("%s: %d-byte key accepted", p.name, size)
			}
		}
		a := mustAES(t, make([]byte, 16), p.asm)
		buf := make([]byte, 64)
		for name, f := range map[string]func(){
			"partial block":   func() { a.Encrypt(buf[:17], buf[:17]) },
			"short dst":       func() { a.Decrypt(buf[:16], buf[16:48]) },
			"inexact overlap": func() { a.Encrypt(buf[16:48], buf[:32]) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s did not panic", p.name, name)
					}
				}()
				f()
			}()
		}
		a.Encrypt(buf[:0], buf[:0]) // no blocks is a no-op
	}
}

func TestAESAllocs(t *testing.T) {
	for _, p := range paths() {
		a := mustAES(t, make([]byte, 32), p.asm)
		buf := make([]byte, 4096)
		if n := testing.AllocsPerRun(100, func() {
			a.Encrypt(buf, buf)
			a.Decrypt(buf, buf)
		}); n != 0 {
			t.Fatalf("%s: 4 KiB Encrypt+Decrypt allocates %v times", p.name, n)
		}
	}
}

func FuzzAESBlocks(f *testing.F) {
	f.Add(make([]byte, 16), make([]byte, 16))
	f.Add(bytes.Repeat([]byte{1}, 24), make([]byte, 9*BlockSize))
	f.Add(bytes.Repeat([]byte{2}, 32), make([]byte, 31*BlockSize))
	f.Fuzz(func(t *testing.T, k, data []byte) {
		if len(k) != 16 && len(k) != 24 && len(k) != 32 {
			t.Skip()
		}
		checkAgainstBlock(t, k, data[:len(data)&^(BlockSize-1)])
	})
}
