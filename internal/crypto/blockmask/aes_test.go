package blockmask

import (
	"bytes"
	"crypto/aes"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"
)

// path is one way to build the primitive.
type path struct {
	name string
	k    kernel
}

var kernelNames = [...]string{generic: "generic", aesni: "aesni", vaes: "vaes"}

// paths is every way to build the primitive on this host: the generic
// loop always, then each assembly kernel the CPU runs.
func paths() []path {
	var p []path
	for k := generic; k <= hostKernel; k++ {
		p = append(p, path{kernelNames[k], k})
	}
	return p
}

func mustAES(t testing.TB, k []byte, kern kernel) *AES {
	t.Helper()
	a, err := newAES(k, kern)
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
			a := mustAES(t, unhex(tc.k), p.k)
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
		a := mustAES(t, k, p.k)
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
			if _, err := newAES(make([]byte, size), p.k); err == nil {
				t.Errorf("%s: %d-byte key accepted", p.name, size)
			}
		}
		a := mustAES(t, make([]byte, 16), p.k)
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
		a := mustAES(t, make([]byte, 32), p.k)
		buf := make([]byte, 4096)
		tw := new([BlockSize]byte)
		if n := testing.AllocsPerRun(100, func() {
			a.Encrypt(buf, buf)
			a.Decrypt(buf, buf)
			a.EncryptXTS(buf, buf, tw)
			a.DecryptXTS(buf, buf, tw)
		}); n != 0 {
			t.Fatalf("%s: 4 KiB Encrypt+Decrypt+EncryptXTS+DecryptXTS allocates %v times", p.name, n)
		}
	}
}

// checkXTS holds EncryptXTS and DecryptXTS, on every path, to the
// per-block definition (mask with t·xⁱ, crypto/aes, mask again): out of
// place into a dst with no spare capacity, in place, and split into two
// calls at split blocks, where the tweak left by the first call must
// continue the chain. It returns the ciphertext of each path, in
// paths() order.
func checkXTS(t *testing.T, k []byte, t0 [BlockSize]byte, data []byte, split int) [][]byte {
	t.Helper()
	ref, err := aes.NewCipher(k)
	if err != nil {
		t.Fatal(err)
	}
	n := len(data)
	want := make([]byte, n)
	end := t0
	for i := 0; i < n; i += BlockSize {
		var x [BlockSize]byte
		for j := range x {
			x[j] = data[i+j] ^ end[j]
		}
		ref.Encrypt(x[:], x[:])
		for j := range x {
			want[i+j] = x[j] ^ end[j]
		}
		refMul2(&end)
	}
	var outs [][]byte
	for _, p := range paths() {
		a := mustAES(t, k, p.k)
		for i, d := range []struct {
			name     string
			op       func(dst, src []byte, t *[BlockSize]byte)
			in, want []byte
		}{{"EncryptXTS", a.EncryptXTS, data, want}, {"DecryptXTS", a.DecryptXTS, want, data}} {
			what := func(how string) string {
				return fmt.Sprintf("%s %s %s, %d blocks, %d-byte key", p.name, d.name, how, n/BlockSize, len(k))
			}
			got, tw := make([]byte, n), t0
			d.op(got, d.in, &tw)
			if !bytes.Equal(got, d.want) {
				t.Fatalf("%s: diverges from the per-block definition", what("out of place"))
			}
			if tw != end {
				t.Fatalf("%s: tweak left at %x, chain continues at %x", what("out of place"), tw, end)
			}
			if i == 0 {
				outs = append(outs, got)
			}
			inplace, tw := bytes.Clone(d.in), t0
			d.op(inplace, inplace, &tw)
			if !bytes.Equal(inplace, d.want) || tw != end {
				t.Fatalf("%s: diverges", what("in place"))
			}
			cut := split * BlockSize
			parts, tw := make([]byte, n), t0
			d.op(parts[:cut], d.in[:cut], &tw)
			d.op(parts[cut:], d.in[cut:], &tw)
			if !bytes.Equal(parts, d.want) || tw != end {
				t.Fatalf("%s: two calls do not chain", what(fmt.Sprintf("split at block %d", split)))
			}
		}
	}
	return outs
}

// One to 520 blocks crosses every sixteen-block group of the VAES pass,
// every eight-block boundary of the AES-NI pass and every tail length
// after them, and 32-block strides of the generic one, for the two XTS
// key sizes. The split lands inside a sixteen-block group on most
// lengths. The log line names the passes this CPU checked.
func TestXTSMatchesGeneric(t *testing.T) {
	var names []string
	for _, p := range paths() {
		names = append(names, p.name)
	}
	t.Logf("XTS passes checked: %s", strings.Join(names, ", "))
	for _, size := range []int{16, 32} {
		for blocks := 1; blocks <= 520; blocks++ {
			seed := byte(size + blocks)
			k := bytes.Repeat([]byte{seed}, size)
			for i := range k {
				k[i] ^= byte(i * 37)
			}
			var t0 [BlockSize]byte
			for i := range t0 {
				t0[i] = byte(i*29) ^ seed
			}
			t0[BlockSize-1] |= byte(blocks&1) << 7 // half the chains fold at once
			data := make([]byte, blocks*BlockSize)
			for i := range data {
				data[i] = byte(i*131) ^ seed
			}
			outs := checkXTS(t, k, t0, data, blocks*5/9)
			for i := 1; i < len(outs); i++ {
				if !bytes.Equal(outs[i], outs[0]) {
					t.Fatalf("%d blocks, %d-byte key: %s and generic paths differ", blocks, size, paths()[i].name)
				}
			}
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

func FuzzXTSBlocks(f *testing.F) {
	f.Add(make([]byte, 16), make([]byte, BlockSize), make([]byte, 16), uint16(0))
	f.Add(bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{0xff}, BlockSize), make([]byte, 9*BlockSize), uint16(3))
	f.Add(bytes.Repeat([]byte{2}, 32), make([]byte, BlockSize), make([]byte, 31*BlockSize), uint16(8))
	f.Add(bytes.Repeat([]byte{3}, 16), bytes.Repeat([]byte{0x80}, BlockSize), make([]byte, 256*BlockSize), uint16(200))
	f.Fuzz(func(t *testing.T, k, tweak, data []byte, split uint16) {
		if len(k) != 16 && len(k) != 32 || len(tweak) != BlockSize {
			t.Skip()
		}
		data = data[:len(data)&^(BlockSize-1)]
		checkXTS(t, k, [BlockSize]byte(tweak), data, int(split)%(len(data)/BlockSize+1))
	})
}

// The kernel detect picks agrees with the flags Linux reports, so a
// wrong CPUID or XCR0 bit fails here instead of quietly running a
// slower pass (or faulting on a missing one).
func TestCPUFeaturesMatchCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	want := generic
	if flags["aes"] {
		want = aesni
		if flags["avx2"] && flags["vaes"] && flags["vpclmulqdq"] {
			want = vaes
		}
	}
	if hostKernel != want {
		t.Fatalf("CPUID picks the %s kernel, /proc/cpuinfo flags say %s", kernelNames[hostKernel], kernelNames[want])
	}
}

// BenchmarkXTSPass is EncryptXTS on a 4 KiB sector, AES-256, on each
// assembly kernel this CPU runs: the cipher's own cost, without the
// tweak encryption and pooling around it in xts.Encrypt.
func BenchmarkXTSPass(b *testing.B) {
	buf := make([]byte, 4096)
	for _, p := range paths()[1:] {
		a := mustAES(b, bytes.Repeat([]byte{7}, 32), p.k)
		b.Run(p.name+"-4K", func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			var tw [BlockSize]byte
			for i := 0; i < b.N; i++ {
				a.EncryptXTS(buf, buf, &tw)
			}
		})
	}
}
