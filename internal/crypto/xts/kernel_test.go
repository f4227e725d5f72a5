package xts

import (
	"bytes"
	"errors"
	//vetrepo:ignore cryptohygiene fixed-seed source generating test keys and plaintexts for reproducible cases
	"math/rand"
	"testing"
)

// checkKernel holds one (key, tweak, plaintext) to everything the fused
// whole-block pass promises: Encrypt equals the per-block reference (or,
// on a partial tail, the stealing path it must still take); the result
// is the same in place and out of place (into a dst with no spare
// capacity); the per-block loop and k1.DecryptXTS, the pass Decrypt
// switches to under ROADMAP item 2(i), both open it, and both open what
// the reference sealed.
func checkKernel(t *testing.T, key []byte, tweak [TweakSize]byte, pt []byte) {
	t.Helper()
	c, err := NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	n := len(pt)
	ct := make([]byte, n) // cap(dst) == len(src): no pass may reslice past len
	if err := c.Encrypt(ct, pt, tweak); err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	back := make([]byte, n)
	if err := c.Decrypt(back, ct, tweak); err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	if !bytes.Equal(back, pt) {
		t.Fatalf("n=%d: Decrypt does not invert Encrypt", n)
	}
	inplace := bytes.Clone(pt)
	if err := c.Encrypt(inplace, inplace, tweak); err != nil {
		t.Fatalf("n=%d in place: %v", n, err)
	}
	if !bytes.Equal(inplace, ct) {
		t.Fatalf("n=%d: in-place result differs", n)
	}

	if n%BlockSize != 0 {
		want := make([]byte, n)
		if err := c.process(want, pt, tweak, true); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ct, want) {
			t.Fatalf("n=%d: partial tail did not take the stealing path", n)
		}
		return
	}

	ref := referenceEncrypt(t, key, tweak, pt)
	if !bytes.Equal(ct, ref) {
		t.Fatalf("n=%d: kernel diverges from reference", n)
	}
	// The per-block loop is what the parent sealed with; images cross
	// over in both directions.
	if err := c.process(back, pt, tweak, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, ref) {
		t.Fatalf("n=%d: per-block loop diverges from reference", n)
	}
	var et [TweakSize]byte
	c.k2.Encrypt(et[:], tweak[:])
	tw := et
	c.k1.DecryptXTS(back, ref, &tw)
	if !bytes.Equal(back, pt) {
		t.Fatalf("n=%d: DecryptXTS does not open the reference's ciphertext", n)
	}
	tw = et
	c.k1.DecryptXTS(inplace, inplace, &tw)
	if !bytes.Equal(inplace, pt) {
		t.Fatalf("n=%d: DecryptXTS in place", n)
	}
}

// TestKernelVsReference walks every whole-block length up to two 4 KiB
// sectors for both key sizes, among them 112, 128 and 144 around one
// eight-block assembly pass, and partial tails around the same
// boundaries.
func TestKernelVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, keyLen := range []int{32, 64} {
		key := make([]byte, keyLen)
		rng.Read(key)
		var tweak [TweakSize]byte
		for n := BlockSize; n <= 8192; n += BlockSize {
			rng.Read(tweak[:])
			pt := make([]byte, n)
			rng.Read(pt)
			checkKernel(t, key, tweak, pt)
		}
		for _, n := range []int{17, 31, 33, 111, 113, 127, 129, 143, 145, 4095, 4097, 4111, 4113, 8191, 8193} {
			rng.Read(tweak[:])
			pt := make([]byte, n)
			rng.Read(pt)
			checkKernel(t, key, tweak, pt)
		}
	}
}

func FuzzKernelVsReference(f *testing.F) {
	f.Add(int64(1), false, []byte("sixteen byte blk"))
	f.Add(int64(2), true, make([]byte, 4096+BlockSize))
	f.Add(int64(3), true, make([]byte, 100))
	f.Fuzz(func(t *testing.T, seed int64, wide bool, pt []byte) {
		if len(pt) < BlockSize || len(pt) > 4*4096 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		key := make([]byte, 32)
		if wide {
			key = make([]byte, 64)
		}
		rng.Read(key)
		var tweak [TweakSize]byte
		rng.Read(tweak[:])
		checkKernel(t, key, tweak, pt)
	})
}

// Inexact overlap is a caller bug that the two XOR passes would turn
// into a panic inside the datapath pool; it must come back as an error
// with dst untouched. Exact aliasing is how core opens a block in place.
func TestOverlap(t *testing.T) {
	c, _ := NewCipher(make([]byte, 64))
	ops := map[string]func(dst, src []byte, tweak [TweakSize]byte) error{
		"Encrypt": c.Encrypt,
		"Decrypt": c.Decrypt,
	}
	for name, op := range ops {
		for _, n := range []int{64, 4096, 100} {
			for _, shift := range []int{1, BlockSize, n - 1} {
				buf := make([]byte, n+shift)
				for i := range buf {
					buf[i] = byte(i)
				}
				before := bytes.Clone(buf)
				if err := op(buf[shift:], buf[:n], SectorTweak(1)); !errors.Is(err, ErrOverlap) {
					t.Fatalf("%s n=%d dst ahead by %d: got %v, want ErrOverlap", name, n, shift, err)
				}
				if err := op(buf[:n], buf[shift:], SectorTweak(1)); !errors.Is(err, ErrOverlap) {
					t.Fatalf("%s n=%d dst behind by %d: got %v, want ErrOverlap", name, n, shift, err)
				}
				if !bytes.Equal(buf, before) {
					t.Fatalf("%s n=%d: rejected call wrote to dst", name, n)
				}
			}
			buf := make([]byte, 2*n)
			if err := op(buf[:n], buf[:n], SectorTweak(1)); err != nil {
				t.Fatalf("%s n=%d in place: %v", name, n, err)
			}
			if err := op(buf[n:], buf[:n], SectorTweak(1)); err != nil {
				t.Fatalf("%s n=%d adjacent halves: %v", name, n, err)
			}
		}
	}
}

// The sector path must not allocate in steady state: the encrypted tweak
// lives in the pooled scratch.
func TestEncryptAllocs(t *testing.T) {
	c, _ := NewCipher(make([]byte, 64))
	pt := make([]byte, 4096)
	ct := make([]byte, 4096)
	if n := testing.AllocsPerRun(200, func() {
		if err := c.Encrypt(ct, pt, SectorTweak(7)); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("4 KiB Encrypt allocates %v times per call", n)
	}
}

// BenchmarkKernel is the fused whole-block pass on a 4 KiB sector in
// both directions, tweak encryption included: enc-4K is what Encrypt
// costs, and dec-4K is what Decrypt will cost once it switches over
// (ROADMAP item 2(i)); BenchmarkCipherModes/xts-4K-dec measures the
// per-block loop it runs today.
func BenchmarkKernel(b *testing.B) {
	c, err := NewCipher(bytes.Repeat([]byte{7}, 64))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	tw := new([TweakSize]byte)
	for _, tc := range []struct {
		name string
		op   func(dst, src []byte, t *[TweakSize]byte)
	}{{"enc-4K", c.k1.EncryptXTS}, {"dec-4K", c.k1.DecryptXTS}} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				*tw = SectorTweak(uint64(i))
				c.k2.Encrypt(tw[:], tw[:])
				tc.op(buf, buf, tw)
			}
		})
	}
}
