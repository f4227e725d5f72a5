package eme

import (
	"bytes"
	"errors"
	//vetrepo:ignore cryptohygiene fixed-seed source generating test keys and plaintexts for reproducible cases
	"math/rand"
	"testing"
)

// checkKernel holds one (key, tweak, data) to the reference transform in
// both directions, in place and out of place (into a dst with no spare
// capacity).
func checkKernel(t *testing.T, key []byte, tweak [TweakSize]byte, data []byte) {
	t.Helper()
	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	n := len(data)
	dirs := []struct {
		name string
		op   func(dst, src []byte, tweak [TweakSize]byte) error
		ref  func(c *Cipher, src []byte, tweak [16]byte) []byte
	}{
		{"Encrypt", c.Encrypt, refEncrypt},
		{"Decrypt", c.Decrypt, refDecrypt},
	}
	for _, d := range dirs {
		want := d.ref(c, data, tweak)
		got := make([]byte, n) // cap(dst) == len(src): no pass may reslice past len
		if err := d.op(got, data, tweak); err != nil {
			t.Fatalf("%s n=%d: %v", d.name, n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s n=%d: diverges from reference", d.name, n)
		}
		inplace := bytes.Clone(data)
		if err := d.op(inplace, inplace, tweak); err != nil {
			t.Fatalf("%s n=%d in place: %v", d.name, n, err)
		}
		if !bytes.Equal(inplace, want) {
			t.Fatalf("%s n=%d: in-place result differs", d.name, n)
		}
	}
}

// TestKernelVsReference walks every legal length for 16- and 32-byte
// keys: the 4 KiB sector, the 8 KiB maximum and everything between.
func TestKernelVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, keyLen := range []int{16, 32} {
		key := make([]byte, keyLen)
		rng.Read(key)
		var tweak [TweakSize]byte
		for n := BlockSize; n <= MaxBlocks*BlockSize; n += BlockSize {
			rng.Read(tweak[:])
			data := make([]byte, n)
			rng.Read(data)
			checkKernel(t, key, tweak, data)
		}
	}
}

func FuzzKernelVsReference(f *testing.F) {
	f.Add(int64(1), false, []byte("sixteen byte blk"))
	f.Add(int64(2), true, make([]byte, 4096))
	f.Fuzz(func(t *testing.T, seed int64, wide bool, data []byte) {
		data = data[:len(data)&^(BlockSize-1)]
		if len(data) < BlockSize || len(data) > MaxBlocks*BlockSize {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		key := make([]byte, 16)
		if wide {
			key = make([]byte, 32)
		}
		rng.Read(key)
		var tweak [TweakSize]byte
		rng.Read(tweak[:])
		checkKernel(t, key, tweak, data)
	})
}

// Inexact overlap comes back as an error with dst untouched; working in
// place and on disjoint halves of one buffer stays legal.
func TestOverlap(t *testing.T) {
	c, _ := New(make([]byte, 32))
	ops := map[string]func(dst, src []byte, tweak [TweakSize]byte) error{
		"Encrypt": c.Encrypt,
		"Decrypt": c.Decrypt,
	}
	var tweak [TweakSize]byte
	for name, op := range ops {
		for _, n := range []int{64, 4096} {
			for _, shift := range []int{1, BlockSize, n - 1} {
				buf := make([]byte, n+shift)
				for i := range buf {
					buf[i] = byte(i)
				}
				before := bytes.Clone(buf)
				if err := op(buf[shift:], buf[:n], tweak); !errors.Is(err, ErrOverlap) {
					t.Fatalf("%s n=%d dst ahead by %d: got %v, want ErrOverlap", name, n, shift, err)
				}
				if err := op(buf[:n], buf[shift:], tweak); !errors.Is(err, ErrOverlap) {
					t.Fatalf("%s n=%d dst behind by %d: got %v, want ErrOverlap", name, n, shift, err)
				}
				if !bytes.Equal(buf, before) {
					t.Fatalf("%s n=%d: rejected call wrote to dst", name, n)
				}
			}
			buf := make([]byte, 2*n)
			if err := op(buf[:n], buf[:n], tweak); err != nil {
				t.Fatalf("%s n=%d in place: %v", name, n, err)
			}
			if err := op(buf[n:], buf[:n], tweak); err != nil {
				t.Fatalf("%s n=%d adjacent halves: %v", name, n, err)
			}
		}
	}
}

// The sector path must not allocate in steady state in either direction.
func TestSectorAllocs(t *testing.T) {
	c, _ := New(make([]byte, 32))
	pt := make([]byte, 4096)
	ct := make([]byte, 4096)
	var tweak [TweakSize]byte
	if n := testing.AllocsPerRun(200, func() {
		if err := c.Encrypt(ct, pt, tweak); err != nil {
			t.Fatal(err)
		}
		if err := c.Decrypt(pt, ct, tweak); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("4 KiB Encrypt+Decrypt allocates %v times per round", n)
	}
}
