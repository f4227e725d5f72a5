package blockmask

import (
	"bytes"
	"crypto/rand"
	"testing"
)

// refMul2 is the byte-wise doubling the packages used before they shared
// this one: shift left through the bytes, fold the carry as 0x87.
func refMul2(v *[BlockSize]byte) {
	var carry byte
	for i := 0; i < BlockSize; i++ {
		next := v[i] >> 7
		v[i] = v[i]<<1 | carry
		carry = next
	}
	if carry != 0 {
		v[0] ^= 0x87
	}
}

func TestMul2MatchesCarrylessSquare(t *testing.T) {
	// Doubling 128 times from 1 must visit 128 distinct values then fold.
	var v [BlockSize]byte
	v[0] = 1
	seen := map[[BlockSize]byte]bool{v: true}
	for i := 0; i < 128; i++ {
		Mul2(&v)
		if seen[v] {
			t.Fatalf("cycle after %d doublings", i+1)
		}
		seen[v] = true
	}
	// The 128th doubling is the first to carry out: x^128 = x^7+x^2+x+1.
	if want := [BlockSize]byte{0x87}; v != want {
		t.Fatalf("x^128 = %x, want %x", v, want)
	}
}

func TestMul2MatchesBytewise(t *testing.T) {
	for trial := 0; trial < 1000; trial++ {
		var v [BlockSize]byte
		if _, err := rand.Read(v[:]); err != nil {
			t.Fatal(err)
		}
		if trial%4 == 0 {
			v[15] |= 0x80 // force the fold
		}
		want := v
		refMul2(&want)
		Mul2(&v)
		if v != want {
			t.Fatalf("trial %d: got %x want %x", trial, v, want)
		}
	}
}

// Fill must lay out the same chain repeated Mul2 produces, and leave v
// where the chain continues so strides concatenate.
func TestFillChain(t *testing.T) {
	var start [BlockSize]byte
	if _, err := rand.Read(start[:]); err != nil {
		t.Fatal(err)
	}
	const blocks = 600 // more than 128 so the fold happens many times
	want := make([]byte, blocks*BlockSize)
	v := start
	for i := 0; i < blocks; i++ {
		copy(want[i*BlockSize:], v[:])
		refMul2(&v)
	}
	for _, stride := range []int{1, 7, 256, blocks} {
		got := make([]byte, blocks*BlockSize)
		cur := start
		for off := 0; off < len(got); off += stride * BlockSize {
			Fill(got[off:min(off+stride*BlockSize, len(got))], &cur)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("stride %d: table diverges from the doubling chain", stride)
		}
		if cur != v {
			t.Fatalf("stride %d: v left at %x, chain continues at %x", stride, cur, v)
		}
	}
	cur := start
	Fill(nil, &cur)
	if cur != start {
		t.Fatal("empty table must not advance v")
	}
}

func TestInexactOverlap(t *testing.T) {
	buf := make([]byte, 64)
	other := make([]byte, 64)
	cases := []struct {
		name     string
		dst, src []byte
		want     bool
	}{
		{"same slice", buf[:32], buf[:32], false},
		{"same start, different length", buf[:48], buf[:32], false},
		{"disjoint buffers", buf[:32], other[:32], false},
		{"adjacent", buf[:32], buf[32:], false},
		{"dst ahead by one", buf[1:33], buf[:32], true},
		{"dst behind by a block", buf[:32], buf[16:48], true},
		{"dst inside src", buf[16:32], buf[:64], true},
		{"empty", buf[:0], buf[:32], false},
	}
	for _, tc := range cases {
		if got := InexactOverlap(tc.dst, tc.src); got != tc.want {
			t.Errorf("%s: got %v want %v", tc.name, got, tc.want)
		}
	}
}
