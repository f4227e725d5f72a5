package core

// inplace_test.go: a LayoutUnaligned block is opened where it lies in the
// fetched stream (openBlock; gcmAuth.open's in-place path, the twin of
// seal's). What must hold is "correct or loud, and the stream left as
// fetched": a flipped bit in a block's ciphertext or slot fails that
// block's open and no other, never yields wrong plaintext with a nil
// error, leaves raw byte-identical, and a second open of the same fetch
// gives the same verdict (VerifyObject and RepairObject open one fetch
// more than once).

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/rados"
)

// byteCodecFetch issues one object's data fetch the way a remote client
// would: request and reply both cross the reference byte encoding, which
// never carries Op.Dst, so the OSD allocates the stream and parseFetch
// has to copy it into the fetch's own buffer.
func byteCodecFetch(t testing.TB, e *EncryptedImage, objIdx, start, nb int64) []rados.Result {
	t.Helper()
	f, raw := e.plan.newFetch(nb, true)
	defer f.release()
	req := &rados.Request{Pool: "rbd", Object: "loopback", Ops: e.plan.fetchOps(start, nb, true, raw, f.metas)}
	decoded, err := rados.UnmarshalRequest(req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range decoded.Ops {
		if op.Dst != nil {
			t.Fatal("Op.Dst crossed the byte codec")
		}
	}
	res, _, err := e.Image().Operate(0, objIdx, 0, decoded.Ops)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := rados.UnmarshalReply((&rados.Reply{Results: res}).Marshal())
	if err != nil {
		t.Fatal(err)
	}
	return reply.Results
}

// parseStream decodes res into a fresh fetch. With inProcess the stream
// is first planted in the fetch's raw buffer and the result aliases it —
// the shape of an in-process read into Op.Dst — otherwise parseFetch
// copies it in. The caller releases the fetch.
func parseStream(t testing.TB, e *EncryptedImage, start, nb int64, res []rados.Result, inProcess bool) objFetch {
	t.Helper()
	f, raw := e.plan.newFetch(nb, true)
	res = append([]rados.Result(nil), res...)
	if inProcess {
		res[0].Data = raw[:copy(raw, res[0].Data)]
	}
	if err := e.plan.parseFetch(start, nb, true, res, &f); err != nil {
		f.release()
		t.Fatal(err)
	}
	return f
}

// inPlaceImage writes nb random blocks at the start of object 0 of a
// fresh scheme/unaligned image and returns the image, the plaintext and
// the object's fetch results as they crossed the byte codec.
func inPlaceImage(t testing.TB, scheme Scheme, nb int64) (*EncryptedImage, []byte, []rados.Result) {
	t.Helper()
	e := newEncrypted(t, scheme, LayoutUnaligned)
	plain := make([]byte, nb*e.plan.blockSize)
	rand.New(rand.NewSource(28)).Read(plain)
	if _, err := e.WriteAt(0, plain, 0); err != nil {
		t.Fatal(err)
	}
	return e, plain, byteCodecFetch(t, e, 0, 0, nb)
}

// openTwice opens fetched block b twice and checks that both opens agree
// and that neither left a trace in raw. It returns the first verdict.
func openTwice(t testing.TB, e *EncryptedImage, f *objFetch, b int64) ([]byte, error) {
	t.Helper()
	bs := e.plan.blockSize
	fetched := bytes.Clone(f.raw)
	dst, again := make([]byte, bs), make([]byte, bs)
	err := e.openBlock(f, b, uint64(b), dst)
	if !bytes.Equal(f.raw, fetched) {
		t.Fatalf("block %d: open (err %v) left the fetched stream changed", b, err)
	}
	err2 := e.openBlock(f, b, uint64(b), again)
	if !bytes.Equal(f.raw, fetched) {
		t.Fatalf("block %d: second open (err %v) left the fetched stream changed", b, err2)
	}
	if fmt.Sprint(err) != fmt.Sprint(err2) || (err == nil && !bytes.Equal(dst, again)) {
		t.Fatalf("block %d: two opens of one fetch disagree: %v then %v", b, err, err2)
	}
	return dst, err
}

func TestOpenInPlaceCorrectOrLoud(t *testing.T) {
	const nb, target = 4, 1
	e, plain, pristine := inPlaceImage(t, SchemeGCM, nb)
	bs, stride := e.plan.blockSize, e.plan.blockSize+e.plan.metaLen
	cases := []struct {
		name string
		off  int64 // byte of the target block's stride to flip; -1 flips nothing
		bit  byte
		want error
	}{
		{"untouched", -1, 0, nil},
		{"ciphertext-first", 0, 0x01, ErrIntegrity},
		{"ciphertext-mid", 2049, 0x10, ErrIntegrity},
		{"ciphertext-last", bs - 1, 0x80, ErrIntegrity},
		{"nonce-first", bs, 0x01, ErrIntegrity},
		{"nonce-last", bs + 11, 0x80, ErrIntegrity},
		{"tag-first", bs + 12, 0x01, ErrIntegrity},
		{"tag-last", bs + 27, 0x80, ErrIntegrity},
		{"epoch", bs + 31, 0x80, ErrKeyErased},
	}
	for _, tc := range cases {
		for _, inProcess := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/inprocess=%v", tc.name, inProcess), func(t *testing.T) {
				res := append([]rados.Result(nil), pristine...)
				res[0].Data = bytes.Clone(res[0].Data)
				if tc.off >= 0 {
					res[0].Data[target*stride+tc.off] ^= tc.bit
				}
				f := parseStream(t, e, 0, nb, res, inProcess)
				defer f.release()
				for b := int64(0); b < nb; b++ {
					if f.present[b] == 0 {
						t.Fatalf("block %d: a one-bit flip made a written block read as a hole", b)
					}
					got, err := openTwice(t, e, &f, b)
					want := error(nil)
					if b == target {
						want = tc.want
					}
					switch {
					case want == nil && err != nil:
						t.Fatalf("block %d: untouched block failed: %v", b, err)
					case want == nil && !bytes.Equal(got, plain[b*bs:(b+1)*bs]):
						t.Fatalf("block %d: wrong plaintext with a nil error", b)
					case want != nil && !errors.Is(err, want):
						t.Fatalf("block %d: got %v, want %v", b, err, want)
					}
				}
			})
		}
	}
}

// TestUnalignedRoundTripOverByteCodec reads back every metadata-bearing
// scheme under LayoutUnaligned through the byte-codec loopback (the
// stream is copied into raw, not read into it) across an object boundary
// and a hole, and checks the in-process ReadAt agrees.
func TestUnalignedRoundTripOverByteCodec(t *testing.T) {
	for _, scheme := range []Scheme{SchemeXTSRand, SchemeGCM, SchemeEME2Rand} {
		t.Run(scheme.String(), func(t *testing.T) {
			e := newEncrypted(t, scheme, LayoutUnaligned)
			bs := e.plan.blockSize
			const off, hole = 1<<20 - 32<<10, 8 << 10 // written range spans objects 0 and 1
			data := make([]byte, 64<<10)
			rand.New(rand.NewSource(3)).Read(data)
			if _, err := e.WriteAt(0, data, off); err != nil {
				t.Fatal(err)
			}
			// Read a hole's worth more on each side than was written.
			want := append(append(make([]byte, hole), data...), make([]byte, hole)...)
			exts, err := e.Image().Extents(off-hole, int64(len(want)))
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(want))
			for _, ext := range exts {
				start, nb := ext.ObjOff/bs, ext.Length/bs
				res := byteCodecFetch(t, e, ext.ObjIdx, start, nb)
				f := parseStream(t, e, start, nb, res, false)
				if sameBacking(res[0].Data, f.raw) {
					t.Fatal("byte-codec stream aliases the fetch buffer: the copy path was not taken")
				}
				for b := int64(0); b < nb; b++ {
					dst := got[ext.BufOff+b*bs : ext.BufOff+(b+1)*bs]
					if f.present[b] == 0 {
						clear(dst)
						continue
					}
					blockIdx := uint64(ext.ObjIdx*e.plan.objBlocks() + start + b)
					if err := e.openBlock(&f, b, blockIdx, dst); err != nil {
						t.Fatalf("object %d block %d: %v", ext.ObjIdx, start+b, err)
					}
				}
				f.release()
			}
			if !bytes.Equal(got, want) {
				t.Fatal("byte-codec read-back differs from what was written")
			}
			inProc := make([]byte, len(want))
			if _, err := e.ReadAt(0, inProc, off-hole); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(inProc, want) {
				t.Fatal("in-process read-back differs from what was written")
			}
		})
	}
}

// FuzzOpenInPlace flips one bit anywhere in a fetched gcm-auth/unaligned
// stream and opens one block of it in place. The block must open to its
// original plaintext, or fail loudly: ErrIntegrity when the flip hit its
// ciphertext, nonce or tag, ErrKeyErased when it hit its epoch tag.
// Either way raw is left as fetched and a second open agrees.
func FuzzOpenInPlace(f *testing.F) {
	const nb = 4
	e, plain, pristine := inPlaceImage(f, SchemeGCM, nb)
	bs, stride := e.plan.blockSize, e.plan.blockSize+e.plan.metaLen
	for _, seed := range []struct {
		block uint8
		bit   uint32
	}{{0, 0}, {1, uint32(stride * 8)}, {1, uint32((stride + bs) * 8)}, {2, uint32((2*stride + bs + 12) * 8)}, {131, uint32((3*stride + bs + 28) * 8)}, {3, 7}} {
		f.Add(seed.block, seed.bit)
	}
	f.Fuzz(func(t *testing.T, block uint8, bit uint32) {
		b := int64(block) % nb
		pos := int64(bit) % (nb * stride * 8)
		res := append([]rados.Result(nil), pristine...)
		res[0].Data = bytes.Clone(res[0].Data)
		res[0].Data[pos/8] ^= 1 << (pos % 8)
		fetched := parseStream(t, e, 0, nb, res, block >= 128)
		defer fetched.release()

		got, err := openTwice(t, e, &fetched, b)
		var want error
		switch rel := pos/8 - b*stride; {
		case rel < 0 || rel >= stride:
			want = nil // another block's bytes
		case rel < bs+e.schemeMetaLen():
			want = ErrIntegrity
		default:
			want = ErrKeyErased
		}
		switch {
		case want == nil && (err != nil || !bytes.Equal(got, plain[b*bs:(b+1)*bs])):
			t.Fatalf("block %d, flip at byte %d: untouched block gave err %v", b, pos/8, err)
		case want != nil && !errors.Is(err, want):
			t.Fatalf("block %d, flip at byte %d: got %v, want %v", b, pos/8, err, want)
		}
	})
}
