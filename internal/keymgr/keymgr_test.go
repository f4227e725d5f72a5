package keymgr

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/simdisk"
)

const (
	imgSize = 8 << 20
	objSize = 1 << 20
	bs      = 4096
)

func testClient(t testing.TB) *rados.Client {
	t.Helper()
	cfg := rados.DefaultClusterConfig()
	cfg.OSDs = 3
	cfg.DisksPerOSD = 2
	cfg.DiskSectors = (768 << 20) / simdisk.SectorSize
	cfg.PGNum = 16
	cfg.Blob.ObjectCapacity = 1<<20 + 64<<10
	cfg.Blob.KVBytes = 64 << 20
	cfg.Blob.KV.MemtableBytes = 256 << 10
	cfg.Blob.KV.WALBytes = 4 << 20
	c, err := rados.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c.NewClient("keymgr-test")
}

var imgCounter int

func newEncrypted(t testing.TB, scheme core.Scheme, layout core.Layout) *core.EncryptedImage {
	t.Helper()
	cl := testClient(t)
	imgCounter++
	name := fmt.Sprintf("kimg%d", imgCounter)
	if _, err := rbd.CreateWithObjectSize(0, cl, "rbd", name, imgSize, objSize); err != nil {
		t.Fatal(err)
	}
	img, _, err := rbd.Open(0, cl, "rbd", name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Format(0, img, []byte("s3cret"), core.Options{Scheme: scheme, Layout: layout}); err != nil {
		t.Fatal(err)
	}
	e, _, err := core.Load(0, img, []byte("s3cret"))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func reload(t *testing.T, e *core.EncryptedImage) *core.EncryptedImage {
	t.Helper()
	e2, _, err := core.Load(0, e.Image(), []byte("s3cret"))
	if err != nil {
		t.Fatal(err)
	}
	return e2
}

func allCombos() []struct {
	Scheme core.Scheme
	Layout core.Layout
} {
	return []struct {
		Scheme core.Scheme
		Layout core.Layout
	}{
		{core.SchemeLUKS2, core.LayoutNone},
		{core.SchemeEME2Det, core.LayoutNone},
		{core.SchemeXTSRand, core.LayoutUnaligned},
		{core.SchemeXTSRand, core.LayoutObjectEnd},
		{core.SchemeXTSRand, core.LayoutOMAP},
		{core.SchemeGCM, core.LayoutUnaligned},
		{core.SchemeGCM, core.LayoutObjectEnd},
		{core.SchemeGCM, core.LayoutOMAP},
		{core.SchemeEME2Rand, core.LayoutUnaligned},
		{core.SchemeEME2Rand, core.LayoutObjectEnd},
		{core.SchemeEME2Rand, core.LayoutOMAP},
	}
}

// TestLiveRekeyUnderLoad is the headline acceptance test: for every
// scheme×layout combo an image re-keys epoch 0→1 while an fio workload
// hammers part of it. Data must read back intact during the walk and
// after; a second transition is crashed mid-walk and resumed on a fresh
// handle; and once the retired key is destroyed, the fact that every
// read still succeeds proves no block remained under the old epoch.
func TestLiveRekeyUnderLoad(t *testing.T) {
	// The model region is never touched by fio, so its contents are
	// checkable at any moment. fio owns [0, fioSpan).
	const fioSpan = 2 << 20
	for _, combo := range allCombos() {
		combo := combo
		t.Run(fmt.Sprintf("%v/%v", combo.Scheme, combo.Layout), func(t *testing.T) {
			e := newEncrypted(t, combo.Scheme, combo.Layout)
			rng := rand.New(rand.NewSource(42))
			model := make([]byte, imgSize-fioSpan)
			rng.Read(model)
			if _, err := e.WriteAt(0, model, fioSpan); err != nil {
				t.Fatal(err)
			}
			// Leave holes: punch two blocks so sparse semantics are also
			// checked across the rekey.
			holeOff := int64(fioSpan + 5*bs)
			if _, err := e.Discard(0, holeOff, 2*bs); err != nil {
				t.Fatal(err)
			}
			clearRange(model, holeOff-fioSpan, 2*bs)

			if e.CurrentEpoch() != 0 {
				t.Fatalf("fresh image at epoch %d", e.CurrentEpoch())
			}

			// --- Transition 0→1 under live fio load ---
			r, _, err := Start(0, e)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := Start(0, e); !errors.Is(err, ErrRekeyActive) {
				t.Fatalf("double Start: %v", err)
			}
			if e.CurrentEpoch() != 1 {
				t.Fatalf("current epoch %d after Start", e.CurrentEpoch())
			}

			var wg sync.WaitGroup
			wg.Add(1)
			var fioErr error
			go func() {
				defer wg.Done()
				_, fioErr = fio.Run(fio.Spec{
					Pattern:    fio.RandWrite,
					BlockSize:  bs,
					QueueDepth: 4,
					Span:       fioSpan,
					TotalOps:   96,
					Seed:       7,
				}, e, 0)
			}()

			// Walk while the workload runs, model-checking mid-flight.
			buf := make([]byte, 64<<10)
			for done := false; !done; {
				var err error
				done, _, err = r.Step(0)
				if err != nil {
					t.Fatal(err)
				}
				off := fioSpan + rng.Int63n(int64(len(model)-len(buf))/bs)*bs
				if _, err := e.ReadAt(0, buf, off); err != nil {
					t.Fatalf("read during rekey: %v", err)
				}
				if !bytes.Equal(buf, model[off-fioSpan:off-fioSpan+int64(len(buf))]) {
					t.Fatalf("data changed under rekey at %d", off)
				}
			}
			wg.Wait()
			if fioErr != nil {
				t.Fatalf("fio during rekey: %v", fioErr)
			}
			if got := e.Epochs(); len(got) != 1 || got[0] != 1 {
				t.Fatalf("epochs after transition: %v", got)
			}
			if found, _, _, err := walk.Active(0, e.Image()); err != nil || found {
				t.Fatalf("progress record survived completion: %v %v", found, err)
			}

			// The retired epoch-0 key is destroyed; every block must have
			// been re-sealed, or these reads would fail with ErrKeyErased.
			verifyWholeImage(t, e, model, fioSpan)

			// --- Transition 1→2, crashed mid-walk and resumed ---
			r2, _, err := Start(0, e)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ { // walk 3 of 8 objects, then "crash"
				if _, _, err := r2.Step(0); err != nil {
					t.Fatal(err)
				}
			}
			e2 := reload(t, e) // fresh handle, cold caches — the recovery path
			if _, _, err := Start(0, e2); !errors.Is(err, ErrRekeyActive) {
				t.Fatalf("Start over interrupted rekey: %v", err)
			}
			r3, _, err := Resume(0, e2)
			if err != nil {
				t.Fatal(err)
			}
			if p := r3.Progress(); p.From != 1 || p.To != 2 || p.NextObj != 3 {
				t.Fatalf("resumed cursor %+v", p)
			}
			if _, err := r3.Run(0); err != nil {
				t.Fatal(err)
			}
			if got := e2.Epochs(); len(got) != 1 || got[0] != 2 {
				t.Fatalf("epochs after resumed transition: %v", got)
			}
			verifyWholeImage(t, e2, model, fioSpan)

			// Resume with nothing in flight reports ErrNoRekey.
			if _, _, err := Resume(0, e2); !errors.Is(err, ErrNoRekey) {
				t.Fatalf("Resume idle: %v", err)
			}
		})
	}
}

func clearRange(model []byte, off, n int64) {
	clear(model[off : off+n])
}

// verifyWholeImage reads every byte through a handle holding only the
// newest key: the model region must match exactly (holes included), and
// the fio region must decrypt without error (under gcm-auth that is an
// authenticated statement). Any block still sealed under a retired
// epoch would surface as ErrKeyErased here.
func verifyWholeImage(t *testing.T, e *core.EncryptedImage, model []byte, fioSpan int64) {
	t.Helper()
	got := make([]byte, imgSize)
	if _, err := e.ReadAt(0, got, 0); err != nil {
		t.Fatalf("post-rekey read: %v", err)
	}
	if !bytes.Equal(got[fioSpan:], model) {
		t.Fatal("model region corrupted by rekey")
	}
}

// TestRekeyedBlockNotDecryptableUnderOldKey pins the negative statement
// directly: after a completed transition the retired epoch is gone from
// the container, and a block planted with a forged old-epoch tag fails
// to decrypt (rather than silently decrypting under some surviving key).
func TestRekeyedBlockNotDecryptableUnderOldKey(t *testing.T) {
	e := newEncrypted(t, core.SchemeXTSRand, core.LayoutObjectEnd)
	data := bytes.Repeat([]byte{0xA5}, 4*bs)
	if _, err := e.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	r, _, err := Start(0, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(0); err != nil {
		t.Fatal(err)
	}
	// Forge an epoch-0 tag onto block 0's stored metadata (attacker at
	// the OSD replaying a pre-rekey slot): the read must fail closed.
	ml := int64(e.MetaLen())
	res, _, err := e.Image().Operate(0, 0, 0, []rados.Op{{Kind: rados.OpRead, Off: objSize, Len: ml}})
	if err != nil || res[0].Status != rados.StatusOK {
		t.Fatalf("raw meta read: %v %v", err, res[0].Status)
	}
	slot := append([]byte(nil), res[0].Data...)
	slot[ml-4], slot[ml-3], slot[ml-2], slot[ml-1] = 0, 0, 0, 0 // epoch 0
	if _, _, err := e.Image().Operate(0, 0, 0, []rados.Op{{Kind: rados.OpWrite, Off: objSize, Data: slot}}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, bs)
	if _, err := e.ReadAt(0, buf, 0); !errors.Is(err, core.ErrKeyErased) {
		t.Fatalf("old-epoch block read: %v", err)
	}
}

// TestCryptoEraseDiscard is the second acceptance test: after Discard,
// blocks read as holes under every scheme×layout (exact sparse reads now
// hold for luks2/eme2-det via the allocation sidecar), neighbours
// survive, a cold reload agrees, and the stored ciphertext of a fully
// discarded object is zeros — unrecoverable no matter which keys the
// attacker retains.
func TestCryptoEraseDiscard(t *testing.T) {
	for _, combo := range allCombos() {
		combo := combo
		t.Run(fmt.Sprintf("%v/%v", combo.Scheme, combo.Layout), func(t *testing.T) {
			e := newEncrypted(t, combo.Scheme, combo.Layout)
			rng := rand.New(rand.NewSource(9))
			data := make([]byte, 3<<20) // objects 0,1,2
			rng.Read(data)
			if _, err := e.WriteAt(0, data, 0); err != nil {
				t.Fatal(err)
			}

			// Discard a range crossing the object 1/2 boundary, plus all
			// of object 0.
			dOff, dLen := int64(2<<20-8*bs), int64(16*bs)
			if _, err := e.Discard(0, dOff, dLen); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Discard(0, 0, objSize); err != nil {
				t.Fatal(err)
			}
			// Alignment is enforced like regular IO.
			if _, err := e.Discard(0, 100, bs); !errors.Is(err, core.ErrAlignment) {
				t.Fatalf("unaligned discard: %v", err)
			}

			want := append([]byte(nil), data...)
			clearRange(want, 0, objSize)
			clearRange(want, dOff, dLen)

			check := func(e *core.EncryptedImage, label string) {
				t.Helper()
				got := make([]byte, len(want))
				if _, err := e.ReadAt(0, got, 0); err != nil {
					t.Fatalf("%s read: %v", label, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: discarded range not holes (or neighbours damaged)", label)
				}
			}
			check(e, "warm handle")
			check(reload(t, e), "cold reload")

			// Attacker view of the fully discarded object: its stored
			// payload is zeros up to its logical size. (Presence metadata
			// lives in KV — bitmap attr / OMAP — not in the payload.)
			res, _, err := e.Image().Operate(0, 0, 0, []rados.Op{{Kind: rados.OpStat}})
			if err != nil || res[0].Status != rados.StatusOK {
				t.Fatalf("stat: %v %v", err, res[0].Status)
			}
			raw, _, err := e.Image().Operate(0, 0, 0, []rados.Op{{Kind: rados.OpRead, Off: 0, Len: res[0].Size}})
			if err != nil || raw[0].Status != rados.StatusOK {
				t.Fatalf("raw read: %v", err)
			}
			for i, b := range raw[0].Data {
				if b != 0 {
					t.Fatalf("ciphertext survives crypto-erase at byte %d", i)
				}
			}
		})
	}
}

// TestAbortAndRestartRekey: withdrawing a mid-flight transition leaves
// all data readable (both epochs stay live), and the next completed
// transition sweeps up the orphaned epoch too — the container ends with
// exactly one live key.
func TestAbortAndRestartRekey(t *testing.T) {
	e := newEncrypted(t, core.SchemeXTSRand, core.LayoutOMAP)
	data := make([]byte, 2<<20)
	rand.New(rand.NewSource(3)).Read(data)
	if _, err := e.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	r, _, err := Start(0, e)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := r.Step(0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Abort(0, e); err != nil {
		t.Fatal(err)
	}
	if found, _, _, err := walk.Active(0, e.Image()); err != nil || found {
		t.Fatalf("record survives abort: %v %v", found, err)
	}
	// Mixed epochs 0/1 on disk, both keys live: everything still reads.
	got := make([]byte, len(data))
	if _, err := e.ReadAt(0, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost by abort")
	}
	// The next transition (1→2) re-seals everything and destroys BOTH
	// retired epochs, orphan included.
	r2, _, err := Start(0, e)
	if err != nil {
		t.Fatal(err)
	}
	if p := r2.Progress(); p.From != 1 || p.To != 2 {
		t.Fatalf("restarted cursor %+v", p)
	}
	if _, err := r2.Run(0); err != nil {
		t.Fatal(err)
	}
	if eps := e.Epochs(); len(eps) != 1 || eps[0] != 2 {
		t.Fatalf("orphan epoch survives completed transition: %v", eps)
	}
	if _, err := e.ReadAt(0, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost across abort+restart")
	}
}

// BenchmarkRekeySweep measures a full epoch transition over a
// preconditioned image (walker cost: whole-object read + open + re-seal
// + atomic write-back, per object). The CI bench smoke runs this at
// -benchtime=1x so rekey-path regressions surface in PRs.
func BenchmarkRekeySweep(b *testing.B) {
	e := newEncrypted(b, core.SchemeXTSRand, core.LayoutObjectEnd)
	data := make([]byte, imgSize)
	rand.New(rand.NewSource(1)).Read(data)
	if _, err := e.WriteAt(0, data, 0); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(imgSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _, err := Start(0, e)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDiscardThenRewrite makes sure a punched block is a first-class
// citizen again after the next write.
func TestDiscardThenRewrite(t *testing.T) {
	for _, combo := range allCombos() {
		e := newEncrypted(t, combo.Scheme, combo.Layout)
		a := bytes.Repeat([]byte{1}, bs)
		b := bytes.Repeat([]byte{2}, bs)
		if _, err := e.WriteAt(0, a, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Discard(0, 0, bs); err != nil {
			t.Fatal(err)
		}
		if _, err := e.WriteAt(0, b, 0); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, bs)
		if _, err := e.ReadAt(0, got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("%v/%v: rewrite after discard lost", combo.Scheme, combo.Layout)
		}
	}
}
