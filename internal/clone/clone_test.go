package clone

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
	"repro/internal/vtime"
)

const (
	imgSize = 4 << 20
	objSize = 1 << 20
	bs      = 4096
	blocks  = imgSize / bs
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
	return c.NewClient("clone-test")
}

func pass(name string) []byte { return []byte("pw-" + name) }

func keysFor(names ...string) Keychain {
	k := make(Keychain, len(names))
	for _, n := range names {
		k[n] = pass(n)
	}
	return k
}

// createBase makes an encryption-formatted image under its own keychain
// passphrase.
func createBase(t testing.TB, cl *rados.Client, name string, scheme core.Scheme, layout core.Layout) *core.EncryptedImage {
	t.Helper()
	if _, err := rbd.CreateWithObjectSize(0, cl, "rbd", name, imgSize, objSize); err != nil {
		t.Fatal(err)
	}
	img, _, err := rbd.Open(0, cl, "rbd", name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Format(0, img, pass(name), core.Options{Scheme: scheme, Layout: layout}); err != nil {
		t.Fatal(err)
	}
	e, _, err := core.Load(0, img, pass(name))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

type combo struct {
	Scheme core.Scheme
	Layout core.Layout
}

func allCombos() []combo {
	return []combo{
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

// scatterWrites performs n random block-aligned writes, mirroring them
// into model.
func scatterWrites(t testing.TB, w func(at vtime.Time, p []byte, off int64) (vtime.Time, error), model []byte, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		nb := int64(rng.Intn(24) + 1)
		off := rng.Int63n(blocks-nb+1) * bs
		buf := make([]byte, nb*bs)
		rng.Read(buf)
		if _, err := w(0, buf, off); err != nil {
			t.Fatal(err)
		}
		copy(model[off:], buf)
	}
}

func readAll(t testing.TB, r interface {
	ReadAt(vtime.Time, []byte, int64) (vtime.Time, error)
}) []byte {
	t.Helper()
	got := make([]byte, imgSize)
	if _, err := r.ReadAt(0, got, 0); err != nil {
		t.Fatal(err)
	}
	return got
}

func assertImage(t *testing.T, label string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	for b := 0; b < len(got)/bs; b++ {
		if !bytes.Equal(got[b*bs:(b+1)*bs], want[b*bs:(b+1)*bs]) {
			t.Fatalf("%s: block %d mismatch", label, b)
		}
	}
	t.Fatalf("%s: length mismatch", label)
}

// TestCloneMatrix runs the full scheme×layout grid as BOTH parent and
// child: each combo parents the next combo's child (so every pair of
// adjacent combos is a mixed-scheme chain, and every combo appears once
// on each side), plus a same-combo pair. Per pair it checks sparse
// read-through of the parent snapshot (holes included), isolation of the
// parent and a sibling clone from child writes, and persistence across
// a fresh Open of the whole chain.
func TestCloneMatrix(t *testing.T) {
	combos := allCombos()
	pairs := make([][2]combo, 0, len(combos)+1)
	for i, c := range combos {
		pairs = append(pairs, [2]combo{c, combos[(i+1)%len(combos)]})
	}
	pairs = append(pairs, [2]combo{combos[3], combos[3]}) // same-scheme pair
	for pi, pair := range pairs {
		pair := pair
		t.Run(fmt.Sprintf("%v-%v_over_%v-%v", pair[1].Scheme, pair[1].Layout, pair[0].Scheme, pair[0].Layout), func(t *testing.T) {
			cl := testClient(t)
			base := createBase(t, cl, "base", pair[0].Scheme, pair[0].Layout)
			rng := rand.New(rand.NewSource(int64(9000 + pi)))

			// Sparse golden content: scattered writes, holes elsewhere.
			model := make([]byte, imgSize)
			scatterWrites(t, base.WriteAt, model, rng, 24)
			if _, _, err := base.CreateSnap(0, "golden"); err != nil {
				t.Fatal(err)
			}
			// Scribble on the base head AFTER the snapshot: clones must
			// resolve against the snapshot, not the head.
			junk := bytes.Repeat([]byte{0x5A}, 64<<10)
			if _, err := base.WriteAt(0, junk, 1<<20); err != nil {
				t.Fatal(err)
			}

			keys := keysFor("base", "childA", "childB")
			opts := core.Options{Scheme: pair[1].Scheme, Layout: pair[1].Layout}
			a, _, err := Create(0, cl, "rbd", "base", "golden", "childA", keys, opts)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := Create(0, cl, "rbd", "base", "golden", "childB", keys, opts)
			if err != nil {
				t.Fatal(err)
			}

			// Read-through: the child sees the golden snapshot exactly,
			// holes as zeros, despite the head scribble.
			assertImage(t, "childA read-through", readAll(t, a), model)

			// Child writes overlay the parent and leave siblings alone.
			childModel := append([]byte(nil), model...)
			scatterWrites(t, a.WriteAt, childModel, rng, 24)
			assertImage(t, "childA after writes", readAll(t, a), childModel)
			assertImage(t, "childB sibling isolation", readAll(t, b), model)

			// The whole chain survives a fresh Open (cold caches).
			a2, _, err := Open(0, cl, "rbd", "childA", keys)
			if err != nil {
				t.Fatal(err)
			}
			assertImage(t, "childA reopened", readAll(t, a2), childModel)
			if a2.Parent() == nil || a2.Parent().Image != "base" {
				t.Fatalf("reopened clone lost its parent pointer: %+v", a2.Parent())
			}

			// A key is required for every layer: opening without the
			// parent's passphrase must fail.
			if _, _, err := Open(0, cl, "rbd", "childA", keysFor("childA")); !errors.Is(err, ErrNoKey) {
				t.Fatalf("open without parent key: %v", err)
			}
		})
	}
}

// TestDeepChainReadThrough layers a grandchild over a child over a base
// and checks blocks resolve to the nearest layer that owns them, each
// decrypted under its own layer's keys.
func TestDeepChainReadThrough(t *testing.T) {
	cl := testClient(t)
	base := createBase(t, cl, "base", core.SchemeXTSRand, core.LayoutObjectEnd)
	rng := rand.New(rand.NewSource(77))

	model := make([]byte, imgSize)
	scatterWrites(t, base.WriteAt, model, rng, 16)
	if _, _, err := base.CreateSnap(0, "s0"); err != nil {
		t.Fatal(err)
	}

	keys := keysFor("base", "c1", "c2")
	c1, _, err := Create(0, cl, "rbd", "base", "s0", "c1", keys,
		core.Options{Scheme: core.SchemeGCM, Layout: core.LayoutOMAP})
	if err != nil {
		t.Fatal(err)
	}
	scatterWrites(t, c1.WriteAt, model, rng, 16)
	if _, _, err := c1.CreateSnap(0, "s1"); err != nil {
		t.Fatal(err)
	}
	c2, _, err := Create(0, cl, "rbd", "c1", "s1", "c2", keys,
		core.Options{Scheme: core.SchemeLUKS2, Layout: core.LayoutNone})
	if err != nil {
		t.Fatal(err)
	}
	scatterWrites(t, c2.WriteAt, model, rng, 16)

	assertImage(t, "grandchild 3-layer resolution", readAll(t, c2), model)

	// And a fresh open of the 3-deep chain.
	c2b, _, err := Open(0, cl, "rbd", "c2", keys)
	if err != nil {
		t.Fatal(err)
	}
	assertImage(t, "grandchild reopened", readAll(t, c2b), model)
}

// TestCopyupPartialWrite checks the copy-on-write re-seal for sub-block
// writes: the covering block migrates from the parent into the child,
// merged with the new bytes, and becomes child-owned.
func TestCopyupPartialWrite(t *testing.T) {
	cl := testClient(t)
	base := createBase(t, cl, "base", core.SchemeXTSRand, core.LayoutObjectEnd)
	model := make([]byte, imgSize)
	rng := rand.New(rand.NewSource(5))
	scatterWrites(t, base.WriteAt, model, rng, 20)
	// Make block 3 deterministic parent content and block 9 a hole.
	parentBlock := bytes.Repeat([]byte{0xAB}, bs)
	if _, err := base.WriteAt(0, parentBlock, 3*bs); err != nil {
		t.Fatal(err)
	}
	copy(model[3*bs:], parentBlock)
	if _, err := base.Discard(0, 9*bs, bs); err != nil {
		t.Fatal(err)
	}
	clearRange(model, 9*bs, bs)
	if _, _, err := base.CreateSnap(0, "g"); err != nil {
		t.Fatal(err)
	}

	keys := keysFor("base", "c")
	c, _, err := Create(0, cl, "rbd", "base", "g", "c", keys,
		core.Options{Scheme: core.SchemeGCM, Layout: core.LayoutObjectEnd})
	if err != nil {
		t.Fatal(err)
	}

	// Sub-block write over parent data: 512 bytes into block 3.
	frag := bytes.Repeat([]byte{0x11}, 512)
	if _, err := c.WriteAt(0, frag, 3*bs+1024); err != nil {
		t.Fatal(err)
	}
	copy(model[3*bs+1024:], frag)
	// Sub-block write over a chain hole: merges with zeros.
	if _, err := c.WriteAt(0, frag, 9*bs+512); err != nil {
		t.Fatal(err)
	}
	copy(model[9*bs+512:], frag)
	// Straddling write: tail of block 4, head of block 5 (1 KiB each).
	if _, err := c.WriteAt(0, bytes.Repeat([]byte{0x22}, 2048), 5*bs-1024); err != nil {
		t.Fatal(err)
	}
	copy(model[5*bs-1024:], bytes.Repeat([]byte{0x22}, 2048))

	assertImage(t, "after copyup", readAll(t, c), model)

	// The copied-up blocks are now child-owned.
	pres, _, err := c.Enc().PresentRange(0, 0, 16*bs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int64{3, 4, 5, 9} {
		if !pres[b] {
			t.Fatalf("block %d not owned by child after copyup", b)
		}
	}
	// Misaligned (non-sector) writes are rejected.
	if _, err := c.WriteAt(0, []byte{1, 2, 3}, 100); !errors.Is(err, core.ErrAlignment) {
		t.Fatalf("misaligned write: %v", err)
	}
}

// TestCloneDiscard checks discard semantics on a layered image: blocks
// the chain owns are masked (zero reads, parent intact), true holes stay
// holes.
func TestCloneDiscard(t *testing.T) {
	cl := testClient(t)
	base := createBase(t, cl, "base", core.SchemeXTSRand, core.LayoutOMAP)
	model := make([]byte, imgSize)
	rng := rand.New(rand.NewSource(6))
	scatterWrites(t, base.WriteAt, model, rng, 20)
	if _, _, err := base.CreateSnap(0, "g"); err != nil {
		t.Fatal(err)
	}
	keys := keysFor("base", "c")
	c, _, err := Create(0, cl, "rbd", "base", "g", "c", keys,
		core.Options{Scheme: core.SchemeXTSRand, Layout: core.LayoutOMAP})
	if err != nil {
		t.Fatal(err)
	}
	// Discard a wide range crossing parent data and holes.
	const dOff, dLen = 1 << 20, 1 << 20
	if _, err := c.Discard(0, dOff, dLen); err != nil {
		t.Fatal(err)
	}
	clearRange(model, dOff, dLen)
	assertImage(t, "clone after discard", readAll(t, c), model)

	// The parent snapshot is untouched.
	snap := make([]byte, imgSize)
	if _, err := base.ReadAt(0, snap, 0); err != nil {
		t.Fatal(err)
	}
	restored := append([]byte(nil), model...)
	copy(restored[dOff:dOff+dLen], snap[dOff:dOff+dLen])
	if !bytes.Equal(snap, restored) {
		t.Fatal("parent changed by child discard")
	}
}

func clearRange(model []byte, off, n int64) {
	clear(model[off : off+n])
}

// TestCryptoEraseIsolation is the acceptance criterion: DropEpoch on one
// clone crypto-erases that child's writes and NOTHING else — inherited
// blocks, the parent, and sibling clones stay fully readable.
func TestCryptoEraseIsolation(t *testing.T) {
	cl := testClient(t)
	base := createBase(t, cl, "base", core.SchemeXTSRand, core.LayoutObjectEnd)
	model := make([]byte, imgSize)
	rng := rand.New(rand.NewSource(11))
	scatterWrites(t, base.WriteAt, model, rng, 24)
	// Blocks 0..15 are guaranteed parent content.
	parentRun := make([]byte, 16*bs)
	rng.Read(parentRun)
	if _, err := base.WriteAt(0, parentRun, 0); err != nil {
		t.Fatal(err)
	}
	copy(model, parentRun)
	if _, _, err := base.CreateSnap(0, "g"); err != nil {
		t.Fatal(err)
	}

	keys := keysFor("base", "a", "b")
	opts := core.Options{Scheme: core.SchemeGCM, Layout: core.LayoutOMAP}
	a, _, err := Create(0, cl, "rbd", "base", "g", "a", keys, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Create(0, cl, "rbd", "base", "g", "b", keys, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Both tenants write; a's writes land at [2 MiB, 2 MiB+64 KiB).
	aModel := append([]byte(nil), model...)
	bModel := append([]byte(nil), model...)
	aData := make([]byte, 64<<10)
	rng.Read(aData)
	const aOff = 2 << 20
	if _, err := a.WriteAt(0, aData, aOff); err != nil {
		t.Fatal(err)
	}
	copy(aModel[aOff:], aData)
	scatterWrites(t, b.WriteAt, bModel, rng, 12)

	// Crypto-erase tenant a's epoch 0: mint epoch 1, destroy epoch 0.
	if _, _, err := a.Enc().BeginEpoch(0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Enc().DropEpoch(0, 0); err != nil {
		t.Fatal(err)
	}

	// a's own writes are gone for good…
	buf := make([]byte, len(aData))
	if _, err := a.ReadAt(0, buf, aOff); !errors.Is(err, core.ErrKeyErased) {
		t.Fatalf("erased child blocks still readable: %v", err)
	}
	// …but a's INHERITED blocks still decrypt (parent keys are separate).
	got := make([]byte, len(parentRun))
	if _, err := a.ReadAt(0, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, parentRun) {
		t.Fatal("inherited blocks corrupted by child crypto-erase")
	}
	// Sibling and base are untouched.
	assertImage(t, "sibling after a's erase", readAll(t, b), bModel)
	snap := make([]byte, imgSize)
	if _, err := base.ReadAtSnap(0, snap, 0, mustSnapID(t, base, "g")); err != nil {
		t.Fatal(err)
	}
	assertImage(t, "base snapshot after a's erase", snap, model)
}

func mustSnapID(t testing.TB, e *core.EncryptedImage, name string) uint64 {
	t.Helper()
	id, err := e.Image().SnapID(name)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestFlattenUnderLiveIO is the flatten acceptance: the walker completes
// while an fio workload writes to the clone, the flattened image reads
// correctly with the parent link severed, and it round-trips through a
// fresh Open with ONLY the child's key after the parent image has been
// deleted.
func TestFlattenUnderLiveIO(t *testing.T) {
	for _, child := range []combo{
		{core.SchemeGCM, core.LayoutObjectEnd},
		{core.SchemeLUKS2, core.LayoutNone}, // metadata-free child: sidecar copyup
	} {
		child := child
		t.Run(fmt.Sprintf("%v-%v", child.Scheme, child.Layout), func(t *testing.T) {
			const fioSpan = 1 << 20 // fio owns [0, 1 MiB)
			cl := testClient(t)
			base := createBase(t, cl, "base", core.SchemeXTSRand, core.LayoutObjectEnd)
			rng := rand.New(rand.NewSource(21))
			model := make([]byte, imgSize)
			scatterWrites(t, base.WriteAt, model, rng, 24)
			if _, _, err := base.CreateSnap(0, "g"); err != nil {
				t.Fatal(err)
			}
			keys := keysFor("base", "c")
			c, _, err := Create(0, cl, "rbd", "base", "g", "c", keys,
				core.Options{Scheme: child.Scheme, Layout: child.Layout})
			if err != nil {
				t.Fatal(err)
			}

			f, _, err := StartFlatten(0, c)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := StartFlatten(0, c); !errors.Is(err, ErrFlattenActive) {
				t.Fatalf("double StartFlatten: %v", err)
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
					TotalOps:   64,
					Seed:       3,
				}, c, 0)
			}()
			buf := make([]byte, 64<<10)
			for done := false; !done; {
				var err error
				done, _, err = f.Step(0)
				if err != nil {
					t.Fatal(err)
				}
				// Model region reads stay correct mid-flatten.
				off := fioSpan + rng.Int63n((imgSize-fioSpan-int64(len(buf)))/bs)*bs
				if _, err := c.ReadAt(0, buf, off); err != nil {
					t.Fatalf("read during flatten: %v", err)
				}
				if !bytes.Equal(buf, model[off:off+int64(len(buf))]) {
					t.Fatalf("data changed under flatten at %d", off)
				}
			}
			wg.Wait()
			if fioErr != nil {
				t.Fatalf("fio during flatten: %v", fioErr)
			}

			if c.Parent() != nil {
				t.Fatal("parent pointer survived flatten")
			}
			if found, _, _, err := flattenWalk.Active(0, c.enc.Image()); err != nil || found {
				t.Fatalf("flatten record survived completion: %v %v", found, err)
			}
			got := readAll(t, c)
			if !bytes.Equal(got[fioSpan:], model[fioSpan:]) {
				t.Fatal("model region corrupted by flatten")
			}

			// Delete the parent image entirely; the flattened child must
			// round-trip with only its own key.
			if _, err := rbd.Remove(0, cl, "rbd", "base"); err != nil {
				t.Fatal(err)
			}
			c2, _, err := Open(0, cl, "rbd", "c", keysFor("c"))
			if err != nil {
				t.Fatal(err)
			}
			got2 := readAll(t, c2)
			if !bytes.Equal(got2[fioSpan:], model[fioSpan:]) {
				t.Fatal("flattened image lost data after parent deletion")
			}
			if !bytes.Equal(got2[:fioSpan], got[:fioSpan]) {
				t.Fatal("fio region diverged across reopen")
			}
		})
	}
}

// TestFlattenCrashResume crashes the flatten at two points — mid-walk,
// and after the last copyup but before the parent is severed — and
// resumes from the persisted cursor each time.
func TestFlattenCrashResume(t *testing.T) {
	cl := testClient(t)
	base := createBase(t, cl, "base", core.SchemeEME2Rand, core.LayoutUnaligned)
	rng := rand.New(rand.NewSource(31))
	model := make([]byte, imgSize)
	scatterWrites(t, base.WriteAt, model, rng, 24)
	if _, _, err := base.CreateSnap(0, "g"); err != nil {
		t.Fatal(err)
	}
	keys := keysFor("base", "c")
	c, _, err := Create(0, cl, "rbd", "base", "g", "c", keys,
		core.Options{Scheme: core.SchemeXTSRand, Layout: core.LayoutOMAP})
	if err != nil {
		t.Fatal(err)
	}
	childModel := append([]byte(nil), model...)
	scatterWrites(t, c.WriteAt, childModel, rng, 8)

	f, _, err := StartFlatten(0, c)
	if err != nil {
		t.Fatal(err)
	}
	// Crash 1: mid-walk after 2 of 4 objects.
	for i := 0; i < 2; i++ {
		if _, _, err := f.Step(0); err != nil {
			t.Fatal(err)
		}
	}
	c2, _, err := Open(0, cl, "rbd", "c", keys) // fresh handle, cold caches
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := StartFlatten(0, c2); !errors.Is(err, ErrFlattenActive) {
		t.Fatalf("Start over interrupted flatten: %v", err)
	}
	f2, _, err := ResumeFlatten(0, c2)
	if err != nil {
		t.Fatal(err)
	}
	if p := f2.Progress(); p.NextObj != 2 || p.Objects != 4 {
		t.Fatalf("resumed cursor %+v", p)
	}
	// Crash 2: walk the remaining objects but stop before the sever step.
	for !f2.Progress().Done() {
		if _, _, err := f2.Step(0); err != nil {
			t.Fatal(err)
		}
	}
	c3, _, err := Open(0, cl, "rbd", "c", keys)
	if err != nil {
		t.Fatal(err)
	}
	if c3.Parent() == nil {
		t.Fatal("parent severed before the final step")
	}
	f3, _, err := ResumeFlatten(0, c3)
	if err != nil {
		t.Fatal(err)
	}
	done, _, err := f3.Step(0)
	if err != nil || !done {
		t.Fatalf("final step: done=%v err=%v", done, err)
	}
	if c3.Parent() != nil {
		t.Fatal("parent pointer survived")
	}
	if _, _, err := ResumeFlatten(0, c3); !errors.Is(err, ErrNoFlatten) {
		t.Fatalf("resume after completion: %v", err)
	}
	// Content intact, with only the child's key.
	c4, _, err := Open(0, cl, "rbd", "c", keysFor("c"))
	if err != nil {
		t.Fatal(err)
	}
	assertImage(t, "after crash-resume flatten", readAll(t, c4), childModel)

	// StartFlatten on a non-clone is rejected.
	if _, _, err := StartFlatten(0, c4); !errors.Is(err, ErrNotClone) {
		t.Fatalf("flatten of non-clone: %v", err)
	}
}

// TestFlattenPaced checks the shared walker budget: a paced flatten's
// virtual completion time is stretched to at least the op budget, and
// the result is still correct.
func TestFlattenPaced(t *testing.T) {
	cl := testClient(t)
	base := createBase(t, cl, "base", core.SchemeXTSRand, core.LayoutObjectEnd)
	rng := rand.New(rand.NewSource(41))
	model := make([]byte, imgSize)
	scatterWrites(t, base.WriteAt, model, rng, 24)
	if _, _, err := base.CreateSnap(0, "g"); err != nil {
		t.Fatal(err)
	}
	keys := keysFor("base", "c")
	c, _, err := Create(0, cl, "rbd", "base", "g", "c", keys,
		core.Options{Scheme: core.SchemeXTSRand, Layout: core.LayoutObjectEnd})
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := StartFlatten(0, c)
	if err != nil {
		t.Fatal(err)
	}
	f.SetPace(vtime.NewPacer(10, 0)) // 10 walker ops/s
	end, err := f.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	// 4 objects at 10 ops/s: the last copyup cannot start before 300ms.
	if end < vtime.Time(300e6) {
		t.Fatalf("paced flatten finished at %v, pacing not applied", end)
	}
	assertImage(t, "paced flatten content", readAll(t, c), model)
}

// TestCloneRekeyWalksOnlyChild pins "rekey must walk only child-owned
// blocks": a child rekey re-seals exactly the blocks the child owns,
// never touching (or needing) the parent.
func TestCloneRekeyWalksOnlyChild(t *testing.T) {
	cl := testClient(t)
	base := createBase(t, cl, "base", core.SchemeXTSRand, core.LayoutObjectEnd)
	rng := rand.New(rand.NewSource(51))
	model := make([]byte, imgSize)
	scatterWrites(t, base.WriteAt, model, rng, 24)
	if _, _, err := base.CreateSnap(0, "g"); err != nil {
		t.Fatal(err)
	}
	keys := keysFor("base", "c")
	c, _, err := Create(0, cl, "rbd", "base", "g", "c", keys,
		core.Options{Scheme: core.SchemeXTSRand, Layout: core.LayoutObjectEnd})
	if err != nil {
		t.Fatal(err)
	}
	// The child owns exactly 48 scattered blocks.
	childModel := append([]byte(nil), model...)
	own := make(map[int64]bool)
	for len(own) < 48 {
		b := rng.Int63n(blocks)
		if own[b] {
			continue
		}
		own[b] = true
		buf := make([]byte, bs)
		rng.Read(buf)
		if _, err := c.WriteAt(0, buf, b*bs); err != nil {
			t.Fatal(err)
		}
		copy(childModel[b*bs:], buf)
	}

	// Walk every object with the child's rekey primitive toward a fresh
	// epoch; the re-sealed count must equal the child's owned blocks.
	if _, _, err := c.Enc().BeginEpoch(0); err != nil {
		t.Fatal(err)
	}
	resealed := 0
	for obj := int64(0); obj < c.Enc().ObjectCount(); obj++ {
		n, _, err := c.Enc().RekeyObject(0, obj)
		if err != nil {
			t.Fatal(err)
		}
		resealed += n
	}
	if resealed != len(own) {
		t.Fatalf("rekey re-sealed %d blocks, child owns %d", resealed, len(own))
	}
	// After destroying the old epoch the child still reads fully: its own
	// blocks under the new key, inherited ones under the parent's.
	if _, err := c.Enc().DropEpoch(0, 0); err != nil {
		t.Fatal(err)
	}
	assertImage(t, "clone after child-only rekey", readAll(t, c), childModel)
}

// TestCloneGeometryGuards pins the construction error paths.
func TestCloneGeometryGuards(t *testing.T) {
	cl := testClient(t)
	base := createBase(t, cl, "base", core.SchemeXTSRand, core.LayoutObjectEnd)
	if _, _, err := base.CreateSnap(0, "g"); err != nil {
		t.Fatal(err)
	}
	keys := keysFor("base", "c")
	// Mismatched block size.
	_, _, err := Create(0, cl, "rbd", "base", "g", "c", keys,
		core.Options{Scheme: core.SchemeXTSRand, Layout: core.LayoutObjectEnd, BlockSize: 8192})
	if !errors.Is(err, ErrBlockSize) {
		t.Fatalf("block size mismatch: %v", err)
	}
	// Unknown snapshot.
	if _, _, err := Create(0, cl, "rbd", "base", "nope", "c", keys,
		core.Options{Scheme: core.SchemeXTSRand, Layout: core.LayoutObjectEnd}); !errors.Is(err, rbd.ErrNotFound) {
		t.Fatalf("unknown snapshot: %v", err)
	}
	// Missing child key.
	if _, _, err := Create(0, cl, "rbd", "base", "g", "c", keysFor("base"),
		core.Options{Scheme: core.SchemeXTSRand, Layout: core.LayoutObjectEnd}); !errors.Is(err, ErrNoKey) {
		t.Fatalf("missing child key: %v", err)
	}
}

// TestFlattenRefusedWithSnapshots pins the snapshot guard: a clone's own
// snapshot keeps resolving inherited blocks through the parent, so the
// sever would silently zero its view — StartFlatten must refuse.
func TestFlattenRefusedWithSnapshots(t *testing.T) {
	cl := testClient(t)
	base := createBase(t, cl, "base", core.SchemeXTSRand, core.LayoutObjectEnd)
	golden := bytes.Repeat([]byte{0xAB}, bs)
	if _, err := base.WriteAt(0, golden, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := base.CreateSnap(0, "g"); err != nil {
		t.Fatal(err)
	}
	keys := keysFor("base", "c")
	c, _, err := Create(0, cl, "rbd", "base", "g", "c", keys,
		core.Options{Scheme: core.SchemeXTSRand, Layout: core.LayoutObjectEnd})
	if err != nil {
		t.Fatal(err)
	}
	snapID, _, err := c.CreateSnap(0, "keep")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := StartFlatten(0, c); !errors.Is(err, ErrHasSnaps) {
		t.Fatalf("flatten with snapshots: %v", err)
	}
	// The snapshot's read-through stays intact.
	got := make([]byte, bs)
	if _, err := c.ReadAtSnap(0, got, 0, snapID); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatal("clone snapshot lost its inherited view")
	}
}

// TestCreateFailureLeavesNoStrandedImage pins that a Create failing on a
// missing child key does not burn the tenant's image name.
func TestCreateFailureLeavesNoStrandedImage(t *testing.T) {
	cl := testClient(t)
	base := createBase(t, cl, "base", core.SchemeXTSRand, core.LayoutObjectEnd)
	if _, _, err := base.CreateSnap(0, "g"); err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Scheme: core.SchemeXTSRand, Layout: core.LayoutObjectEnd}
	if _, _, err := Create(0, cl, "rbd", "base", "g", "c", keysFor("base"), opts); !errors.Is(err, ErrNoKey) {
		t.Fatalf("missing child key: %v", err)
	}
	// Retrying with the full keychain succeeds — nothing was stranded.
	if _, _, err := Create(0, cl, "rbd", "base", "g", "c", keysFor("base", "c"), opts); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRefusedDuringFlatten pins the reverse guard: while a
// flatten is in flight, snapshotting the clone is refused (the sever
// would zero the snapshot's inherited view); once the flatten completes,
// snapshots work again.
func TestSnapshotRefusedDuringFlatten(t *testing.T) {
	cl := testClient(t)
	base := createBase(t, cl, "base", core.SchemeXTSRand, core.LayoutObjectEnd)
	if _, err := base.WriteAt(0, bytes.Repeat([]byte{0xEE}, 8*bs), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := base.CreateSnap(0, "g"); err != nil {
		t.Fatal(err)
	}
	keys := keysFor("base", "c")
	c, _, err := Create(0, cl, "rbd", "base", "g", "c", keys,
		core.Options{Scheme: core.SchemeXTSRand, Layout: core.LayoutObjectEnd})
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := StartFlatten(0, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.CreateSnap(0, "mid"); !errors.Is(err, ErrFlattenActive) {
		t.Fatalf("snapshot during flatten: %v", err)
	}
	if _, err := f.Run(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.CreateSnap(0, "after"); err != nil {
		t.Fatalf("snapshot after flatten: %v", err)
	}
}

// TestCloneDiscardHugeMaskedRun covers the chunked masking path: a
// discard spanning a fully parent-present multi-object range masks in
// bounded chunks and still reads back as zeros with the parent intact.
func TestCloneDiscardHugeMaskedRun(t *testing.T) {
	cl := testClient(t)
	base := createBase(t, cl, "base", core.SchemeXTSRand, core.LayoutObjectEnd)
	full := make([]byte, imgSize)
	for i := range full {
		full[i] = byte(i*17) | 1
	}
	if _, err := base.WriteAt(0, full, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := base.CreateSnap(0, "g"); err != nil {
		t.Fatal(err)
	}
	keys := keysFor("base", "c")
	c, _, err := Create(0, cl, "rbd", "base", "g", "c", keys,
		core.Options{Scheme: core.SchemeXTSRand, Layout: core.LayoutObjectEnd})
	if err != nil {
		t.Fatal(err)
	}
	// One present run spanning 3 objects (> the 1 MiB mask chunk).
	if _, err := c.Discard(0, 0, 3<<20); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, c)
	want := append(make([]byte, 3<<20), full[3<<20:]...)
	assertImage(t, "huge masked discard", got, want)
	snap := make([]byte, imgSize)
	if _, err := base.ReadAtSnap(0, snap, 0, mustSnapID(t, base, "g")); err != nil {
		t.Fatal(err)
	}
	assertImage(t, "parent after huge discard", snap, full)
}
