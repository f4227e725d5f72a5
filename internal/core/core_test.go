package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/luks"
	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/simdisk"
	"repro/internal/vtime"
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
	return c.NewClient("core-test")
}

var imgCounter int

func newEncrypted(t testing.TB, scheme Scheme, layout Layout) *EncryptedImage {
	t.Helper()
	imgCounter++
	return newEncryptedNamed(t, fmt.Sprintf("eimg%d", imgCounter), scheme, layout)
}

// newEncryptedNamed formats and loads an image called name on a fresh
// cluster.
func newEncryptedNamed(t testing.TB, name string, scheme Scheme, layout Layout) *EncryptedImage {
	t.Helper()
	cl := testClient(t)
	if _, err := rbd.CreateWithObjectSize(0, cl, "rbd", name, 8<<20, 1<<20); err != nil {
		t.Fatal(err)
	}
	img, _, err := rbd.Open(0, cl, "rbd", name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Format(0, img, []byte("s3cret"), Options{Scheme: scheme, Layout: layout}); err != nil {
		t.Fatal(err)
	}
	e, _, err := Load(0, img, []byte("s3cret"))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// every scheme with each of its valid layouts
func allCombos() []struct {
	Scheme Scheme
	Layout Layout
} {
	return []struct {
		Scheme Scheme
		Layout Layout
	}{
		{SchemeLUKS2, LayoutNone},
		{SchemeEME2Det, LayoutNone},
		{SchemeXTSRand, LayoutUnaligned},
		{SchemeXTSRand, LayoutObjectEnd},
		{SchemeXTSRand, LayoutOMAP},
		{SchemeGCM, LayoutUnaligned},
		{SchemeGCM, LayoutObjectEnd},
		{SchemeGCM, LayoutOMAP},
		{SchemeEME2Rand, LayoutUnaligned},
		{SchemeEME2Rand, LayoutObjectEnd},
		{SchemeEME2Rand, LayoutOMAP},
	}
}

func TestRoundTripAllCombos(t *testing.T) {
	for _, combo := range allCombos() {
		t.Run(fmt.Sprintf("%v/%v", combo.Scheme, combo.Layout), func(t *testing.T) {
			e := newEncrypted(t, combo.Scheme, combo.Layout)
			data := make([]byte, 64<<10)
			rand.New(rand.NewSource(1)).Read(data)
			// Cross-object write (objects are 1 MiB here).
			if _, err := e.WriteAt(0, data, 1<<20-32<<10); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(data))
			if _, err := e.ReadAt(0, got, 1<<20-32<<10); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("round trip failed")
			}
		})
	}
}

// TestSingleClientVirtualTimeIsDeterministic is the rados test of the
// same name one layer up: a single goroutine's cross-object write, read,
// discard and rekey step — the core and rbd joins and a walker primitive
// — end at the same virtual instants on two fresh stacks.
func TestSingleClientVirtualTimeIsDeterministic(t *testing.T) {
	for _, combo := range []struct {
		Scheme Scheme
		Layout Layout
	}{
		{SchemeLUKS2, LayoutNone},
		{SchemeXTSRand, LayoutObjectEnd},
		{SchemeGCM, LayoutOMAP},
	} {
		t.Run(fmt.Sprintf("%v/%v", combo.Scheme, combo.Layout), func(t *testing.T) {
			run := func() []vtime.Time {
				// One image name on both stacks: placement hashes it.
				e := newEncryptedNamed(t, "det", combo.Scheme, combo.Layout)

				// Every op arrives a third of the way into the previous
				// one, so consecutive ops queue on shared resources.
				var at vtime.Time
				var ends []vtime.Time
				step := func(end vtime.Time, err error) {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
					ends = append(ends, end)
					at += vtime.Time(end.Sub(at) / 3)
				}
				buf := make([]byte, 64<<10)
				const off = 1<<20 - 32<<10 // spans objects 0 and 1
				step(e.WriteAt(at, buf, off))
				step(e.ReadAt(at, buf, off))
				step(e.Discard(at, off+16<<10, 32<<10))
				_, end, err := e.BeginEpoch(at)
				step(end, err)
				_, end, err = e.RekeyObject(at, 0)
				step(end, err)
				return ends
			}
			a, b := run(), run()
			if !slices.Equal(a, b) {
				t.Fatalf("end times differ between two identical single-goroutine runs:\n %v\n %v", a, b)
			}
		})
	}
}

func TestCiphertextActuallyEncrypted(t *testing.T) {
	e := newEncrypted(t, SchemeXTSRand, LayoutObjectEnd)
	plain := bytes.Repeat([]byte("TOPSECRET4096..."), 256)
	if _, err := e.WriteAt(0, plain, 0); err != nil {
		t.Fatal(err)
	}
	// Raw storage view (the attacker's view).
	res, _, err := e.Image().Operate(0, 0, 0, []rados.Op{{Kind: rados.OpRead, Off: 0, Len: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(res[0].Data, []byte("TOPSECRET")) {
		t.Fatal("plaintext visible at the storage layer")
	}
}

func TestWrongPassphrase(t *testing.T) {
	e := newEncrypted(t, SchemeLUKS2, LayoutNone)
	if _, _, err := Load(0, e.Image(), []byte("wrong")); !errors.Is(err, ErrPassphrase) {
		t.Fatalf("got %v", err)
	}
}

func TestLoadUnformatted(t *testing.T) {
	cl := testClient(t)
	if _, err := rbd.Create(0, cl, "rbd", "plain", 4<<20); err != nil {
		t.Fatal(err)
	}
	img, _, err := rbd.Open(0, cl, "rbd", "plain")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(0, img, []byte("x")); !errors.Is(err, ErrNotEncrypted) {
		t.Fatalf("got %v", err)
	}
}

func TestDoubleFormatRejected(t *testing.T) {
	e := newEncrypted(t, SchemeLUKS2, LayoutNone)
	if _, err := Format(0, e.Image(), []byte("p"), Options{}); err == nil {
		t.Fatal("double format accepted")
	}
}

func TestOptionValidation(t *testing.T) {
	cases := []Options{
		{Scheme: SchemeLUKS2, Layout: LayoutOMAP},        // no metadata to place
		{Scheme: SchemeXTSRand, Layout: LayoutNone},      // metadata needs a home
		{Scheme: SchemeGCM, Layout: LayoutNone},          // same
		{Scheme: SchemeEME2Det, Layout: LayoutObjectEnd}, // deterministic: no metadata
	}
	for i, o := range cases {
		if err := o.Validate(); err == nil {
			t.Fatalf("case %d accepted: %+v", i, o)
		}
	}
}

func TestAlignmentEnforced(t *testing.T) {
	e := newEncrypted(t, SchemeLUKS2, LayoutNone)
	if _, err := e.WriteAt(0, make([]byte, 100), 0); !errors.Is(err, ErrAlignment) {
		t.Fatalf("got %v", err)
	}
	if _, err := e.ReadAt(0, make([]byte, 4096), 123); !errors.Is(err, ErrAlignment) {
		t.Fatalf("got %v", err)
	}
}

func TestHolesReadZero(t *testing.T) {
	for _, combo := range allCombos() {
		e := newEncrypted(t, combo.Scheme, combo.Layout)
		got := make([]byte, 8192)
		for i := range got {
			got[i] = 0xFF
		}
		if _, err := e.ReadAt(0, got, 2<<20); err != nil {
			t.Fatalf("%v/%v: %v", combo.Scheme, combo.Layout, err)
		}
		if !bytes.Equal(got, make([]byte, 8192)) {
			t.Fatalf("%v/%v: hole not zero", combo.Scheme, combo.Layout)
		}
	}
}

// cryptorAt fetches the live cryptor of one key epoch.
func cryptorAt(t *testing.T, e *EncryptedImage, epoch uint32) cryptor {
	t.Helper()
	c, err := e.ring.cryptorFor(epoch)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// rawBlock reads the stored ciphertext of image block b (attacker view).
func rawBlock(t *testing.T, e *EncryptedImage, block int64) []byte {
	t.Helper()
	bs := e.Options().BlockSize
	objBlocks := e.Image().ObjectSize() / bs
	objIdx := block / objBlocks
	startBlock := block % objBlocks
	res, _, err := e.Image().Operate(0, objIdx, 0, e.plan.readOps(startBlock, 1))
	if err != nil {
		t.Fatal(err)
	}
	cipher, _, _, err := e.plan.parseRead(startBlock, 1, res)
	if err != nil {
		t.Fatal(err)
	}
	return cipher
}

// The paper's §1 problem: with the deterministic baseline, overwriting a
// sector with modified data produces ciphertext that reveals WHICH
// sub-blocks changed; rewriting identical data is detectable.
func TestDeterministicBaselineLeaks(t *testing.T) {
	e := newEncrypted(t, SchemeLUKS2, LayoutNone)
	plain := make([]byte, 4096)
	for i := range plain {
		plain[i] = byte(i)
	}
	if _, err := e.WriteAt(0, plain, 0); err != nil {
		t.Fatal(err)
	}
	ct1 := rawBlock(t, e, 0)

	// Overwrite with identical data: identical ciphertext (leak #1).
	if _, err := e.WriteAt(0, plain, 0); err != nil {
		t.Fatal(err)
	}
	ct2 := rawBlock(t, e, 0)
	if !bytes.Equal(ct1, ct2) {
		t.Fatal("deterministic scheme should repeat ciphertext")
	}

	// Change one byte: only the containing 16-byte sub-block changes
	// (leak #2, the narrow-block property of §2.1).
	plain[1000] ^= 1
	if _, err := e.WriteAt(0, plain, 0); err != nil {
		t.Fatal(err)
	}
	ct3 := rawBlock(t, e, 0)
	changed := 0
	for sb := 0; sb < 256; sb++ {
		if !bytes.Equal(ct1[sb*16:(sb+1)*16], ct3[sb*16:(sb+1)*16]) {
			changed++
		}
	}
	if changed != 1 {
		t.Fatalf("expected exactly 1 changed sub-block, got %d", changed)
	}
}

// The paper's fix: with a random IV every overwrite produces fresh
// ciphertext, and an adversary cannot even tell whether the plaintext
// changed.
func TestRandomIVHidesOverwrites(t *testing.T) {
	for _, layout := range []Layout{LayoutUnaligned, LayoutObjectEnd, LayoutOMAP} {
		t.Run(layout.String(), func(t *testing.T) {
			e := newEncrypted(t, SchemeXTSRand, layout)
			plain := bytes.Repeat([]byte{0x77}, 4096)
			if _, err := e.WriteAt(0, plain, 0); err != nil {
				t.Fatal(err)
			}
			ct1 := rawBlock(t, e, 0)
			if _, err := e.WriteAt(0, plain, 0); err != nil {
				t.Fatal(err)
			}
			ct2 := rawBlock(t, e, 0)
			if bytes.Equal(ct1, ct2) {
				t.Fatal("identical overwrite should produce fresh ciphertext")
			}
			// And every sub-block changes, not just one.
			changed := 0
			for sb := 0; sb < 256; sb++ {
				if !bytes.Equal(ct1[sb*16:(sb+1)*16], ct2[sb*16:(sb+1)*16]) {
					changed++
				}
			}
			if changed < 250 {
				t.Fatalf("only %d/256 sub-blocks changed", changed)
			}
		})
	}
}

// EME2 deterministic: an exact overwrite is identifiable, but a one-bit
// change diffuses over the whole sector (§2.2's wide-block tradeoff).
func TestWideBlockDeterministicTradeoff(t *testing.T) {
	e := newEncrypted(t, SchemeEME2Det, LayoutNone)
	plain := make([]byte, 4096)
	if _, err := e.WriteAt(0, plain, 0); err != nil {
		t.Fatal(err)
	}
	ct1 := rawBlock(t, e, 0)
	plain[2000] ^= 1
	if _, err := e.WriteAt(0, plain, 0); err != nil {
		t.Fatal(err)
	}
	ct2 := rawBlock(t, e, 0)
	changed := 0
	for sb := 0; sb < 256; sb++ {
		if !bytes.Equal(ct1[sb*16:(sb+1)*16], ct2[sb*16:(sb+1)*16]) {
			changed++
		}
	}
	if changed != 256 {
		t.Fatalf("wide-block should change all sub-blocks, got %d", changed)
	}
}

// Replay protection (§2.2): moving ciphertext+IV to a different LBA must
// not decrypt to the original plaintext, because the block address is
// bound into the tweak.
func TestCrossLBAReplayFails(t *testing.T) {
	e := newEncrypted(t, SchemeXTSRand, LayoutObjectEnd)
	secret := bytes.Repeat([]byte{0xAB}, 4096)
	other := bytes.Repeat([]byte{0xCD}, 4096)
	if _, err := e.WriteAt(0, secret, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.WriteAt(0, other, 4096); err != nil {
		t.Fatal(err)
	}

	// Attacker at the OSD copies block 0's ciphertext AND its IV over
	// block 1's.
	bs := int64(4096)
	res, _, err := e.Image().Operate(0, 0, 0, e.plan.readOps(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	cipher0, meta0, _, err := e.plan.parseRead(0, 1, res)
	if err != nil {
		t.Fatal(err)
	}
	_ = bs
	ops := e.plan.writeOps(1, cipher0, meta0)
	if _, _, err := e.Image().Operate(0, 0, 0, ops); err != nil {
		t.Fatal(err)
	}

	got := make([]byte, 4096)
	if _, err := e.ReadAt(0, got, 4096); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, secret) {
		t.Fatal("replayed ciphertext decrypted to the original plaintext — replay protection missing")
	}
}

// With the authenticated scheme the same replay is *detected*, not just
// garbled.
func TestGCMReplayDetected(t *testing.T) {
	e := newEncrypted(t, SchemeGCM, LayoutObjectEnd)
	if _, err := e.WriteAt(0, bytes.Repeat([]byte{1}, 4096), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.WriteAt(0, bytes.Repeat([]byte{2}, 4096), 4096); err != nil {
		t.Fatal(err)
	}
	res, _, err := e.Image().Operate(0, 0, 0, e.plan.readOps(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	cipher0, meta0, _, err := e.plan.parseRead(0, 1, res)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Image().Operate(0, 0, 0, e.plan.writeOps(1, cipher0, meta0)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if _, err := e.ReadAt(0, got, 4096); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("replay should fail authentication, got %v", err)
	}
}

// Tampering with stored ciphertext is undetectable without a MAC but
// caught by SchemeGCM (§3.1's integrity extension).
func TestGCMTamperDetected(t *testing.T) {
	for _, layout := range []Layout{LayoutUnaligned, LayoutObjectEnd, LayoutOMAP} {
		t.Run(layout.String(), func(t *testing.T) {
			e := newEncrypted(t, SchemeGCM, layout)
			if _, err := e.WriteAt(0, bytes.Repeat([]byte{7}, 4096), 0); err != nil {
				t.Fatal(err)
			}
			// Flip one stored ciphertext bit at the OSD.
			res, _, err := e.Image().Operate(0, 0, 0, e.plan.readOps(0, 1))
			if err != nil {
				t.Fatal(err)
			}
			cipher, meta, _, err := e.plan.parseRead(0, 1, res)
			if err != nil {
				t.Fatal(err)
			}
			cipher[100] ^= 1
			if _, _, err := e.Image().Operate(0, 0, 0, e.plan.writeOps(0, cipher, meta)); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 4096)
			if _, err := e.ReadAt(0, got, 0); !errors.Is(err, ErrIntegrity) {
				t.Fatalf("tamper not detected: %v", err)
			}
		})
	}
}

// XTS without a MAC accepts spliced ciphertext silently — the attack GCM
// exists to stop (contrast with TestGCMTamperDetected).
func TestXTSTamperUndetected(t *testing.T) {
	e := newEncrypted(t, SchemeXTSRand, LayoutObjectEnd)
	if _, err := e.WriteAt(0, bytes.Repeat([]byte{7}, 4096), 0); err != nil {
		t.Fatal(err)
	}
	res, _, err := e.Image().Operate(0, 0, 0, e.plan.readOps(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	cipher, meta, _, err := e.plan.parseRead(0, 1, res)
	if err != nil {
		t.Fatal(err)
	}
	cipher[100] ^= 1
	if _, _, err := e.Image().Operate(0, 0, 0, e.plan.writeOps(0, cipher, meta)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if _, err := e.ReadAt(0, got, 0); err != nil {
		t.Fatalf("XTS cannot detect tampering, read should succeed: %v", err)
	}
	if bytes.Equal(got, bytes.Repeat([]byte{7}, 4096)) {
		t.Fatal("tampered ciphertext decrypted to original")
	}
}

// Snapshots: stored IVs must version with the data, or old snapshots
// would not decrypt.
func TestSnapshotsDecryptWithTheirIVs(t *testing.T) {
	for _, combo := range allCombos() {
		t.Run(fmt.Sprintf("%v/%v", combo.Scheme, combo.Layout), func(t *testing.T) {
			e := newEncrypted(t, combo.Scheme, combo.Layout)
			v1 := bytes.Repeat([]byte{1}, 8192)
			v2 := bytes.Repeat([]byte{2}, 8192)
			if _, err := e.WriteAt(0, v1, 0); err != nil {
				t.Fatal(err)
			}
			id, _, err := e.CreateSnap(0, "s1")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.WriteAt(0, v2, 0); err != nil {
				t.Fatal(err)
			}
			head := make([]byte, 8192)
			if _, err := e.ReadAt(0, head, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(head, v2) {
				t.Fatal("head should see v2")
			}
			old := make([]byte, 8192)
			if _, err := e.ReadAtSnap(0, old, 0, id); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(old, v1) {
				t.Fatal("snapshot should decrypt to v1")
			}
		})
	}
}

// The snapshot-forensics motivation (§1): with deterministic IVs, equal
// sectors across snapshots yield equal ciphertext, so an attacker holding
// the storage can diff versions. Random IVs destroy that signal.
func TestSnapshotForensics(t *testing.T) {
	// Deterministic: same plaintext in snap and head => same ciphertext.
	det := newEncrypted(t, SchemeLUKS2, LayoutNone)
	plain := bytes.Repeat([]byte{0x42}, 4096)
	if _, err := det.WriteAt(0, plain, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := det.CreateSnap(0, "s"); err != nil {
		t.Fatal(err)
	}
	if _, err := det.WriteAt(0, plain, 0); err != nil { // unchanged content
		t.Fatal(err)
	}
	headCT := rawBlock(t, det, 0)
	snapCT := rawSnapBlock(t, det, 0, 1)
	if !bytes.Equal(headCT, snapCT) {
		t.Fatal("deterministic snapshots should expose equality")
	}

	// Random IV: same plaintext => unlinkable ciphertext versions.
	rnd := newEncrypted(t, SchemeXTSRand, LayoutObjectEnd)
	if _, err := rnd.WriteAt(0, plain, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rnd.CreateSnap(0, "s"); err != nil {
		t.Fatal(err)
	}
	if _, err := rnd.WriteAt(0, plain, 0); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(rawBlock(t, rnd, 0), rawSnapBlock(t, rnd, 0, 1)) {
		t.Fatal("random IV should make versions unlinkable")
	}
}

func rawSnapBlock(t *testing.T, e *EncryptedImage, block int64, snapID uint64) []byte {
	t.Helper()
	bs := e.Options().BlockSize
	objBlocks := e.Image().ObjectSize() / bs
	res, _, err := e.Image().Operate(0, block/objBlocks, snapID, e.plan.readOps(block%objBlocks, 1))
	if err != nil {
		t.Fatal(err)
	}
	cipher, _, _, err := e.plan.parseRead(block%objBlocks, 1, res)
	if err != nil {
		t.Fatal(err)
	}
	return cipher
}

// §3.3's in-text sector-count analysis.
func TestSectorCountModel(t *testing.T) {
	// "in a 4KB write/read, a minimum of two physical disk sectors need
	// to be accessed (one for the data and one for the IV) versus one in
	// the baseline"
	if got := SectorCount(LayoutNone, 4096, 4096, 16); got != 1 {
		t.Fatalf("baseline 4K = %d", got)
	}
	if got := SectorCount(LayoutObjectEnd, 4096, 4096, 16); got != 2 {
		t.Fatalf("object-end 4K = %d", got)
	}
	// "a 32KB IO typically requires 9 sectors to be accessed versus 8"
	if got := SectorCount(LayoutNone, 32<<10, 4096, 16); got != 8 {
		t.Fatalf("baseline 32K = %d", got)
	}
	if got := SectorCount(LayoutObjectEnd, 32<<10, 4096, 16); got != 9 {
		t.Fatalf("object-end 32K = %d", got)
	}
	// OMAP adds no data-path sectors.
	if got := SectorCount(LayoutOMAP, 32<<10, 4096, 16); got != 8 {
		t.Fatalf("omap 32K = %d", got)
	}
	// Unaligned touches at least as many sectors as object-end.
	if SectorCount(LayoutUnaligned, 32<<10, 4096, 16) < 9 {
		t.Fatal("unaligned should touch at least the object-end count")
	}
	if SectorCount(LayoutNone, 0, 4096, 16) != 0 {
		t.Fatal("zero IO")
	}
}

// TestZeroCiphertextNotAHole is the regression for the old sparse-read
// heuristic, which sniffed all-zero ciphertext (plus all-zero metadata)
// as a hole. A block whose plaintext is Decrypt(zeros) legitimately
// stores all-zero ciphertext; it must read back as that plaintext, not
// as zeros. Presence now comes from the read results (object existence,
// logical size, OMAP keys), so this round-trips.
func TestZeroCiphertextNotAHole(t *testing.T) {
	// Deterministic, metadata-free schemes: the exact case the old
	// heuristic was guaranteed to get wrong (meta is empty, so the check
	// reduced to allZero(ciphertext)).
	for _, scheme := range []Scheme{SchemeLUKS2, SchemeEME2Det} {
		t.Run(scheme.String(), func(t *testing.T) {
			e := newEncrypted(t, scheme, LayoutNone)
			// plain = Decrypt(zeros) at block 0, so Encrypt(plain) == zeros.
			plain := make([]byte, 4096)
			if err := cryptorAt(t, e, 0).open(plain, make([]byte, 4096), 0, nil); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(plain, make([]byte, 4096)) {
				t.Fatal("Decrypt(0) should not be zeros for a sane cipher")
			}
			if _, err := e.WriteAt(0, plain, 0); err != nil {
				t.Fatal(err)
			}
			if ct := rawBlock(t, e, 0); !bytes.Equal(ct, make([]byte, 4096)) {
				t.Fatal("test premise broken: ciphertext not all zeros")
			}
			got := make([]byte, 4096)
			if _, err := e.ReadAt(0, got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, plain) {
				t.Fatal("all-zero ciphertext misread as a hole")
			}
		})
	}

	// Random-IV scheme: plant all-zero ciphertext with a chosen IV at the
	// OSD (the layout keeps the IV, which marks the block present) and
	// check the block decrypts rather than reading as a hole.
	for _, layout := range []Layout{LayoutUnaligned, LayoutObjectEnd, LayoutOMAP} {
		t.Run("xts-rand/"+layout.String(), func(t *testing.T) {
			e := newEncrypted(t, SchemeXTSRand, layout)
			// Stored slot = scheme IV bytes + the epoch tag (epoch 0 here).
			meta := bytes.Repeat([]byte{0x5A}, e.MetaLen())
			for i := int(e.schemeMetaLen()); i < len(meta); i++ {
				meta[i] = 0
			}
			plain := make([]byte, 4096)
			if err := cryptorAt(t, e, 0).open(plain, make([]byte, 4096), 0, meta[:e.schemeMetaLen()]); err != nil {
				t.Fatal(err)
			}
			if _, _, err := e.Image().Operate(0, 0, 0, e.plan.writeOps(0, make([]byte, 4096), meta)); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 4096)
			if _, err := e.ReadAt(0, got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, plain) {
				t.Fatal("zero ciphertext with a real IV misread as a hole")
			}
		})
	}
}

// TestLoadRejectsTablelessContainer: a container without its key-epoch
// table (no wrap salt, no epochs) is a format no build writes, so
// luks.Unmarshal and Load refuse it as corrupt rather than read its
// slots with a guessed untagged geometry.
func TestLoadRejectsTablelessContainer(t *testing.T) {
	for _, combo := range []struct {
		Scheme Scheme
		Layout Layout
	}{{SchemeXTSRand, LayoutObjectEnd}, {SchemeLUKS2, LayoutNone}} {
		t.Run(fmt.Sprintf("%v/%v", combo.Scheme, combo.Layout), func(t *testing.T) {
			e := newEncrypted(t, combo.Scheme, combo.Layout)
			var desc format
			if err := json.Unmarshal(e.Image().EncryptionBlob(), &desc); err != nil {
				t.Fatal(err)
			}
			container, err := luks.Unmarshal(desc.LUKS)
			if err != nil {
				t.Fatal(err)
			}
			container.Epochs, container.WrapSalt, container.Current = nil, nil, 0
			if desc.LUKS, err = container.Marshal(); err != nil {
				t.Fatal(err)
			}
			if _, err := luks.Unmarshal(desc.LUKS); !errors.Is(err, luks.ErrCorrupt) {
				t.Fatalf("luks.Unmarshal of a table-less container: %v, want ErrCorrupt", err)
			}
			blob, err := json.Marshal(desc)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Image().SetEncryptionBlob(0, blob); err != nil {
				t.Fatal(err)
			}
			if _, _, err := Load(0, e.Image(), []byte("s3cret")); !errors.Is(err, luks.ErrCorrupt) {
				t.Fatalf("Load of a table-less container: %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestMissingSidecarIsLoud: under LayoutNone an object that exists
// without its allocation sidecar (sealed bytes planted through the raw
// writeOps path) has unknown presence and epochs. Every entry point
// that fetches it or updates its sidecar fails with ErrIntegrity, and
// none of them writes a sidecar guessed from the object's size.
func TestMissingSidecarIsLoud(t *testing.T) {
	for _, scheme := range []Scheme{SchemeLUKS2, SchemeEME2Det} {
		t.Run(scheme.String(), func(t *testing.T) {
			e := newEncrypted(t, scheme, LayoutNone)
			cipher := make([]byte, 4096)
			if err := cryptorAt(t, e, 0).seal(cipher, bytes.Repeat([]byte{0x3C}, 4096), 0, nil); err != nil {
				t.Fatal(err)
			}
			if _, _, err := e.Image().Operate(0, 0, 0, e.plan.writeOps(0, cipher, nil)); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 4096)
			for _, c := range []struct {
				name string
				run  func() error
			}{
				{"ReadAt", func() error { _, err := e.ReadAt(0, buf, 0); return err }},
				{"WriteAt", func() error { _, err := e.WriteAt(0, buf, 4096); return err }},
				{"Discard", func() error { _, err := e.Discard(0, 0, 4096); return err }},
				{"PresentRange", func() error { _, _, err := e.PresentRange(0, 0, 4096, 0); return err }},
				{"VerifyObject", func() error { _, _, _, err := e.VerifyObject(0, 0); return err }},
				{"CopyupObject", func() error {
					_, _, err := e.CopyupObject(0, 0, func(at vtime.Time, blocks []int64, plain []byte) ([]bool, vtime.Time, error) {
						t.Error("CopyupObject asked for plaintext of an object with unknown presence")
						return nil, at, nil
					})
					return err
				}},
			} {
				if err := c.run(); !errors.Is(err, ErrIntegrity) {
					t.Errorf("%s on an object without its sidecar: %v, want ErrIntegrity", c.name, err)
				}
			}
			res, _, err := e.Image().Operate(0, 0, 0, []rados.Op{{Kind: rados.OpGetAttr, Key: []byte(allocAttr)}})
			if err != nil {
				t.Fatal(err)
			}
			if res[0].Status != rados.StatusNotFound {
				t.Fatalf("a sidecar was written for the object: status %v", res[0].Status)
			}
		})
	}
}

func mustLoad(t *testing.T, img *rbd.Image) *EncryptedImage {
	t.Helper()
	e, _, err := Load(0, img, []byte("s3cret"))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestParseHelpers(t *testing.T) {
	for _, s := range []Scheme{SchemeLUKS2, SchemeXTSRand, SchemeGCM, SchemeEME2Det, SchemeEME2Rand} {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Fatalf("scheme %v: %v", s, err)
		}
	}
	for _, l := range []Layout{LayoutNone, LayoutUnaligned, LayoutObjectEnd, LayoutOMAP} {
		got, err := ParseLayout(l.String())
		if err != nil || got != l {
			t.Fatalf("layout %v: %v", l, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Fatal("bogus scheme accepted")
	}
	if _, err := ParseLayout("bogus"); err == nil {
		t.Fatal("bogus layout accepted")
	}
}

// Randomized model test over a random combo each run (seeded). The model
// tracks which blocks were written: written blocks must read back
// exactly; never-written blocks must read as zeros when the scheme
// stores per-block metadata (exact hole detection via IV presence),
// while metadata-free schemes only guarantee zeros for blocks beyond the
// object's logical size — an interior never-written block decrypts to
// deterministic garbage, as with dm-crypt, so its content is unchecked.
func TestRandomizedEncryptedModel(t *testing.T) {
	combos := allCombos()
	for _, combo := range []int{1, 3, 4, 6} { // eme-det, xts/objend, xts/omap, gcm/objend
		c := combos[combo]
		t.Run(fmt.Sprintf("%v-%v", c.Scheme, c.Layout), func(t *testing.T) {
			e := newEncrypted(t, c.Scheme, c.Layout)
			const size = 4 << 20
			model := make([]byte, size)
			written := make([]bool, size/4096)
			exactHoles := e.MetaLen() > 0
			rng := rand.New(rand.NewSource(5))
			for step := 0; step < 60; step++ {
				blocks := int64(rng.Intn(32) + 1)
				off := rng.Int63n(size/4096-blocks+1) * 4096
				n := blocks * 4096
				if rng.Intn(2) == 0 {
					data := make([]byte, n)
					rng.Read(data)
					if _, err := e.WriteAt(0, data, off); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					copy(model[off:], data)
					for b := int64(0); b < blocks; b++ {
						written[off/4096+b] = true
					}
				} else {
					got := make([]byte, n)
					if _, err := e.ReadAt(0, got, off); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					for b := int64(0); b < blocks; b++ {
						blk := off/4096 + b
						if !written[blk] && !exactHoles {
							continue // unspecified: dm-crypt hole semantics
						}
						lo, hi := blk*4096, (blk+1)*4096
						if !bytes.Equal(got[lo-off:hi-off], model[lo:hi]) {
							t.Fatalf("step %d: block %d mismatch (written=%v)", step, blk, written[blk])
						}
					}
				}
			}
		})
	}
}
