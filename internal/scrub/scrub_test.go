package scrub

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/simdisk"
	"repro/internal/telemetry"
	"repro/internal/telemetry/health"
	"repro/internal/vtime"
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
	return c.NewClient("scrub-test")
}

var imgCounter int

func newEncrypted(t testing.TB, scheme core.Scheme, layout core.Layout) *core.EncryptedImage {
	t.Helper()
	cl := testClient(t)
	imgCounter++
	name := fmt.Sprintf("simg%d", imgCounter)
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

// plantGarbage overwrites one block's ciphertext on a single OSD's copy
// of an object — a direct single-copy write that does not re-replicate,
// exactly the damage replica repair exists for.
func plantGarbage(t *testing.T, e *core.EncryptedImage, osd int, objIdx, block int64) {
	t.Helper()
	garbage := make([]byte, bs)
	for i := range garbage {
		garbage[i] = byte(0xA5 ^ i)
	}
	res, _, err := e.Image().OperateOn(0, osd, objIdx, 0,
		[]rados.Op{{Kind: rados.OpWrite, Off: block * bs, Data: garbage}})
	if err != nil {
		t.Fatalf("plant corruption on osd%d: %v", osd, err)
	}
	for _, r := range res {
		if err := r.Status.Err(); err != nil {
			t.Fatalf("plant corruption on osd%d: %v", osd, err)
		}
	}
}

func TestScrubCleanImage(t *testing.T) {
	e := newEncrypted(t, core.SchemeGCM, core.LayoutObjectEnd)
	data := make([]byte, 3<<20)
	rand.New(rand.NewSource(1)).Read(data)
	if _, err := e.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	s, _, err := Start(0, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	p := s.Progress()
	if p.Found != 0 || p.Repaired != 0 {
		t.Fatalf("clean image scrub: %+v, want zero findings", p)
	}
	if want := int64(len(data)) / bs; p.Checked != want {
		t.Fatalf("checked %d blocks, want %d", p.Checked, want)
	}
	if p.NextObj != p.Objects || p.Objects != e.ObjectCount() {
		t.Fatalf("walk incomplete: %+v", p)
	}
	// The record is withdrawn on completion.
	if found, _, _, err := walk.Active(0, e.Image()); err != nil || found {
		t.Fatalf("record survives completion: found=%v err=%v", found, err)
	}
}

func TestScrubDetectsAndRepairs(t *testing.T) {
	e := newEncrypted(t, core.SchemeGCM, core.LayoutObjectEnd)
	data := make([]byte, imgSize)
	rand.New(rand.NewSource(2)).Read(data)
	if _, err := e.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	// Rot one block in each of two objects, on the primary copy only.
	plantGarbage(t, e, e.Image().Replicas(1)[0], 1, 7)
	plantGarbage(t, e, e.Image().Replicas(5)[0], 5, 0)

	// The damage is loud on the foreground read path...
	buf := make([]byte, len(data))
	if _, err := e.ReadAt(0, buf, 0); !errors.Is(err, core.ErrIntegrity) {
		t.Fatalf("read of rotted image: err=%v, want ErrIntegrity", err)
	}

	// ...and a full scrub finds and heals both blocks from replicas.
	s, _, err := Start(0, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(0); err != nil {
		t.Fatal(err)
	}
	p := s.Progress()
	if p.Found != 2 || p.Repaired != 2 {
		t.Fatalf("scrub found=%d repaired=%d, want 2/2", p.Found, p.Repaired)
	}
	if _, err := e.ReadAt(0, buf, 0); err != nil {
		t.Fatalf("read after scrub repair: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("scrub-repaired data does not match the original plaintext")
	}
}

func TestScrubCheckOnlyCountsWithoutRepair(t *testing.T) {
	e := newEncrypted(t, core.SchemeGCM, core.LayoutObjectEnd)
	data := make([]byte, 2<<20)
	rand.New(rand.NewSource(3)).Read(data)
	if _, err := e.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	plantGarbage(t, e, e.Image().Replicas(0)[0], 0, 4)

	// The health plane sees the unrepaired finding: the outstanding
	// level the scrub-findings-outstanding rule reads rises by exactly
	// the one planted block (earlier tests in this binary may have left
	// other images above zero).
	mon := health.NewMonitor(telemetry.Default)
	mon.Observe(0)
	before := outstanding(t, mon.Report(0))

	p, end := sweep(t, e, false)
	if p.Found != 1 || p.Repaired != 0 {
		t.Fatalf("check-only scrub found=%d repaired=%d, want 1/0", p.Found, p.Repaired)
	}
	mon.Observe(end)
	if v := outstanding(t, mon.Report(end)); !v.Firing || v.Value != before.Value+1 {
		t.Fatalf("scrub-findings-outstanding after a check-only finding: %v (before: %v)", v, before)
	}
	// The damage is still there, and still loud.
	buf := make([]byte, bs)
	if _, err := e.ReadAt(0, buf, 4*bs); !errors.Is(err, core.ErrIntegrity) {
		t.Fatalf("read after check-only scrub: err=%v, want ErrIntegrity", err)
	}

	// A repairing sweep heals the block and a clean one finds nothing:
	// after each the rule reads what it read before the damage.
	for _, want := range []Progress{{Found: 1, Repaired: 1}, {}} {
		p, end := sweep(t, e, true)
		if p.Found != want.Found || p.Repaired != want.Repaired {
			t.Fatalf("scrub found=%d repaired=%d, want %d/%d", p.Found, p.Repaired, want.Found, want.Repaired)
		}
		mon.Observe(end)
		if v := outstanding(t, mon.Report(end)); v.Firing != before.Firing || v.Value != before.Value {
			t.Fatalf("scrub-findings-outstanding after a repaired finding: %v (before the damage: %v)", v, before)
		}
	}
}

// A block no replica can repair is found by every sweep, and counts as
// one outstanding block however many sweeps see it.
func TestScrubUnrepairableCountsOnce(t *testing.T) {
	e := newEncrypted(t, core.SchemeGCM, core.LayoutObjectEnd)
	data := make([]byte, 2<<20)
	rand.New(rand.NewSource(5)).Read(data)
	if _, err := e.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	for _, osd := range e.Image().Replicas(1) {
		plantGarbage(t, e, osd, 1, 9)
	}
	level := mOutstanding.With(e.Image().Name())
	found := mFound.With(e.Image().Name())
	for i := 1; i <= 3; i++ {
		p, _ := sweep(t, e, true)
		if p.Found != 1 || p.Repaired != 0 {
			t.Fatalf("sweep %d: found=%d repaired=%d, want 1/0", i, p.Found, p.Repaired)
		}
		if level.Value() != 1 || found.Value() != int64(i) {
			t.Fatalf("sweep %d: outstanding %d, found total %d; want 1 and %d", i, level.Value(), found.Value(), i)
		}
	}
}

// sweep runs one whole scrub of e, repairing or check-only, and returns
// its final progress and end time.
func sweep(t *testing.T, e *core.EncryptedImage, repair bool) (Progress, vtime.Time) {
	t.Helper()
	s, _, err := Start(0, e)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRepair(repair)
	end, err := s.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return s.Progress(), end
}

// outstanding returns the scrub-findings-outstanding verdict of rep.
func outstanding(t *testing.T, rep health.Report) health.Verdict {
	t.Helper()
	for _, v := range rep.Verdicts {
		if v.Rule == "scrub-findings-outstanding" {
			return v
		}
	}
	t.Fatalf("no scrub-findings-outstanding verdict in\n%s", rep)
	return health.Verdict{}
}

func TestScrubCrashResume(t *testing.T) {
	e := newEncrypted(t, core.SchemeGCM, core.LayoutObjectEnd)
	data := make([]byte, imgSize)
	rand.New(rand.NewSource(4)).Read(data)
	if _, err := e.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	// Damage lives in a late object, past the pre-crash prefix.
	plantGarbage(t, e, e.Image().Replicas(6)[0], 6, 2)

	s, _, err := Start(0, e)
	if err != nil {
		t.Fatal(err)
	}
	// A second Start while the record exists must refuse.
	if _, _, err := Start(0, e); !errors.Is(err, ErrScrubActive) {
		t.Fatalf("second Start: err=%v, want ErrScrubActive", err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := s.Step(0); err != nil {
			t.Fatal(err)
		}
	}

	// "Crash": drop the walker, reload the image, resume from the cursor.
	e2 := reload(t, e)
	s2, _, err := Resume(0, e2)
	if err != nil {
		t.Fatal(err)
	}
	p := s2.Progress()
	if p.NextObj != 3 || p.Checked != s.Progress().Checked {
		t.Fatalf("resumed cursor %+v, want walk position 3", p)
	}
	if _, err := s2.Run(0); err != nil {
		t.Fatal(err)
	}
	p = s2.Progress()
	if p.Found != 1 || p.Repaired != 1 {
		t.Fatalf("resumed scrub found=%d repaired=%d, want 1/1", p.Found, p.Repaired)
	}
	buf := make([]byte, len(data))
	if _, err := e2.ReadAt(0, buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("data mismatch after crash-resumed scrub")
	}
	if found, _, _, err := walk.Active(0, e2.Image()); err != nil || found {
		t.Fatalf("record survives completion: found=%v err=%v", found, err)
	}
	// Nothing left to resume.
	if _, _, err := Resume(0, e2); !errors.Is(err, ErrNoScrub) {
		t.Fatalf("Resume with no record: err=%v, want ErrNoScrub", err)
	}
}

// scribbleProgress overwrites the persisted scrub cursor with raw
// bytes, simulating a torn OMAP write under the walker.
func scribbleProgress(t *testing.T, e *core.EncryptedImage, raw []byte) {
	t.Helper()
	res, _, err := e.Image().OperateHeader(0, []rados.Op{{
		Kind:  rados.OpOmapSet,
		Pairs: []rados.Pair{{Key: []byte(walk.Key), Value: raw}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != rados.StatusOK {
		t.Fatalf("raw omap set: %v", res[0].Status)
	}
}

func TestScrubResumeCorruptCursorRestarts(t *testing.T) {
	e := newEncrypted(t, core.SchemeGCM, core.LayoutObjectEnd)
	data := make([]byte, 2<<20)
	rand.New(rand.NewSource(5)).Read(data)
	if _, err := e.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	s, _, err := Start(0, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Step(0); err != nil {
		t.Fatal(err)
	}
	scribbleProgress(t, e, []byte("\xde\xadnot a cursor"))

	// The raw load classifies as corrupt, not as "no scrub".
	if _, _, _, err := walk.Active(0, e.Image()); !errors.Is(err, rbd.ErrCorruptCursor) {
		t.Fatalf("Active: %v, want ErrCorruptCursor", err)
	}
	s2, _, err := Resume(0, reload(t, e))
	if err != nil {
		t.Fatalf("Resume over corrupt cursor: %v", err)
	}
	p := s2.Progress()
	if p.NextObj != 0 || p.Objects != e.ObjectCount() || p.Checked != 0 {
		t.Fatalf("restarted cursor %+v, want fresh full walk", p)
	}
	// The replacement record is durable: a second crash-resume sees a
	// clean record, not the corruption.
	if _, _, err := Resume(0, reload(t, e)); err != nil {
		t.Fatalf("re-Resume after restart: %v", err)
	}
	if _, err := s2.Run(0); err != nil {
		t.Fatal(err)
	}
	// An out-of-domain cursor (resize happened, domain mismatch) gets the
	// same restart.
	if _, _, err := Start(0, e); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Image().SaveCursor(0, walk.Key, Progress{Cursor: rbd.Cursor{Objects: 999}}); err != nil {
		t.Fatal(err)
	}
	s4, _, err := Resume(0, reload(t, e))
	if err != nil {
		t.Fatal(err)
	}
	if p := s4.Progress(); p.Objects != e.ObjectCount() || p.NextObj != 0 {
		t.Fatalf("out-of-domain cursor not restarted: %+v", p)
	}
}

func TestScrubAbort(t *testing.T) {
	e := newEncrypted(t, core.SchemeGCM, core.LayoutObjectEnd)
	if _, _, err := Start(0, e); err != nil {
		t.Fatal(err)
	}
	if _, err := Abort(0, e); err != nil {
		t.Fatal(err)
	}
	if found, _, _, err := walk.Active(0, e.Image()); err != nil || found {
		t.Fatalf("record survives abort: found=%v err=%v", found, err)
	}
	// Start is possible again.
	if _, _, err := Start(0, e); err != nil {
		t.Fatal(err)
	}
}

// TestScrubAllCombos runs a clean-image sweep across every scheme ×
// layout pair: the walk itself (read geometry, epoch resolution, cursor
// lifecycle) is scheme-independent even though detectability is not.
func TestScrubAllCombos(t *testing.T) {
	for _, combo := range []struct {
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
	} {
		t.Run(fmt.Sprintf("%v-%v", combo.Scheme, combo.Layout), func(t *testing.T) {
			e := newEncrypted(t, combo.Scheme, combo.Layout)
			data := make([]byte, 2<<20)
			rand.New(rand.NewSource(6)).Read(data)
			if _, err := e.WriteAt(0, data, 0); err != nil {
				t.Fatal(err)
			}
			s, _, err := Start(0, e)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(0); err != nil {
				t.Fatal(err)
			}
			p := s.Progress()
			if p.Found != 0 {
				t.Fatalf("clean image reported %d bad blocks", p.Found)
			}
			if want := int64(len(data)) / bs; p.Checked != want {
				t.Fatalf("checked %d blocks, want %d", p.Checked, want)
			}
		})
	}
}
