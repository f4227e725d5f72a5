package clone

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/rados"
	"repro/internal/rbd"
)

// TestFlattenCorruptCursorRestartsCleanly corrupts the flatten cursor
// mid-walk and checks ResumeFlatten's recovery contract: no panic, no
// error, a fresh full walk from object zero that still converges to a
// correctly flattened clone (copyup is idempotent, so re-walked objects
// are no-ops).
func TestFlattenCorruptCursorRestartsCleanly(t *testing.T) {
	cl := testClient(t)
	base := createBase(t, cl, "base", core.SchemeXTSRand, core.LayoutOMAP)
	rng := rand.New(rand.NewSource(41))
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
	for i := 0; i < 2; i++ {
		if _, _, err := f.Step(0); err != nil {
			t.Fatal(err)
		}
	}

	// Torn OMAP write under the walker: raw garbage where the JSON
	// cursor should be.
	res, _, err := c.enc.Image().OperateHeader(0, []rados.Op{{
		Kind:  rados.OpOmapSet,
		Pairs: []rados.Pair{{Key: []byte(flattenWalk.Key), Value: []byte("\xba\xadcursor bytes")}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != rados.StatusOK {
		t.Fatalf("raw omap set: %v", res[0].Status)
	}
	if _, _, _, err := flattenWalk.Active(0, c.enc.Image()); !errors.Is(err, rbd.ErrCorruptCursor) {
		t.Fatalf("FlattenActive: %v, want ErrCorruptCursor", err)
	}

	c2, _, err := Open(0, cl, "rbd", "c", keys)
	if err != nil {
		t.Fatal(err)
	}
	f2, _, err := ResumeFlatten(0, c2)
	if err != nil {
		t.Fatalf("ResumeFlatten over corrupt cursor: %v", err)
	}
	if p := f2.Progress(); p.NextObj != 0 || p.Objects != c2.enc.ObjectCount() {
		t.Fatalf("restarted cursor %+v, want fresh full walk", p)
	}
	for {
		done, _, err := f2.Step(0)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if c2.Parent() != nil {
		t.Fatal("parent pointer survived restarted flatten")
	}
	if _, _, err := ResumeFlatten(0, c2); !errors.Is(err, ErrNoFlatten) {
		t.Fatalf("resume after completion: %v", err)
	}
	// Content intact under the child's key alone.
	c3, _, err := Open(0, cl, "rbd", "c", keysFor("c"))
	if err != nil {
		t.Fatal(err)
	}
	assertImage(t, "after corrupt-cursor flatten restart", readAll(t, c3), childModel)
}

// TestFlattenOutOfRangeCursorRestarts covers decodable records whose
// positions lie outside the walk domain.
func TestFlattenOutOfRangeCursorRestarts(t *testing.T) {
	cl := testClient(t)
	base := createBase(t, cl, "base", core.SchemeXTSRand, core.LayoutObjectEnd)
	rng := rand.New(rand.NewSource(42))
	model := make([]byte, imgSize)
	scatterWrites(t, base.WriteAt, model, rng, 12)
	if _, _, err := base.CreateSnap(0, "g"); err != nil {
		t.Fatal(err)
	}
	keys := keysFor("base", "c")
	c, _, err := Create(0, cl, "rbd", "base", "g", "c", keys,
		core.Options{Scheme: core.SchemeXTSRand, Layout: core.LayoutObjectEnd})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := StartFlatten(0, c); err != nil {
		t.Fatal(err)
	}
	objects := c.enc.ObjectCount()
	bogus := FlattenProgress{Cursor: rbd.Cursor{NextObj: objects + 7, Objects: objects + 9}}
	if _, err := c.enc.Image().SaveCursor(0, flattenWalk.Key, bogus); err != nil {
		t.Fatal(err)
	}
	c2, _, err := Open(0, cl, "rbd", "c", keys)
	if err != nil {
		t.Fatal(err)
	}
	f2, _, err := ResumeFlatten(0, c2)
	if err != nil {
		t.Fatalf("ResumeFlatten over out-of-range cursor: %v", err)
	}
	if p := f2.Progress(); p.NextObj != 0 || p.Objects != objects {
		t.Fatalf("restarted cursor %+v, want fresh full walk of %d objects", p, objects)
	}
	for {
		done, _, err := f2.Step(0)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	c3, _, err := Open(0, cl, "rbd", "c", keysFor("c"))
	if err != nil {
		t.Fatal(err)
	}
	assertImage(t, "after out-of-range flatten restart", readAll(t, c3), model)
}
