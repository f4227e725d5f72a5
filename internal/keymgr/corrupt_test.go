package keymgr

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/rados"
	"repro/internal/rbd"
)

// scribbleProgress overwrites the persisted rekey cursor with raw bytes,
// simulating a torn OMAP write under the walker.
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

// TestResumeCorruptCursorRestartsCleanly corrupts the rekey cursor
// mid-walk and checks Resume's recovery contract: no panic, no error, a
// fresh full walk toward the container's current epoch that converges —
// every block re-sealed, retired epochs destroyed, data intact.
func TestResumeCorruptCursorRestartsCleanly(t *testing.T) {
	e := newEncrypted(t, core.SchemeXTSRand, core.LayoutOMAP)
	data := make([]byte, 3<<20)
	rand.New(rand.NewSource(11)).Read(data)
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

	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"garbage", []byte("\xde\xadnot a cursor")},
		{"truncated", []byte(`{"from":1,"to":2,"next_o`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scribbleProgress(t, e, tc.raw)

			// The raw load must classify as corrupt, not as "no rekey".
			if _, _, _, err := walk.Active(0, e.Image()); !errors.Is(err, rbd.ErrCorruptCursor) {
				t.Fatalf("Active: %v, want ErrCorruptCursor", err)
			}

			e2 := reload(t, e)
			r2, _, err := Resume(0, e2)
			if err != nil {
				t.Fatalf("Resume over corrupt cursor: %v", err)
			}
			cur := e2.CurrentEpoch()
			p := r2.Progress()
			if p.From != cur || p.To != cur || p.NextObj != 0 || p.Objects != e2.ObjectCount() {
				t.Fatalf("restarted cursor %+v, want full walk to epoch %d", p, cur)
			}
			// The replacement record is durable: a second crash-resume
			// sees a clean record, not the corruption.
			if _, _, err := Resume(0, reload(t, e)); err != nil {
				t.Fatalf("re-Resume after restart: %v", err)
			}
			if _, err := r2.Run(0); err != nil {
				t.Fatal(err)
			}
			if eps := e2.Epochs(); len(eps) != 1 || eps[0] != cur {
				t.Fatalf("epochs after converged restart: %v, want [%d]", eps, cur)
			}
			if found, _, _, err := walk.Active(0, e2.Image()); err != nil || found {
				t.Fatalf("record survives completion: found=%v err=%v", found, err)
			}
			got := make([]byte, len(data))
			if _, err := e2.ReadAt(0, got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("data lost across corrupt-cursor restart")
			}

			// Re-arm a half-done walk for the next corruption flavor.
			r3, _, err := Start(0, e2)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := r3.Step(0); err != nil {
				t.Fatal(err)
			}
			e = e2
		})
	}
}

// TestResumeOutOfRangeCursorRestarts covers records that decode fine
// but carry positions outside the image's walk domain — they must get
// the same restart treatment as undecodable bytes, not drive the walker
// off the end of the image.
func TestResumeOutOfRangeCursorRestarts(t *testing.T) {
	e := newEncrypted(t, core.SchemeXTSRand, core.LayoutObjectEnd)
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(12)).Read(data)
	if _, err := e.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	r, _, err := Start(0, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Step(0); err != nil {
		t.Fatal(err)
	}

	objects := e.ObjectCount()
	for _, tc := range []struct {
		name string
		prog Progress
	}{
		{"next-beyond-domain", Progress{From: 0, To: 1, Cursor: rbd.Cursor{NextObj: objects + 5, Objects: objects + 10}}},
		{"negative-next", Progress{From: 0, To: 1, Cursor: rbd.Cursor{NextObj: -3, Objects: objects}}},
		{"wrong-domain", Progress{From: 0, To: 1, Cursor: rbd.Cursor{NextObj: 0, Objects: objects * 100}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := e.Image().SaveCursor(0, walk.Key, tc.prog); err != nil {
				t.Fatal(err)
			}
			e2 := reload(t, e)
			r2, _, err := Resume(0, e2)
			if err != nil {
				t.Fatalf("Resume over out-of-range cursor: %v", err)
			}
			p := r2.Progress()
			if p.NextObj != 0 || p.Objects != objects {
				t.Fatalf("restarted cursor %+v, want fresh full walk of %d objects", p, objects)
			}
			if _, err := r2.Run(0); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(data))
			if _, err := e2.ReadAt(0, got, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("data lost across out-of-range restart")
			}
			// Re-arm for the next flavor.
			r3, _, err := Start(0, e2)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := r3.Step(0); err != nil {
				t.Fatal(err)
			}
			e = e2
		})
	}
}
