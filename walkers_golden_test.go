package repro

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/rados"
	"repro/internal/rbd"
)

// TestWalkerCursorsOnDiskGolden pins the walkers' on-disk format: the
// literal bytes PR 12 (before the walkers moved onto rbd's walker
// kernel) wrote mid-walk for each of the three cursor keys. Planted raw
// in the header OMAP — a client of that build crashed here — each must
// resume at the recorded object with its counters intact, and the
// record the next step saves must be byte-for-byte what that build
// would have written, so an older client can resume after a newer one.
func TestWalkerCursorsOnDiskGolden(t *testing.T) {
	cluster, err := NewCluster(TestClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	client := cluster.NewClient("golden")
	const size = 8 << 20 // 8 objects
	pass := []byte("pw")
	opts := Options{Scheme: SchemeXTSRand, Layout: LayoutObjectEnd}
	// Data in object 0 only: the objects the resumed walks step over are
	// empty, so the counters a step re-saves are the planted ones.
	seed := func(img *EncryptedImage) {
		t.Helper()
		if _, err := img.WriteAt(0, make([]byte, 64<<10), 0); err != nil {
			t.Fatal(err)
		}
	}

	plant := func(hdr *rbd.Image, key, raw string) {
		t.Helper()
		res, _, err := hdr.OperateHeader(0, []rados.Op{{
			Kind:  rados.OpOmapSet,
			Pairs: []rados.Pair{{Key: []byte(key), Value: []byte(raw)}},
		}})
		if err != nil || res[0].Status != rados.StatusOK {
			t.Fatalf("plant %s: %v %v", key, err, res)
		}
	}
	// resaved steps the resumed walker once and checks the record it
	// wrote is the planted one with only the cursor advanced.
	resaved := func(hdr *rbd.Image, key, raw string, step func(Time) (bool, Time, error)) {
		t.Helper()
		if done, _, err := step(0); err != nil || done {
			t.Fatalf("step: done=%v err=%v", done, err)
		}
		var got json.RawMessage
		if found, _, err := hdr.LoadCursor(0, key, &got); err != nil || !found {
			t.Fatalf("re-saved %s: found=%v err=%v", key, found, err)
		}
		if want := strings.Replace(raw, `"next_obj":3`, `"next_obj":4`, 1); string(got) != want {
			t.Fatalf("re-saved %s record:\n got %s\nwant %s", key, got, want)
		}
	}

	t.Run("keymgr.rekey", func(t *testing.T) {
		const raw = `{"from":1,"to":2,"next_obj":3,"objects":8,"rekeyed":768}`
		img, err := CreateEncryptedImage(client, "rbd", "rk", size, pass, opts)
		if err != nil {
			t.Fatal(err)
		}
		seed(img)
		// Bring the container to where the record says the crash found
		// it: epoch 0 retired, 1 and 2 live, 2 current.
		r, err := StartRekey(img)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := img.BeginEpoch(0); err != nil {
			t.Fatal(err)
		}
		plant(img.Image(), "keymgr.rekey", raw)

		img2, err := OpenEncryptedImage(client, "rbd", "rk", pass)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := ResumeRekey(img2)
		if err != nil {
			t.Fatal(err)
		}
		want := RekeyProgress{From: 1, To: 2, Cursor: rbd.Cursor{NextObj: 3, Objects: 8}, Rekeyed: 768}
		if p := r2.Progress(); p != want {
			t.Fatalf("resumed %+v, want %+v", p, want)
		}
		resaved(img2.Image(), "keymgr.rekey", raw, r2.Step)
	})

	t.Run("scrub.walk", func(t *testing.T) {
		const raw = `{"next_obj":3,"objects":8,"checked":768,"found":1,"repaired":1}`
		img, err := CreateEncryptedImage(client, "rbd", "sc", size, pass, opts)
		if err != nil {
			t.Fatal(err)
		}
		seed(img)
		plant(img.Image(), "scrub.walk", raw)

		img2, err := OpenEncryptedImage(client, "rbd", "sc", pass)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ResumeScrub(img2)
		if err != nil {
			t.Fatal(err)
		}
		want := ScrubProgress{Cursor: rbd.Cursor{NextObj: 3, Objects: 8}, Checked: 768, Found: 1, Repaired: 1}
		if p := s.Progress(); p != want {
			t.Fatalf("resumed %+v, want %+v", p, want)
		}
		resaved(img2.Image(), "scrub.walk", raw, s.Step)
	})

	t.Run("clone.flatten", func(t *testing.T) {
		const raw = `{"next_obj":3,"objects":8,"copied":37}`
		base, err := CreateEncryptedImage(client, "rbd", "base", size, pass, opts)
		if err != nil {
			t.Fatal(err)
		}
		seed(base)
		if _, _, err := base.CreateSnap(0, "g"); err != nil {
			t.Fatal(err)
		}
		keys := Keychain{"base": pass, "child": []byte("pw2")}
		c, err := CloneEncryptedImage(client, "rbd", "base", "g", "child", keys, opts)
		if err != nil {
			t.Fatal(err)
		}
		plant(c.Enc().Image(), "clone.flatten", raw)

		c2, err := OpenClonedImage(client, "rbd", "child", keys)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ResumeFlatten(c2)
		if err != nil {
			t.Fatal(err)
		}
		want := FlattenProgress{Cursor: rbd.Cursor{NextObj: 3, Objects: 8}, Copied: 37}
		if p := f.Progress(); p != want {
			t.Fatalf("resumed %+v, want %+v", p, want)
		}
		resaved(c2.Enc().Image(), "clone.flatten", raw, f.Step)
	})
}
