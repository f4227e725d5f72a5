package core

// presence_test.go: "which blocks of this image were ever written?" is
// answered by four entry points — PresentRange (the probe),
// ReadAtSnapPresent (the data fetch), VerifyObject (the scrub fetch) and
// CopyupObject (the probe under the object lock). A disagreement is
// silent data corruption: a clone read-through that believes a block
// absent serves the parent's stale plaintext. This property test drives
// every scheme×layout through a seeded mix of writes, discards and a
// snapshot, and holds all four to one model from outside. (An object
// whose presence is unknown — metadata-free, without its sidecar — is an
// error at every entry point instead: TestMissingSidecarIsLoud.)

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/vtime"
)

func TestPresenceIsOneFunction(t *testing.T) {
	for ci, c := range allCombos() {
		t.Run(fmt.Sprintf("%v/%v", c.Scheme, c.Layout), func(t *testing.T) {
			e := newEncrypted(t, c.Scheme, c.Layout)
			const (
				bs      = int64(DefaultBlockSize)
				objBlks = int64(256) // newEncrypted stripes 1 MiB objects
				objects = int64(4)   // the last one is never touched
				blocks  = objects * objBlks
			)
			head := make([]bool, blocks)
			var snap []bool
			var snapID uint64

			rng := rand.New(rand.NewSource(int64(1000 + ci)))
			const steps = 28
			snapAt := 8 + rng.Intn(12)
			for step := 0; step < steps; step++ {
				if step == snapAt {
					id, _, err := e.CreateSnap(0, "s")
					if err != nil {
						t.Fatal(err)
					}
					snapID, snap = id, append([]bool(nil), head...)
				}
				first := rng.Int63n((objects - 1) * objBlks)
				n := 1 + rng.Int63n(40)
				if rng.Intn(4) == 0 {
					n = 1 + rng.Int63n(objBlks+64) // now and then span an object
				}
				if first+n > (objects-1)*objBlks {
					n = (objects-1)*objBlks - first
				}
				discard := rng.Intn(3) == 0
				if discard {
					if _, err := e.Discard(0, first*bs, n*bs); err != nil {
						t.Fatalf("step %d: discard [%d,+%d): %v", step, first, n, err)
					}
				} else {
					buf := make([]byte, n*bs)
					rng.Read(buf)
					if _, err := e.WriteAt(0, buf, first*bs); err != nil {
						t.Fatalf("step %d: write [%d,+%d): %v", step, first, n, err)
					}
				}
				for b := first; b < first+n; b++ {
					head[b] = !discard
				}
			}

			check := func(what string, snapID uint64, want []bool) {
				t.Helper()
				probe, _, err := e.PresentRange(0, 0, blocks*bs, snapID)
				if err != nil {
					t.Fatalf("%s: PresentRange: %v", what, err)
				}
				fetched := make([]bool, blocks)
				if _, err := e.ReadAtSnapPresent(0, make([]byte, blocks*bs), 0, snapID, fetched); err != nil {
					t.Fatalf("%s: ReadAtSnapPresent: %v", what, err)
				}
				for b := int64(0); b < blocks; b++ {
					if probe[b] != want[b] || fetched[b] != want[b] {
						t.Fatalf("%s block %d (object %d block %d): written=%v PresentRange=%v ReadAtSnapPresent=%v",
							what, b, b/objBlks, b%objBlks, want[b], probe[b], fetched[b])
					}
				}
			}
			check("head", 0, head)
			if snap == nil {
				t.Fatal("snapshot step never ran")
			}
			check("snapshot", snapID, snap)

			// The two exclusive-lock fetches see the head.
			for obj := int64(0); obj < objects; obj++ {
				var wantAbsent []int64
				for b := int64(0); b < objBlks; b++ {
					if !head[obj*objBlks+b] {
						wantAbsent = append(wantAbsent, b)
					}
				}
				checked, bad, _, err := e.VerifyObject(0, obj)
				if err != nil {
					t.Fatalf("VerifyObject(%d): %v", obj, err)
				}
				if len(bad) != 0 {
					t.Fatalf("VerifyObject(%d): bad blocks %v", obj, bad)
				}
				if want := int(objBlks) - len(wantAbsent); checked != want {
					t.Fatalf("VerifyObject(%d) checked %d blocks, %d were written", obj, checked, want)
				}
				var gotAbsent []int64
				n, _, err := e.CopyupObject(0, obj, func(at vtime.Time, absent []int64, plain []byte) ([]bool, vtime.Time, error) {
					gotAbsent = append(gotAbsent, absent...)
					return nil, at, nil // keep nothing: every absent block stays a hole
				})
				if err != nil || n != 0 {
					t.Fatalf("CopyupObject(%d) = %d, %v", obj, n, err)
				}
				if fmt.Sprint(gotAbsent) != fmt.Sprint(wantAbsent) {
					t.Fatalf("CopyupObject(%d) offered blocks %v for copyup, absent are %v", obj, gotAbsent, wantAbsent)
				}
			}
		})
	}
}
