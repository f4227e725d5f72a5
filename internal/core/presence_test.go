package core

// presence_test.go: "which blocks of this image were ever written?" is
// answered by four entry points — PresentRange (the probe),
// ReadAtSnapPresent (the data fetch), VerifyObject (the scrub fetch) and
// CopyupObject (the probe under the object lock). A disagreement is
// silent data corruption: a clone read-through that believes a block
// absent serves the parent's stale plaintext. This property test drives
// every scheme×layout, the untagged legacy slot geometry and the
// sidecar-less metadata-free object through a seeded mix of writes,
// discards and a snapshot, and holds all four to one model from outside.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/luks"
	"repro/internal/vtime"
)

// legacyEncrypted returns an image whose container predates the key-epoch
// table, so its metadata slots carry scheme bytes only (the geometry of
// TestLegacyContainerCompat).
func legacyEncrypted(t *testing.T, scheme Scheme, layout Layout) *EncryptedImage {
	t.Helper()
	e := newEncrypted(t, scheme, layout)
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
	blob, err := json.Marshal(desc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Image().SetEncryptionBlob(0, blob); err != nil {
		t.Fatal(err)
	}
	return mustLoad(t, e.Image())
}

func TestPresenceIsOneFunction(t *testing.T) {
	type presenceCase struct {
		name       string
		scheme     Scheme
		layout     Layout
		legacy     bool // untagged metadata slots
		preSidecar bool // data planted without an allocation sidecar
	}
	var cases []presenceCase
	for _, c := range allCombos() {
		cases = append(cases,
			presenceCase{name: fmt.Sprintf("%v/%v", c.Scheme, c.Layout), scheme: c.Scheme, layout: c.Layout},
			presenceCase{name: fmt.Sprintf("%v/%v/legacy", c.Scheme, c.Layout), scheme: c.Scheme, layout: c.Layout, legacy: true})
		if c.Layout == LayoutNone {
			cases = append(cases, presenceCase{name: fmt.Sprintf("%v/%v/pre-sidecar", c.Scheme, c.Layout), scheme: c.Scheme, layout: c.Layout, preSidecar: true})
		}
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e *EncryptedImage
			if tc.legacy {
				e = legacyEncrypted(t, tc.scheme, tc.layout)
			} else {
				e = newEncrypted(t, tc.scheme, tc.layout)
			}
			const (
				bs      = int64(DefaultBlockSize)
				objBlks = int64(256) // newEncrypted stripes 1 MiB objects
				objects = int64(4)   // the last one is never touched
				blocks  = objects * objBlks
			)
			head := make([]bool, blocks)
			var snap []bool
			var snapID uint64

			if tc.preSidecar {
				// Sealed bytes land through the raw write path: no sidecar.
				// The documented fallback reads everything below the
				// object's logical size as present, interior holes too.
				for _, run := range [][3]int64{{0, 4, 5}, {1, 0, 3}} { // object, first block, blocks
					cipher := make([]byte, run[2]*bs)
					for b := int64(0); b < run[2]; b++ {
						blockIdx := uint64(run[0]*objBlks + run[1] + b)
						if err := cryptorAt(t, e, 0).seal(cipher[b*bs:(b+1)*bs], make([]byte, bs), blockIdx, nil); err != nil {
							t.Fatal(err)
						}
					}
					if _, _, err := e.Image().Operate(0, run[0], 0, e.plan.writeOps(run[1], cipher, nil)); err != nil {
						t.Fatal(err)
					}
					for b := int64(0); b < run[1]+run[2]; b++ {
						head[run[0]*objBlks+b] = true
					}
				}
			}

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
