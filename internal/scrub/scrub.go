// Package scrub is the background integrity walker: a paced sweep over
// every object of an encrypted image that opens each present block
// under its recorded key epoch and, optionally, repairs blocks whose
// ciphertext no longer authenticates from an intact replica copy. It
// runs on rbd's walker kernel, alongside keymgr.Rekeyer and
// clone.Flattener: progress is persisted in the image header's OMAP
// after every object, so a crashed client resumes where it left off,
// and an optional pacer bounds the walker's interference on foreground
// IO.
//
// What a scrub pass proves depends on the scheme — the paper's
// integrity argument as an operational property. SchemeGCM's
// authenticated per-block metadata turns bit rot anywhere in the
// ciphertext into a detected (and, with replicas, repairable) finding;
// the length-preserving schemes decrypt anything to something, so for
// them the walk verifies structure only (every block's epoch tag
// resolves to a live key). See core.VerifyObject.
package scrub

import (
	"errors"

	"repro/internal/core"
	"repro/internal/rbd"
	"repro/internal/telemetry"
	"repro/internal/vtime"
)

var (
	// ErrScrubActive reports a Start while an unfinished scrub exists —
	// resume it instead (two concurrent walkers would double-charge the
	// pacer and fight over the cursor).
	ErrScrubActive = errors.New("scrub: scrub already in progress; resume it")
	// ErrNoScrub reports a Resume with no persisted progress record.
	ErrNoScrub = errors.New("scrub: no scrub in progress")
)

var walk = rbd.NewWalkSpec(rbd.WalkSpec[Progress]{
	Key:       "scrub.walk",
	ErrActive: ErrScrubActive, ErrNone: ErrNoScrub,
	Name: "scrub", DoneHelp: "objects the scrub walker has verified",
	Blocks: "scrub_blocks_checked_total", BlocksHelp: "present blocks opened and verified by the scrub walker",
	StartEvent: telemetry.EventScrubStart, StartDetail: "verify sweep",
	FinishEvent: telemetry.EventScrubFinish, FinishDetail: "findings",
	Cursor: func(p *Progress) *rbd.Cursor { return &p.Cursor },
	Valid:  func(p *Progress) bool { return p.Checked >= 0 && p.Found >= 0 && p.Repaired >= 0 },
})

// The finding counters are scrub's own; the kernel publishes the rest.
var (
	mFound = telemetry.NewCounterVec("scrub_blocks_bad_total",
		"blocks that failed scrub verification (integrity or key-epoch failures)", "image")
	mRepaired = telemetry.NewCounterVec("scrub_blocks_repaired_total",
		"bad blocks recovered from an intact replica and re-sealed", "image")
)

// Progress is the persisted scrub cursor.
type Progress struct {
	rbd.Cursor
	// Checked/Found/Repaired count blocks verified, failed, and
	// recovered so far (informational; crash-safety needs only NextObj —
	// re-verifying an object is idempotent).
	Checked  int64 `json:"checked"`
	Found    int64 `json:"found"`
	Repaired int64 `json:"repaired"`
}

// Scrubber drives one verification sweep over one image. Verification
// findings are counted, repaired when enabled, and never abort the
// walk; Step's err is reserved for transport trouble.
type Scrubber struct {
	*rbd.Walk[Progress]
	img             *core.EncryptedImage
	repair          bool
	found, repaired *telemetry.Counter
}

// SetRepair enables (the default) or disables replica repair of blocks
// that fail verification. A check-only scrub still counts findings.
func (s *Scrubber) SetRepair(on bool) { s.repair = on }

// newScrubber binds a sweep to its image's finding counters. A scrub
// is only ever refused for being in flight already, so the series it
// resolves here always belong to a walk that exists.
func newScrubber(img *core.EncryptedImage) *Scrubber {
	name := img.Image().Name()
	return &Scrubber{img: img, repair: true, found: mFound.With(name), repaired: mRepaired.With(name)}
}

func (s *Scrubber) hooks() rbd.WalkHooks[Progress] {
	return rbd.WalkHooks[Progress]{Visit: s.visit, Finish: findings}
}

// Start begins a scrub sweep.
func Start(at vtime.Time, img *core.EncryptedImage) (*Scrubber, vtime.Time, error) {
	s := newScrubber(img)
	w, at, err := walk.Start(at, img.Image(), Progress{}, s.hooks())
	if err != nil {
		return nil, at, err
	}
	s.Walk = w
	return s, at, nil
}

// Resume reattaches to an interrupted scrub on a freshly loaded image —
// the crash-recovery path. Re-verifying the object the crashed walker
// was inside is idempotent, so the cursor's object granularity is safe;
// a lost cursor costs only its counters and some redundant verification.
func Resume(at vtime.Time, img *core.EncryptedImage) (*Scrubber, vtime.Time, error) {
	s := newScrubber(img)
	w, at, err := walk.Resume(at, img.Image(), s.hooks())
	if err != nil {
		return nil, at, err
	}
	s.Walk = w
	return s, at, nil
}

// findings is the scrub finish: a sweep has nothing to complete, and
// its finding count goes out with the finish event.
func findings(at vtime.Time, p *Progress) (int64, vtime.Time, error) { return p.Found, at, nil }

// Abort withdraws an image's scrub progress record. Nothing else needs
// undoing — verification has no partial state, and any repairs already
// committed are ordinary (good) writes.
func Abort(at vtime.Time, img *core.EncryptedImage) (vtime.Time, error) {
	return walk.Abort(at, img.Image())
}

// visit verifies one object and, when enabled, repairs what failed from
// an intact replica.
func (s *Scrubber) visit(at vtime.Time, obj int64, p *Progress) (blocks, charge int64, end vtime.Time, err error) {
	bs := s.img.Options().BlockSize
	checked, bad, end, err := s.img.VerifyObject(at, obj)
	if err != nil {
		return 0, 0, end, err
	}
	charge = int64(checked) * bs
	p.Found += int64(len(bad))
	s.found.Add(int64(len(bad)))
	if len(bad) > 0 && s.repair {
		idx := make([]int64, len(bad))
		for i, b := range bad {
			idx[i] = b.Block
		}
		n, repaired, err := s.img.RepairObject(end, obj, idx)
		if err != nil {
			return 0, 0, end, err
		}
		end = repaired
		charge += 2 * int64(n) * bs // replica read + re-seal write
		p.Repaired += int64(n)
		s.repaired.Add(int64(n))
		telemetry.Log.Append(end, telemetry.EventRepairDone, s.img.Image().Name(), "blocks re-sealed from replica", int64(n))
	}
	p.Checked += int64(checked)
	return int64(checked), charge, end, nil
}
