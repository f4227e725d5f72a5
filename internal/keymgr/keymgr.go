// Package keymgr is the key-lifecycle subsystem: online re-keying of an
// encrypted virtual disk and crypto-erase, the two capabilities the
// paper's per-block metadata makes cheap that length-preserving disk
// encryption cannot have (§1, §4). A Rekeyer mints the next key epoch in
// the image's LUKS-style container, then walks the image object by
// object — under live IO — re-sealing every block still carrying the old
// epoch tag. New writes always seal under the newest epoch, so the
// walker and the workload converge; progress is persisted in the image
// header's OMAP after every object, so a crashed client resumes where it
// left off instead of restarting a multi-terabyte sweep. When the walk
// completes, the retired epoch's wrapped key is destroyed: from that
// moment nothing — not even a passphrase holder — can decrypt data that
// was sealed under it (including pre-rekey snapshot clones), which is
// the LUKS2 "online re-encryption journal" workflow collapsed into a
// metadata tag plus a background walker.
//
// The control plane (this package: key ops, progress records) is
// deliberately separate from the offloadable datapath (internal/core's
// seal/open pipeline), following the FlexBSO split of PAPERS.md.
package keymgr

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/luks"
	"repro/internal/rbd"
	"repro/internal/telemetry"
	"repro/internal/vtime"
)

var (
	// ErrRekeyActive reports a Start while an unfinished rekey exists —
	// resume it instead (a second transition would strand epochs).
	ErrRekeyActive = errors.New("keymgr: rekey already in progress; resume it")
	// ErrNoRekey reports a Resume with no persisted progress record.
	ErrNoRekey = errors.New("keymgr: no rekey in progress")
)

// walk makes the rekey a walker on rbd's walker kernel, which owns the
// cursor protocol, pacing, progress gauges and journal events.
var walk = rbd.NewWalkSpec(rbd.WalkSpec[Progress]{
	Key:       "keymgr.rekey",
	ErrActive: ErrRekeyActive, ErrNone: ErrNoRekey,
	Name: "rekey", DoneHelp: "objects the rekey walker has completed",
	Blocks: "rekey_blocks_resealed_total", BlocksHelp: "blocks re-sealed under the target epoch",
	StartEvent: telemetry.EventRekeyStart, StartDetail: "epoch transition",
	FinishEvent: telemetry.EventRekeyFinish, FinishDetail: "blocks re-sealed",
	Cursor: func(p *Progress) *rbd.Cursor { return &p.Cursor },
	Valid:  func(p *Progress) bool { return p.Rekeyed >= 0 },
})

// Progress is the persisted rekey cursor.
type Progress struct {
	From uint32 `json:"from"` // retiring epoch
	To   uint32 `json:"to"`   // target epoch (container current)
	rbd.Cursor
	// Rekeyed counts blocks re-sealed so far (informational; not part of
	// crash-safety — the walker re-derives per-block work from epoch tags).
	Rekeyed int64 `json:"rekeyed"`
}

// Rekeyer drives one epoch transition on one image.
type Rekeyer = rbd.Walk[Progress]

// rekey is the image one transition's hooks work on.
type rekey struct{ img *core.EncryptedImage }

func hooks(img *core.EncryptedImage) rbd.WalkHooks[Progress] {
	r := rekey{img}
	return rbd.WalkHooks[Progress]{Visit: r.visit, Finish: r.finish, Begin: r.begin, Reconcile: r.reconcile, Restart: r.restart}
}

// Start begins the next epoch transition. The progress record is
// persisted FIRST (the durable statement of intent), then epoch N+1 is
// minted and persisted in the container — every write from there on
// seals under it. A crash between the two leaves a record targeting an
// epoch the container does not have yet; Resume detects that and
// finishes Start's job, so no transition can be stranded half-begun
// with the retiring key left alive forever. If the mint fails (say,
// the container cannot be persisted) the record is withdrawn. The
// data walk happens in Step/Run.
func Start(at vtime.Time, img *core.EncryptedImage) (*Rekeyer, vtime.Time, error) {
	from := img.CurrentEpoch()
	return walk.Start(at, img.Image(), Progress{From: from, To: from + 1}, hooks(img))
}

// Resume reattaches to an interrupted rekey on a freshly loaded image —
// the crash-recovery path. The walker continues from the persisted
// cursor; any object the crashed walker half-skipped is re-examined
// block by block, which is idempotent because re-sealing keys off the
// per-block epoch tags.
func Resume(at vtime.Time, img *core.EncryptedImage) (*Rekeyer, vtime.Time, error) {
	return walk.Resume(at, img.Image(), hooks(img))
}

// begin mints the target epoch; its number goes out with the start event.
func (r rekey) begin(at vtime.Time, p *Progress) (int64, vtime.Time, error) {
	to, at, err := r.img.BeginEpoch(at)
	if err == nil && to != p.To {
		err = fmt.Errorf("keymgr: container minted epoch %d, progress record expected %d", to, p.To)
	}
	return int64(to), at, err
}

// reconcile squares a resumed record with the container. Normally the
// container already carries both epochs; if the crash hit between
// Start's progress record and the container persist, the target epoch
// is minted now.
func (r rekey) reconcile(at vtime.Time, p *Progress) (vtime.Time, error) {
	switch cur := r.img.CurrentEpoch(); cur {
	case p.To:
		return at, nil
	case p.From:
		_, at, err := r.begin(at, p)
		return at, err
	default:
		return at, fmt.Errorf("keymgr: progress targets epoch %d but container is at %d (Abort to discard the record and Start a fresh transition)", p.To, cur)
	}
}

// restart replaces a lost rekey cursor with a full re-walk toward the
// container's current epoch. Walking every object from zero is safe —
// re-sealing keys off per-block epoch tags, so already-converted blocks
// are no-ops — and completion destroys every non-target epoch, which
// includes whatever retired key the lost record was retiring.
func (r rekey) restart(p *Progress) {
	cur := r.img.CurrentEpoch()
	p.From, p.To = cur, cur
}

// visit re-seals one object's stale blocks.
func (r rekey) visit(at vtime.Time, obj int64, p *Progress) (blocks, charge int64, end vtime.Time, err error) {
	n, end, err := r.img.RekeyObject(at, obj)
	if err != nil {
		return 0, 0, end, err
	}
	p.Rekeyed += int64(n)
	return int64(n), 2 * int64(n) * r.img.Options().BlockSize, end, nil // read + re-write
}

// finish destroys the retired keys. The walk re-sealed every block not
// already at To, so EVERY older live epoch is now unreferenced on the
// head — destroy them all, not just From (an earlier aborted transition
// may have left an orphan). ErrEpochUnknown is tolerated so a crash
// between DropEpoch and the record's removal re-finishes cleanly.
func (r rekey) finish(at vtime.Time, p *Progress) (int64, vtime.Time, error) {
	for _, ep := range r.img.Epochs() {
		if ep == p.To {
			continue
		}
		var err error
		if at, err = r.img.DropEpoch(at, ep); err != nil && !errors.Is(err, luks.ErrEpochUnknown) {
			return 0, at, err
		}
	}
	return p.Rekeyed, at, nil
}

// Abort withdraws an image's rekey progress record without touching any
// keys — the recovery path when out-of-band epoch changes left a record
// no Resume can reattach to. Blocks keep whatever epoch tag they carry
// (all tagged epochs stay live, so nothing becomes unreadable); the next
// completed transition re-seals them and destroys every retired epoch.
func Abort(at vtime.Time, img *core.EncryptedImage) (vtime.Time, error) {
	return walk.Abort(at, img.Image())
}
