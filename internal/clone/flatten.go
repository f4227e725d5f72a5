package clone

// flatten.go is the flatten walker: it copies every still-inherited
// block of a clone into the child — read through the parent chain with
// the ancestors' keys, re-sealed under the child's current epoch — until
// nothing references the parent, then severs the parent pointer. The
// provider can thereafter delete (or re-key, or crypto-erase) the base
// image without touching the tenant. It runs on rbd's walker kernel
// (cursor protocol, pacing, progress gauges, journal events): one object
// per Step under the object's exclusive lock (live writers either land
// before the copyup probe and are skipped as child-owned, or queue behind
// the commit).

import (
	"errors"

	"repro/internal/rbd"
	"repro/internal/telemetry"
	"repro/internal/vtime"
)

var (
	// ErrFlattenActive reports a StartFlatten while an unfinished flatten
	// exists — resume it instead.
	ErrFlattenActive = errors.New("clone: flatten already in progress; resume it")
	// ErrNoFlatten reports a ResumeFlatten with no persisted progress.
	ErrNoFlatten = errors.New("clone: no flatten in progress")
	// ErrHasSnaps reports a flatten of a clone that has snapshots of its
	// own. Copyup fills only the child's HEAD; the snapshots' frozen
	// views would keep resolving inherited blocks through the parent, so
	// severing the link would silently zero them (as RBD, refuse instead).
	ErrHasSnaps = errors.New("clone: image has snapshots that still need the parent; cannot flatten")
)

var flattenWalk = rbd.NewWalkSpec(rbd.WalkSpec[FlattenProgress]{
	Key:       "clone.flatten",
	ErrActive: ErrFlattenActive, ErrNone: ErrNoFlatten,
	Name: "flatten", DoneHelp: "objects the flatten walker has completed",
	Blocks: "flatten_blocks_copied_total", BlocksHelp: "blocks copied up from the parent chain into the child",
	StartEvent: telemetry.EventFlattenStart, StartDetail: "copyup walk",
	FinishEvent: telemetry.EventFlattenFinish, FinishDetail: "blocks copied",
	Cursor: func(p *FlattenProgress) *rbd.Cursor { return &p.Cursor },
	Valid:  func(p *FlattenProgress) bool { return p.Copied >= 0 },
})

// FlattenProgress is the persisted flatten cursor.
type FlattenProgress struct {
	rbd.Cursor
	// Copied counts blocks copied up so far (informational; crash safety
	// re-derives per-block work from child presence).
	Copied int64 `json:"copied"`
}

// Flattener drives one flatten on one clone. A pacer shared with a
// rekey (SetPace) splits one combined budget between them.
type Flattener = rbd.Walk[FlattenProgress]

func (img *Image) flattenHooks() rbd.WalkHooks[FlattenProgress] {
	return rbd.WalkHooks[FlattenProgress]{Visit: img.copyupObject, Finish: img.sever}
}

// StartFlatten begins flattening a clone. The progress record is
// persisted before any data moves, so a crash anywhere in the walk
// resumes from the cursor; the walk itself is idempotent because copyup
// keys off child presence.
func StartFlatten(at vtime.Time, img *Image) (*Flattener, vtime.Time, error) {
	if img.parentLayer() == nil {
		return nil, at, ErrNotClone
	}
	if len(img.enc.Image().Snaps()) > 0 {
		return nil, at, ErrHasSnaps
	}
	return flattenWalk.Start(at, img.enc.Image(), FlattenProgress{}, img.flattenHooks())
}

// ResumeFlatten reattaches to an interrupted flatten on a freshly opened
// image — the crash-recovery path. A crash between the sever and the
// record removal resumes with the parent already gone; the remaining
// visits are no-ops and the final Step just completes the bookkeeping.
func ResumeFlatten(at vtime.Time, img *Image) (*Flattener, vtime.Time, error) {
	return flattenWalk.Resume(at, img.enc.Image(), img.flattenHooks())
}

// copyupObject is the flatten visit: it copies one object's
// still-inherited blocks up into the child.
func (img *Image) copyupObject(at vtime.Time, obj int64, p *FlattenProgress) (blocks, charge int64, end vtime.Time, err error) {
	parent := img.parentLayer()
	if parent == nil {
		return 0, 0, at, nil
	}
	bs := img.enc.Options().BlockSize
	n, end, err := img.enc.CopyupObject(at, obj, parentFetch(parent, obj, img.enc.Image().ObjectSize(), bs))
	if err != nil {
		return 0, 0, end, err
	}
	p.Copied += int64(n)
	return int64(n), 2 * int64(n) * bs, end, nil // parent read + child write
}

// sever is the flatten finish: it removes the parent pointer. The
// kernel runs it before clearing the record: if the crash hits between
// the two, the surviving record makes Resume re-run it (RemoveParent is
// idempotent), whereas the opposite order could strand a fully-copied
// clone still chained to its parent.
func (img *Image) sever(at vtime.Time, p *FlattenProgress) (int64, vtime.Time, error) {
	at, err := img.enc.Image().RemoveParent(at)
	if err != nil {
		return 0, at, err
	}
	img.detachParent()
	return p.Copied, at, nil
}

// parentFetch builds the CopyupObject fetch callback for one object: it
// reads the absent blocks through the parent chain over their maximal
// contiguous runs; presence of each block in ANY ancestor decides keep
// (holes everywhere stay holes).
func parentFetch(parent *layer, objIdx, objectSize, bs int64) func(at vtime.Time, blocks []int64, plain []byte) ([]bool, vtime.Time, error) {
	return func(at vtime.Time, blocks []int64, plain []byte) ([]bool, vtime.Time, error) {
		keep := make([]bool, len(blocks))
		end := at
		err := forBlockRuns(blocks, func(lo, hi int) error {
			off := objIdx*objectSize + blocks[lo]*bs
			e, err := parent.readInto(at, plain[int64(lo)*bs:int64(hi)*bs], off, keep[lo:hi])
			if err != nil {
				return err
			}
			end = vtime.Max(end, e)
			return nil
		})
		if err != nil {
			return nil, at, err
		}
		return keep, end, nil
	}
}
