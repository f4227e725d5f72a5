package rbd

// walker.go is the background-walker kernel: the one machine behind
// keymgr's online rekey, clone's flatten and scrub's verification sweep
// (and whatever walks an image next). A walk visits every object of an
// image once, under live IO, and must survive a client crash at any
// point, so the kernel fixes three orderings and the walkers only fill
// in what happens to one object:
//
//   - Intent first. Start persists the cursor record before anything
//     else happens, so a crash anywhere later leaves a record and Resume
//     picks the walk up instead of silently forgetting it was wanted.
//   - Finish before clear. The completion hook (drop retired keys,
//     sever the parent) runs while the record still exists; a crash
//     between the two re-runs the hook rather than stranding a fully
//     walked image that never completed.
//   - Restart from zero. A record that does not decode, or decodes to a
//     position outside the image, still proves a walk was in flight.
//     Its position is lost, so the walk starts over; that is safe only
//     because every visit is idempotent, which is the one obligation
//     the kernel puts on a walker.
//
// Per step the kernel admits one operation against the optional
// vtime.Pacer, visits, charges the bytes the visit reports as debt
// against the next admission (a visit's true size is only known after
// it ran), advances and persists the cursor, and publishes the
// per-image progress gauges.

import (
	"encoding/json"
	"errors"

	"repro/internal/telemetry"
	"repro/internal/vtime"
)

// Cursor is the part of every walker's persisted record the kernel
// owns. A walker's progress struct embeds it (the JSON fields inline)
// next to its own informational counters.
type Cursor struct {
	NextObj int64 `json:"next_obj"` // first object not yet walked
	Objects int64 `json:"objects"`  // walk domain, fixed at Start
}

// Done reports whether the walk has covered every object.
func (c Cursor) Done() bool { return c.NextObj >= c.Objects }

// valid reports whether a decoded cursor is internally coherent and
// matches the image's walk domain.
func (c Cursor) valid(objects int64) bool {
	return c.NextObj >= 0 && c.NextObj <= c.Objects && c.Objects == objects
}

// WalkSpec is the static description of one kind of walker, whose
// persisted progress record (the whole struct is the JSON) is a P.
// Build one per walker package, at init, with NewWalkSpec.
type WalkSpec[P any] struct {
	Key       string // header-OMAP key holding the record
	ErrActive error  // Start while a record exists
	ErrNone   error  // Resume with no record

	// Name prefixes the progress families (<Name>_objects_done, ...) and
	// names the walker in their help strings; the work counter is named
	// whole because each walker counts something different.
	Name, DoneHelp     string
	Blocks, BlocksHelp string

	StartEvent, FinishEvent   telemetry.EventKind
	StartDetail, FinishDetail string

	// Cursor returns the Cursor embedded in a record.
	Cursor func(*P) *Cursor
	// Valid is the walker's check on a decoded record's own fields, on
	// top of the kernel's on the cursor. A record failing either is
	// treated like one that does not decode.
	Valid func(*P) bool

	done, total, debt, stall *telemetry.GaugeVec
	blocks                   *telemetry.CounterVec
}

// NewWalkSpec registers the spec's metric families and returns it.
// Registration happens here rather than at the first walk so the
// METRICS.md contract sees every family in a process that never walks.
func NewWalkSpec[P any](s WalkSpec[P]) *WalkSpec[P] {
	s.done = telemetry.NewGaugeVec(s.Name+"_objects_done", s.DoneHelp, "image")
	s.total = telemetry.NewGaugeVec(s.Name+"_objects_total",
		"objects in the "+s.Name+" walk domain", "image")
	s.blocks = telemetry.NewCounterVec(s.Blocks, s.BlocksHelp, "image")
	s.debt = telemetry.NewGaugeVec(s.Name+"_pacer_debt_ns",
		s.Name+" pacer debt in virtual nanoseconds (0 = unpaced or inside budget)", "image")
	s.stall = telemetry.NewGaugeVec(s.Name+"_pacer_stall_ns",
		"cumulative virtual time the "+s.Name+" walker spent stalled in pacer admission", "image")
	return &s
}

// WalkHooks is what one walk over one image supplies; each hook gets
// the live record to keep its own counters in. Visit and Finish are
// required, and both must be idempotent (see the file comment).
type WalkHooks[P any] struct {
	// Visit processes one object and reports the blocks it worked on
	// (added to the spec's work counter) and the payload bytes it moved
	// (charged to the pacer).
	Visit func(at vtime.Time, obj int64, p *P) (blocks, charge int64, end vtime.Time, err error)
	// Finish runs once every object is walked, before the record is
	// cleared. n is the value journalled with the finish event.
	Finish func(at vtime.Time, p *P) (n int64, end vtime.Time, err error)
	// Begin, if set, runs in Start once the intent record is durable; an
	// error withdraws the record. n is journalled with the start event
	// (without Begin: the walk domain).
	Begin func(at vtime.Time, p *P) (n int64, end vtime.Time, err error)
	// Reconcile, if set, runs in Resume over a coherent record, to
	// complete whatever a crash inside Start left half-done.
	Reconcile func(at vtime.Time, p *P) (vtime.Time, error)
	// Restart, if set, fills in a zeroed record for a walk from object
	// zero, when the stored one could not be trusted.
	Restart func(p *P)
}

// Walk is one walk in flight.
type Walk[P any] struct {
	spec     *WalkSpec[P]
	img      *Image
	hooks    WalkHooks[P]
	prog     P
	cur      *Cursor // the one embedded in prog
	pace     *vtime.Pacer
	finished bool

	done, total, debt, stall *telemetry.Gauge
	blocks                   *telemetry.Counter
}

// ObjectCount reports how many striping objects the image spans — the
// domain every walk iterates.
func (img *Image) ObjectCount() int64 {
	return (img.Size() + img.ObjectSize() - 1) / img.ObjectSize()
}

// Start begins a walk over every object of img, from the record init
// (whose cursor the kernel sets).
func (s *WalkSpec[P]) Start(at vtime.Time, img *Image, init P, hooks WalkHooks[P]) (*Walk[P], vtime.Time, error) {
	found, at, err := img.LoadCursor(at, s.Key, new(json.RawMessage))
	if found || errors.Is(err, ErrCorruptCursor) {
		// A record that does not decode is still a walk in flight, and
		// Resume is what recovers it.
		err = s.ErrActive
	}
	if err != nil {
		return nil, at, err
	}
	w := &Walk[P]{spec: s, img: img, hooks: hooks, prog: init}
	w.cur = s.Cursor(&w.prog)
	*w.cur = Cursor{Objects: img.ObjectCount()}
	if at, err = img.SaveCursor(at, s.Key, w.prog); err != nil {
		return nil, at, err
	}
	n := w.cur.Objects
	if hooks.Begin != nil {
		if n, at, err = hooks.Begin(at, &w.prog); err != nil {
			// Withdraw the intent so the image is not wedged behind
			// ErrActive forever by a walk that never began.
			if end, cerr := img.ClearCursor(at, s.Key); cerr == nil {
				at = end
			}
			return nil, at, err
		}
	}
	w.goLive(at)
	telemetry.Log.Append(at, s.StartEvent, img.Name(), s.StartDetail, n)
	return w, at, nil
}

// Resume reattaches to an interrupted walk on a freshly opened image,
// the crash-recovery path.
func (s *WalkSpec[P]) Resume(at vtime.Time, img *Image, hooks WalkHooks[P]) (*Walk[P], vtime.Time, error) {
	w := &Walk[P]{spec: s, img: img, hooks: hooks}
	w.cur = s.Cursor(&w.prog)
	found, at, err := img.LoadCursor(at, s.Key, &w.prog)
	switch {
	case errors.Is(err, ErrCorruptCursor), found && !(w.cur.valid(img.ObjectCount()) && s.Valid(&w.prog)):
		w.prog = *new(P)
		if hooks.Restart != nil {
			hooks.Restart(&w.prog)
		}
		*w.cur = Cursor{Objects: img.ObjectCount()}
		// Persisted at once, so a second crash resumes normally.
		if at, err = img.SaveCursor(at, s.Key, w.prog); err != nil {
			return nil, at, err
		}
	case err != nil:
		return nil, at, err
	case !found:
		return nil, at, s.ErrNone
	case hooks.Reconcile != nil:
		if at, err = hooks.Reconcile(at, &w.prog); err != nil {
			return nil, at, err
		}
	}
	w.goLive(at)
	return w, at, nil
}

// Abort withdraws an image's record, touching nothing else.
func (s *WalkSpec[P]) Abort(at vtime.Time, img *Image) (vtime.Time, error) {
	return img.ClearCursor(at, s.Key)
}

// Active reports whether an image has an unfinished walk, and its
// record. Like Abort it touches only the cursor.
func (s *WalkSpec[P]) Active(at vtime.Time, img *Image) (bool, P, vtime.Time, error) {
	var p P
	found, end, err := img.LoadCursor(at, s.Key, &p)
	return found, p, end, err
}

// goLive resolves the image's series and publishes the first reading.
// It runs only once Start or Resume can no longer refuse, so a walk
// that never existed leaves no series behind showing it in flight.
func (w *Walk[P]) goLive(at vtime.Time) {
	name := w.img.Name()
	w.done, w.total = w.spec.done.With(name), w.spec.total.With(name)
	w.debt, w.stall = w.spec.debt.With(name), w.spec.stall.With(name)
	w.blocks = w.spec.blocks.With(name)
	w.publish(at)
}

// publish pushes the cursor, and the pacer's debt at virtual time at,
// into the gauges.
func (w *Walk[P]) publish(at vtime.Time) {
	w.done.Set(w.cur.NextObj)
	w.total.Set(w.cur.Objects)
	w.debt.SetDuration(w.pace.Debt(at))
	w.stall.SetDuration(w.pace.Stall())
}

// Progress returns the current record.
func (w *Walk[P]) Progress() P { return w.prog }

// SetPace installs a virtual-time admission budget (IOPS + bytes/s
// caps) on the walker, bounding its interference on foreground IO the
// way Ceph's osd_recovery and osd_scrub limits bound theirs. A nil
// pacer removes the cap. One pacer shared by several walkers caps
// their combined rate.
func (w *Walk[P]) SetPace(p *vtime.Pacer) { w.pace = p }

// Step processes one object, or, once every object is walked, finishes
// the walk and removes its record. It returns done=true once the walk
// is fully complete; a Step after that is free and changes nothing.
func (w *Walk[P]) Step(at vtime.Time) (done bool, end vtime.Time, err error) {
	switch {
	case w.finished:
		return true, at, nil
	case w.cur.Done():
		n, at, err := w.hooks.Finish(at, &w.prog)
		if err != nil {
			return false, at, err
		}
		if at, err = w.img.ClearCursor(at, w.spec.Key); err != nil {
			return false, at, err
		}
		w.finished = true
		w.publish(at)
		telemetry.Log.Append(at, w.spec.FinishEvent, w.img.Name(), w.spec.FinishDetail, n)
		return true, at, nil
	}
	blocks, charge, at, err := w.hooks.Visit(w.pace.Admit(at, 0), w.cur.NextObj, &w.prog)
	if err != nil {
		return false, at, err
	}
	w.pace.Charge(charge)
	w.blocks.Add(blocks)
	w.cur.NextObj++
	at, err = w.img.SaveCursor(at, w.spec.Key, w.prog)
	w.publish(at)
	return false, at, err
}

// Run drives Step until the walk completes. Idle virtual time between
// steps is whatever the caller's clock does; the walk itself consumes
// client crypto and cluster resources exactly like foreground IO, so
// workloads measured concurrently see its interference.
func (w *Walk[P]) Run(at vtime.Time) (vtime.Time, error) {
	for {
		done, end, err := w.Step(at)
		if err != nil || done {
			return end, err
		}
		at = end
	}
}
