package rbd

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/vtime"
)

// fakeProg is a walker record: the kernel's cursor plus the two kinds
// of field a walker adds, a counter its visit keeps and an identity
// fixed when the walk starts.
type fakeProg struct {
	Gen int64 `json:"gen"`
	Cursor
	Visited int64 `json:"visited"`
}

var (
	errFakeActive = errors.New("fake walk active")
	errFakeNone   = errors.New("no fake walk")
	errCrash      = errors.New("simulated crash")
)

var fakeWalk = NewWalkSpec(WalkSpec[fakeProg]{
	Key:       "walker.fake",
	ErrActive: errFakeActive, ErrNone: errFakeNone,
	Name: "fakewalk", DoneHelp: "test", Blocks: "fakewalk_blocks_total", BlocksHelp: "test",
	StartEvent: telemetry.EventFlattenStart, StartDetail: "fake start",
	FinishEvent: telemetry.EventFlattenFinish, FinishDetail: "fake finish",
	Cursor: func(p *fakeProg) *Cursor { return &p.Cursor },
	Valid:  func(p *fakeProg) bool { return p.Visited >= 0 },
})

// fake is the walker side of a walk: hooks that record what the kernel
// asked of them, and that can "crash" — take effect, then fail — at a
// chosen point.
type fake struct {
	visits      []int64      // objects visited, in order
	admitted    []vtime.Time // the time each visit was admitted at
	begins      int
	reconciles  int
	finishes    int
	crashVisit  int64 // object whose visit crashes after taking effect; -1 = none
	crashFinish bool
	beginErr    error
	reconcile   bool // install the Reconcile hook
}

const (
	fakeBlocks = 3    // blocks each visit reports
	fakeBytes  = 4096 // a visit of object i reports (i+1)*fakeBytes moved
	fakeGen    = 7    // the identity Start's record carries and Restart re-derives
)

func (f *fake) hooks() WalkHooks[fakeProg] {
	h := WalkHooks[fakeProg]{
		Visit: func(at vtime.Time, obj int64, p *fakeProg) (int64, int64, vtime.Time, error) {
			f.visits = append(f.visits, obj)
			f.admitted = append(f.admitted, at)
			if obj == f.crashVisit {
				return 0, 0, at, errCrash
			}
			p.Visited++
			return fakeBlocks, (obj + 1) * fakeBytes, at, nil
		},
		Finish: func(at vtime.Time, p *fakeProg) (int64, vtime.Time, error) {
			f.finishes++
			if f.crashFinish {
				return 0, at, errCrash
			}
			return p.Visited, at, nil
		},
		Begin: func(at vtime.Time, p *fakeProg) (int64, vtime.Time, error) {
			f.begins++
			return 1000 + p.Gen, at, f.beginErr
		},
		Restart: func(p *fakeProg) { p.Gen = fakeGen },
	}
	if f.reconcile {
		h.Reconcile = func(at vtime.Time, p *fakeProg) (vtime.Time, error) {
			f.reconciles++
			return at, nil
		}
	}
	return h
}

func newFake() *fake { return &fake{crashVisit: -1} }

// reopen is the crash: the old handle and walker are dropped and the
// image is opened cold.
func reopen(t *testing.T, img *Image) *Image {
	t.Helper()
	img2, _, err := Open(0, img.client, img.pool, img.name)
	if err != nil {
		t.Fatal(err)
	}
	return img2
}

// walkImage makes a 4-object image named after the test: the progress
// series are process-wide and labeled by image, so each case needs its
// own.
func walkImage(t *testing.T) (*Image, int64) {
	t.Helper()
	cl := testClient(t)
	name := strings.ReplaceAll(t.Name(), "/", ".")
	if _, err := CreateWithObjectSize(0, cl, "rbd", name, 4<<20, 1<<20); err != nil {
		t.Fatal(err)
	}
	img, _, err := Open(0, cl, "rbd", name)
	if err != nil {
		t.Fatal(err)
	}
	return img, img.ObjectCount()
}

// fresh is the record every fake walk starts from.
var fresh = fakeProg{Gen: fakeGen}

// checkGauges pins that the published progress gauges are the cursor.
func checkGauges(t *testing.T, img *Image, w *Walk[fakeProg]) {
	t.Helper()
	p := w.Progress()
	if done, total := fakeWalk.done.With(img.Name()).Value(), fakeWalk.total.With(img.Name()).Value(); done != p.NextObj || total != p.Objects {
		t.Fatalf("gauges %d/%d, cursor %d/%d", done, total, p.NextObj, p.Objects)
	}
}

// stepN takes n steps, none of which may finish the walk.
func stepN(t *testing.T, img *Image, w *Walk[fakeProg], n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if done, _, err := w.Step(0); err != nil || done {
			t.Fatalf("step %d: done=%v err=%v", i, done, err)
		}
		checkGauges(t, img, w)
	}
}

// TestWalkCrashResume crashes a walk at each point the protocol orders
// — after the intent record, after a visit took effect but before its
// cursor was persisted, after finish took effect but before the record
// was cleared — and resumes it on a reopened image.
func TestWalkCrashResume(t *testing.T) {
	for _, tc := range []struct {
		name       string
		steps      int   // clean steps before the crash
		crashVisit int64 // -1: none
		crashFin   bool
		resumeAt   int64   // cursor Resume must find
		revisits   []int64 // what the resumed walk must visit
	}{
		{name: "after-intent", crashVisit: -1, resumeAt: 0, revisits: []int64{0, 1, 2, 3}},
		{name: "after-visit-before-persist", steps: 2, crashVisit: 2, resumeAt: 2, revisits: []int64{2, 3}},
		{name: "after-finish-before-clear", steps: 4, crashVisit: -1, crashFin: true, resumeAt: 4, revisits: nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img, n := walkImage(t)
			starts := telemetry.Log.Count(fakeWalk.StartEvent)
			finishes := telemetry.Log.Count(fakeWalk.FinishEvent)

			f := newFake()
			f.crashVisit, f.crashFinish = tc.crashVisit, tc.crashFin
			w, _, err := fakeWalk.Start(0, img, fresh, f.hooks())
			if err != nil {
				t.Fatal(err)
			}
			if ev := telemetry.Log.Events()[0]; telemetry.Log.Count(fakeWalk.StartEvent) != starts+1 ||
				ev.Kind != fakeWalk.StartEvent || ev.Subject != img.Name() || ev.Value != 1000+fakeGen {
				t.Fatalf("start event %+v", ev)
			}
			checkGauges(t, img, w)
			stepN(t, img, w, tc.steps)
			if tc.crashVisit >= 0 || tc.crashFin {
				if _, _, err := w.Step(0); !errors.Is(err, errCrash) {
					t.Fatalf("crashing step: %v", err)
				}
			}

			// The record survives every crash point, and refuses a second Start.
			img2 := reopen(t, img)
			if _, _, err := fakeWalk.Start(0, img2, fresh, newFake().hooks()); !errors.Is(err, errFakeActive) {
				t.Fatalf("Start over a crashed walk: %v", err)
			}
			f2 := newFake()
			f2.reconcile = true
			w2, _, err := fakeWalk.Resume(0, img2, f2.hooks())
			if err != nil {
				t.Fatal(err)
			}
			if p := w2.Progress(); p.NextObj != tc.resumeAt || p.Objects != n || p.Gen != fakeGen || p.Visited != tc.resumeAt {
				t.Fatalf("resumed record %+v, want cursor %d/%d", p, tc.resumeAt, n)
			}
			if f2.reconciles != 1 || f2.begins != 0 {
				t.Fatalf("Resume over a coherent record: %d reconciles, %d begins", f2.reconciles, f2.begins)
			}
			checkGauges(t, img2, w2)
			if _, err := w2.Run(0); err != nil {
				t.Fatal(err)
			}
			checkGauges(t, img2, w2)
			if !slices.Equal(f2.visits, tc.revisits) || f2.finishes != 1 {
				t.Fatalf("resumed walk visited %v (want %v), finished %d times", f2.visits, tc.revisits, f2.finishes)
			}
			if ev := telemetry.Log.Events()[0]; telemetry.Log.Count(fakeWalk.FinishEvent) != finishes+1 ||
				ev.Kind != fakeWalk.FinishEvent || ev.Value != n {
				t.Fatalf("finish event %+v", ev)
			}
			if got := fakeWalk.blocks.With(img.Name()).Value(); got != fakeBlocks*n {
				t.Fatalf("blocks counter %d, want %d (one count per persisted visit)", got, fakeBlocks*n)
			}

			// Completion removed the record; a Step after it is free: no
			// IO (virtual time does not move), no second finish, no event.
			if found, _, _, err := fakeWalk.Active(0, img2); err != nil || found {
				t.Fatalf("record survives completion: found=%v err=%v", found, err)
			}
			if done, end, err := w2.Step(42); !done || end != 42 || err != nil {
				t.Fatalf("Step after completion: done=%v end=%v err=%v", done, end, err)
			}
			if f2.finishes != 1 || telemetry.Log.Count(fakeWalk.FinishEvent) != finishes+1 {
				t.Fatal("Step after completion re-ran finish")
			}
			if _, _, err := fakeWalk.Resume(0, img2, newFake().hooks()); !errors.Is(err, errFakeNone) {
				t.Fatalf("Resume with no record: %v", err)
			}
		})
	}
}

// TestWalkUntrustedRecordRestarts: a record that does not decode, whose
// cursor lies outside the image, or that fails the walker's own check,
// restarts the walk at object zero on a zeroed record, persisted at once.
func TestWalkUntrustedRecordRestarts(t *testing.T) {
	for _, tc := range []struct{ name, raw string }{
		{"garbage", "\xde\xadnot a cursor"},
		{"truncated", `{"gen":7,"next_o`},
		{"next-beyond-domain", `{"gen":7,"next_obj":9,"objects":12,"visited":2}`},
		{"negative-next", `{"gen":7,"next_obj":-3,"objects":4,"visited":2}`},
		{"wrong-domain", `{"gen":7,"next_obj":0,"objects":400,"visited":2}`},
		{"walker-check", `{"gen":7,"next_obj":2,"objects":4,"visited":-2}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img, n := walkImage(t)
			w, _, err := fakeWalk.Start(0, img, fresh, newFake().hooks())
			if err != nil {
				t.Fatal(err)
			}
			stepN(t, img, w, 2)
			scribbleCursor(t, img, fakeWalk.Key, []byte(tc.raw))

			img2 := reopen(t, img)
			if _, _, err := fakeWalk.Start(0, img2, fresh, newFake().hooks()); !errors.Is(err, errFakeActive) {
				t.Fatalf("Start over an untrusted record: %v", err)
			}
			f := newFake()
			f.reconcile = true
			w2, _, err := fakeWalk.Resume(0, img2, f.hooks())
			if err != nil {
				t.Fatalf("Resume: %v", err)
			}
			want := fakeProg{Gen: fakeGen, Cursor: Cursor{Objects: n}}
			if p := w2.Progress(); p != want || f.reconciles != 0 {
				t.Fatalf("restarted record %+v (reconciles %d), want %+v", p, f.reconciles, want)
			}
			checkGauges(t, img2, w2)
			if found, p, _, err := fakeWalk.Active(0, img2); err != nil || !found || p != want {
				t.Fatalf("persisted record after restart: found=%v err=%v %+v", found, err, p)
			}
			if _, err := w2.Run(0); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(f.visits, []int64{0, 1, 2, 3}) {
				t.Fatalf("restarted walk visited %v", f.visits)
			}
		})
	}
}

// TestWalkBeginFailureWithdraws: a Start whose begin hook refuses leaves
// no record (the image is not wedged) and no progress series claiming a
// walk is in flight.
func TestWalkBeginFailureWithdraws(t *testing.T) {
	img, _ := walkImage(t)
	starts := telemetry.Log.Count(fakeWalk.StartEvent)
	f := newFake()
	f.beginErr = errors.New("begin refused")
	if _, _, err := fakeWalk.Start(0, img, fresh, f.hooks()); !errors.Is(err, f.beginErr) {
		t.Fatalf("Start: %v", err)
	}
	if found, _, _, err := fakeWalk.Active(0, img); err != nil || found {
		t.Fatalf("record survives a refused Start: found=%v err=%v", found, err)
	}
	if telemetry.Log.Count(fakeWalk.StartEvent) != starts {
		t.Fatal("refused Start journalled a start event")
	}
	for _, fam := range telemetry.Default.Families() {
		if !strings.HasPrefix(fam.Name(), "fakewalk_") {
			continue
		}
		fam.EachSeries(func(labels string, _ *telemetry.Counter, _ *telemetry.Gauge, _ *telemetry.Histogram) {
			if strings.Contains(labels, img.Name()) {
				t.Errorf("refused Start left series %s%s", fam.Name(), labels)
			}
		})
	}
	// Abort touches only the cursor too, and is idempotent.
	if _, err := fakeWalk.Abort(0, img); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fakeWalk.Start(0, img, fresh, newFake().hooks()); err != nil {
		t.Fatalf("Start after a refused Start: %v", err)
	}
}

// TestWalkPacing: each object costs exactly one admission, the bytes a
// visit reports are exactly what is charged, the pacer gauges are the
// pacer's readings, and a nil pacer is free.
func TestWalkPacing(t *testing.T) {
	img, n := walkImage(t)
	f := newFake()
	w, at, err := fakeWalk.Start(0, img, fresh, f.hooks())
	if err != nil {
		t.Fatal(err)
	}
	const iops, bw = 100, 1 << 20
	pace := vtime.NewPacer(iops, bw)
	w.SetPace(pace)
	debt, stall := fakeWalk.debt.With(img.Name()), fakeWalk.stall.With(img.Name())
	var stalled vtime.Duration
	for i := int64(0); i < n; i++ {
		_, end, err := w.Step(at)
		if err != nil {
			t.Fatal(err)
		}
		admitted := f.admitted[i]
		stalled += admitted.Sub(at)
		// One Admit (1/iops) plus the visit's bytes, nothing else.
		want := vtime.Duration(time.Second/iops) + vtime.Duration(float64((i+1)*fakeBytes)*vtime.PerByteOfBandwidth(bw))
		if got := pace.Debt(admitted); got != want {
			t.Fatalf("object %d: frontier %v past admission, want %v", i, got, want)
		}
		if pace.Stall() != stalled {
			t.Fatalf("object %d: pacer stalled %v, admissions delayed %v", i, pace.Stall(), stalled)
		}
		if debt.Value() != int64(pace.Debt(end)) || stall.Value() != int64(stalled) {
			t.Fatalf("object %d: gauges debt=%d stall=%d, pacer %v/%v", i, debt.Value(), stall.Value(), pace.Debt(end), stalled)
		}
		at = end
	}
	if stalled == 0 {
		t.Fatal("budget never delayed an admission")
	}

	// A nil pacer admits at the arrival time and reads as zero.
	if _, _, err := w.Step(at); err != nil { // finish
		t.Fatal(err)
	}
	f = newFake()
	w, at, err = fakeWalk.Start(at, img, fresh, f.hooks())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = w.Step(at + 5)
	if err != nil || f.admitted[0] != at+5 || debt.Value() != 0 || stall.Value() != 0 {
		t.Fatalf("unpaced step: err=%v admitted=%v (arrived %v) debt=%d stall=%d", err, f.admitted[0], at+5, debt.Value(), stall.Value())
	}
}
