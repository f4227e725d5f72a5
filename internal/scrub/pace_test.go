package scrub

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/vtime"
)

// TestPacedScrubBoundsForegroundLatency is the scrub acceptance
// criterion for background verification: with a vtime admission budget
// on the walker, a foreground workload's tail latency during a full
// scrub stays within a small factor of its quiet-image baseline, and
// the walker's completion time stretches to (at least) its op budget.
//
// The foreground and the walker run as one discrete-event simulation,
// for the same reason keymgr's paced-rekey test does: one actor at a
// time, the one with the earliest virtual clock first. A virtual-time
// actor that runs ahead of its peers in real time stamps the shared
// busy-until resources in the virtual future, and earlier arrivals then
// queue behind slots that "haven't happened yet"; on a loaded host that
// skew, not the pacer, set the measured tail.
func TestPacedScrubBoundsForegroundLatency(t *testing.T) {
	e := newEncrypted(t, core.SchemeGCM, core.LayoutObjectEnd)
	if _, err := fio.Precondition(e, imgSize, bs, 0); err != nil {
		t.Fatal(err)
	}

	baseline := foregroundP99(t, e, nil)

	s, _, err := Start(0, e)
	if err != nil {
		t.Fatal(err)
	}
	pace := vtime.NewPacer(50, 64<<20) // 50 walker ops/s + 64 MB/s
	s.SetPace(pace)
	walk := &pacedWalk{walk: s.Step, pace: pace}
	during := foregroundP99(t, e, walk)
	for !walk.done {
		walk.step(t)
	}
	if p := s.Progress(); p.Found != 0 {
		t.Fatalf("scrub of a healthy image found %d bad blocks", p.Found)
	}

	t.Logf("baseline p99=%v during-paced-scrub p99=%v scrub end=%v",
		baseline, during, walk.at)

	// The budget was applied: 8 objects at 50 ops/s cannot finish before
	// 7 admission slots (140ms), plus the verified-byte debt.
	if walk.at < vtime.Time(140*time.Millisecond) {
		t.Fatalf("paced scrub finished at %v; budget not applied", walk.at)
	}
	// Foreground p99 stays bounded; 5x the quiet baseline is the alarm
	// line, matching the paced-rekey interference bound.
	if limit := 5 * baseline; during > limit {
		t.Fatalf("p99 during paced scrub %v exceeds %v (baseline %v)",
			during, limit, baseline)
	}
}

// pacedWalk is a paced walker as a simulation actor.
type pacedWalk struct {
	walk func(at vtime.Time) (done bool, end vtime.Time, err error)
	pace *vtime.Pacer
	at   vtime.Time // the end of the last step
	done bool
}

// next is the virtual time the walker's next step starts at.
func (w *pacedWalk) next() vtime.Time { return w.at.Add(w.pace.Debt(w.at)) }

func (w *pacedWalk) step(t *testing.T) {
	done, end, err := w.walk(w.at)
	if err != nil {
		t.Fatal(err)
	}
	w.at, w.done = end, done
}

// foregroundP99 runs a closed-loop QD-4 workload of 256 random 4 KiB
// reads over the first 2 MiB of e from virtual time 0, one op at a time
// in virtual-time order, interleaved with walk's steps when walk is not
// nil. It returns the reads' p99 latency, as fio.Result reports it.
func foregroundP99(t *testing.T, e *core.EncryptedImage, walk *pacedWalk) time.Duration {
	const qd, ops, span = 4, 256, 2 << 20
	rng := rand.New(rand.NewSource(9))
	clocks := make([]vtime.Time, qd)
	buf := make([]byte, bs)
	lats := make([]time.Duration, 0, ops)
	for len(lats) < ops {
		j := 0
		for k := range clocks {
			if clocks[k] < clocks[j] {
				j = k
			}
		}
		if walk != nil && !walk.done && walk.next() <= clocks[j] {
			walk.step(t)
			continue
		}
		end, err := e.ReadAt(clocks[j], buf, rng.Int63n(span/bs)*bs)
		if err != nil {
			t.Fatal(err)
		}
		lats = append(lats, end.Sub(clocks[j]))
		clocks[j] = end
	}
	slices.Sort(lats)
	return lats[int(0.99*float64(len(lats)-1))]
}
