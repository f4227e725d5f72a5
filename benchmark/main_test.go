package main

import (
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/fio"
	"repro/internal/rados"
	"repro/internal/vtime"
)

// smokeSize is every workload at 1/200 of its op counts on a 16 MiB
// image: the same code paths in about a second per run.
var smokeSize = sizing{imageBytes: 16 << 20, opsDiv: 200, setups: 1, queueDepth: 32, rungBudget: 5 * time.Millisecond}

func smokeRun(t *testing.T, w workload, trace bool, size sizing) *result {
	t.Helper()
	r, err := run(runConfig{w: w, seed: 7, seconds: 1, trace: trace, size: size}, pinHost())
	if err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, trace, err)
	}
	if r.Failed != 0 || r.RunError != "" {
		t.Fatalf("%s trace=%v: %d failed ops (%d bad blocks), fio error %q", w.name, trace, r.Failed, r.BadBlocks, r.RunError)
	}
	return r
}

// TestSmoke runs every workload both ways and holds the emitted metric
// names to BENCHMARK.json in both directions (report refuses a metric
// that is in one and not the other).
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	if spec.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds is %d, the chunk counts are sized for %d", spec.RunSeconds, nominalSeconds)
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			r := smokeRun(t, w, trace, smokeSize)
			if _, err := report(io.Discard, spec, r); err != nil {
				t.Errorf("%s trace=%v: %v", w.name, trace, err)
			}
			if trace && !w.pattern.Reads() {
				checkLadderShape(t, w, r)
			}
		}
	}
}

// checkLadderShape holds the KV batch the ladder's blobstore and kvstore
// rungs apply, which copies how core, the OSD and blobstore shape a write
// today, to what the real path did in the traced window: the same number
// of KV entries per op on each replica.
func checkLadderShape(t *testing.T, w workload, r *result) {
	t.Helper()
	s, _, err := buildStack(w, w.scheme, w.layout, smokeSize, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	sh := newShape(w, int64(s.enc.MetaLen()))
	want := r.PerLayer["kvstore.entries_per_op"] / float64(rados.DefaultClusterConfig().Replicas)
	if got := float64(sh.batch("ladder.0", 1, 2).Len()); got != want {
		t.Errorf("%s: the ladder's KV batch has %v entries, the window wrote %v per op and replica", w.name, got, want)
	}
}

// offsetRecorder is a null target that files each write's offset under
// the job that issued it; fio fills job j's buffer with byte j+1 first.
type offsetRecorder struct {
	nullTarget
	mu    sync.Mutex
	byJob map[byte][]int64
}

func (r *offsetRecorder) WriteAt(at vtime.Time, p []byte, off int64) (vtime.Time, error) {
	r.mu.Lock()
	r.byJob[p[0]] = append(r.byJob[p[0]], off)
	r.mu.Unlock()
	return r.nullTarget.WriteAt(at, p, off)
}

func TestSameSeedSameOffsets(t *testing.T) {
	w := workloads[0]
	streams := func(seed int64) map[byte][]int64 {
		rec := &offsetRecorder{nullTarget: nullTarget{smokeSize.imageBytes}, byJob: map[byte][]int64{}}
		if _, err := fio.Run(w.spec(smokeSize, 2000, chunkSeed(seed, 3)), rec, 0); err != nil {
			t.Fatal(err)
		}
		return rec.byJob
	}
	// How many ops a job gets depends on the race for the shared op
	// budget; which offsets it draws, in which order, does not.
	samePrefix := func(a, b map[byte][]int64) bool {
		for job, x := range a {
			n := min(len(x), len(b[job]))
			if n == 0 || !reflect.DeepEqual(x[:n], b[job][:n]) {
				return false
			}
		}
		return len(a) == smokeSize.queueDepth && len(b) == len(a)
	}
	a := streams(11)
	if !samePrefix(a, streams(11)) {
		t.Error("seed 11 gave different per-job offset streams on two runs")
	}
	if samePrefix(a, streams(12)) {
		t.Error("seeds 11 and 12 gave the same offsets")
	}
}

// At queue depth 1 nothing races, so the counts a seed produces repeat
// exactly.
func TestQueueDepthOneRepeats(t *testing.T) {
	w, err := findWorkload("randwrite-64k-gcm-omap")
	if err != nil {
		t.Fatal(err)
	}
	size := smokeSize
	size.queueDepth = 1
	a, b := smokeRun(t, w, true, size), smokeRun(t, w, true, size)
	if x, y := a.EndToEnd["dev_bytes_per_user_byte"], b.EndToEnd["dev_bytes_per_user_byte"]; x != y || x == 0 {
		t.Errorf("dev_bytes_per_user_byte %v then %v", x, y)
	}
	if x, y := a.PerLayer["kvstore.entries_per_op"], b.PerLayer["kvstore.entries_per_op"]; x != y || x == 0 {
		t.Errorf("kvstore.entries_per_op %v then %v", x, y)
	}
}

// A block overwritten with garbage on every replica must be counted.
func TestPlantedCorruptionIsCounted(t *testing.T) {
	w := workloads[0]
	s, _, err := buildStack(w, w.scheme, w.layout, smokeSize, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if bad := verifyImage(s.enc, w, smokeSize.queueDepth); bad != 0 {
		t.Fatalf("%d bad blocks before planting any", bad)
	}
	const off = 5*objectBytes/4 + 3*blockBytes // inside object 1
	objIdx, objOff := s.img.ObjectFor(off)
	garbage := make([]byte, blockBytes)
	for i := range garbage {
		garbage[i] = byte(i * 7)
	}
	for _, osd := range s.img.Replicas(objIdx) {
		res, _, err := s.img.OperateOn(s.now, osd, objIdx, 0, []rados.Op{{Kind: rados.OpWrite, Off: objOff, Data: garbage}})
		if err != nil || res[0].Status != rados.StatusOK {
			t.Fatalf("planting on osd %d: %v %v", osd, err, res)
		}
	}
	bad := verifyImage(s.enc, w, smokeSize.queueDepth)
	r := result{Attempted: 1000, Failed: failedOps(1000, 1000, bad)}
	if bad != 1 || r.failedPct() <= 0 {
		t.Errorf("planted one corrupt block: verify counted %d, failed_ops_pct %v", bad, r.failedPct())
	}
}
