package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/fio"
	"repro/internal/vtime"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Times are nanoseconds since the log was
// created; Parent is the ID of the span that caused this one (0: none).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Ops    int    `json:"ops,omitempty"` // operations the interval covers, when not one
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// open starts a span now and returns its ID for close and for children.
func (l *spanLog) open(name string, parent, ops int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Name: name, Start: int64(time.Since(l.epoch)), Parent: parent, Ops: ops})
	return id
}

// close ends the span open returned; ID 0 (no span) is ignored.
func (l *spanLog) close(id int) {
	if id == 0 {
		return
	}
	l.mu.Lock()
	l.spans[id-1].End = int64(time.Since(l.epoch))
	l.mu.Unlock()
}

// add records a finished interval.
func (l *spanLog) add(name string, start, end time.Time, parent, ops int) {
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Name: name,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch)), Parent: parent, Ops: ops})
	l.mu.Unlock()
}

// maxOpSpansWritten caps the per-op spans in the trace file; a 4 KiB read
// window records several hundred thousand. All of them stay in memory
// for the percentiles, the file says how many it left out.
const maxOpSpansWritten = 20000

// write stores the spans as benchmark/out/trace-<workload>.json.
func (l *spanLog) write(dir, workload string) (string, error) {
	out := struct {
		Workload       string `json:"workload"`
		OpSpansOmitted int    `json:"fio_op_spans_omitted"`
		Spans          []span `json:"spans"`
	}{Workload: workload}
	opSpans := 0
	for _, s := range l.spans {
		if s.Name == "fio.op" {
			if opSpans++; opSpans > maxOpSpansWritten {
				out.OpSpansOmitted++
				continue
			}
		}
		out.Spans = append(out.Spans, s)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, raw, 0o644)
}

// spanTarget wraps the fio target of a traced chunk and records one wall
// span per image op.
type spanTarget struct {
	inner  fio.Target
	log    *spanLog
	parent int
}

func (t *spanTarget) Size() int64 { return t.inner.Size() }

func (t *spanTarget) ReadAt(at vtime.Time, p []byte, off int64) (vtime.Time, error) {
	start := time.Now()
	end, err := t.inner.ReadAt(at, p, off)
	t.log.add("fio.op", start, time.Now(), t.parent, 0)
	return end, err
}

func (t *spanTarget) WriteAt(at vtime.Time, p []byte, off int64) (vtime.Time, error) {
	start := time.Now()
	end, err := t.inner.WriteAt(at, p, off)
	t.log.add("fio.op", start, time.Now(), t.parent, 0)
	return end, err
}

// traceMetrics is the traced run's bookkeeping: the wall latency of one
// image op as fio saw it, and what recording it cost in throughput.
func traceMetrics(m metrics, l *spanLog, untraced, traced []chunk) {
	lat := sortedDurations(l, "fio.op")
	m["fio.op_wall_p50_us"] = percentile(lat, 0.50)
	m["fio.op_wall_p99_us"] = percentile(lat, 0.99)
	// Pairs share a seed and sit next to each other in time, so the
	// median of the per-pair differences cancels most of the host's drift.
	var overhead []float64
	for i := range traced {
		overhead = append(overhead, 100*(wallMBps(untraced[i])-wallMBps(traced[i]))/wallMBps(untraced[i]))
	}
	m["trace.overhead_pct"] = median(overhead)
}

// sortedDurations returns the durations of the named spans in
// microseconds, ascending.
func sortedDurations(l *spanLog, name string) []float64 {
	var v []float64
	for _, s := range l.spans {
		if s.Name == name {
			v = append(v, float64(s.End-s.Start)/1e3)
		}
	}
	sort.Float64s(v)
	return v
}
