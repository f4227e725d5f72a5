package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/fio"
)

// workload is one row of the benchmark: a fio spec, the scheme/layout it
// runs through, and the sizes that keep its numbers steady. The names are
// the contract with BENCHMARK.json; everything else is sizing.
type workload struct {
	name      string
	pattern   fio.Pattern
	blockSize int64
	scheme    core.Scheme
	layout    core.Layout
	// chunkOps is the fixed op count of one fio.Run inside the measured
	// window. Every chunk is at least 1100 ops so its p99 has ten samples
	// beyond it, and a second or more of wall time on the reference box,
	// which on the write workloads is a GC cycle's worth of allocation
	// (and, on the OMAP workload, several flushes): the fastest chunk
	// still pays for garbage it makes.
	chunkOps int
	// chunks is how many chunks the measured window runs at the nominal
	// run length (nominalSeconds), sized on the 2-core reference box at
	// the commit that added the benchmark.
	chunks int
	// warmOps is the discarded warm-up pass that ends set-up.
	warmOps int
	// twinChunks is how many chunks the luks2 twin behind vt_bw_vs_luks2
	// runs at the nominal run length: two, or one on the 1 MiB write, whose
	// window is the longest already and whose twin chunk is two seconds of
	// cipher work. Only the twin's virtual bandwidth is used.
	twinChunks int
	// queueDepth, when non-zero, replaces the 32 jobs of the load model.
	// Only the 1 MiB read sets it, to 12. Its virtual latencies have two
	// modes: a fast one of discrete levels 84 us apart from a 1.70 ms
	// floor (whole 1 MiB transfers queueing on the client link) and a
	// slow one tens of milliseconds up. At QD32 the median sits on the
	// edge between the modes and chunk p50s flip between 2.3 and 9 ms; at
	// QD16 it wanders over five levels of the fast mode; at QD8 and QD9 it
	// is the floor to the nanosecond in every chunk of every run on a
	// quiet host. At QD12 most chunks' p50 is the floor and one or two in
	// seven are one level up.
	queueDepth int
	// memtableBytes, when non-zero, replaces Blob.KV.MemtableBytes. Only
	// the OMAP workload sets it: on the paper's 4 MiB memtable a 256 MiB
	// image overwrites its OMAP keys in place and the LSM never flushes.
	memtableBytes int64
}

// nominalSeconds is the run length the workloads' chunk counts are sized
// for; it is BENCHMARK.json's run_seconds.
const nominalSeconds = 12

var workloads = []workload{
	{name: "randwrite-4k-xts-objend", pattern: fio.RandWrite, blockSize: 4 << 10,
		scheme: core.SchemeXTSRand, layout: core.LayoutObjectEnd, chunkOps: 20000, chunks: 8, warmOps: 10000, twinChunks: 2},
	{name: "randwrite-1m-xts-objend", pattern: fio.RandWrite, blockSize: 1 << 20,
		scheme: core.SchemeXTSRand, layout: core.LayoutObjectEnd, chunkOps: 1200, chunks: 8, warmOps: 400, twinChunks: 1},
	{name: "randwrite-64k-gcm-omap", pattern: fio.RandWrite, blockSize: 64 << 10,
		scheme: core.SchemeGCM, layout: core.LayoutOMAP, chunkOps: 8000, chunks: 8, warmOps: 5000, twinChunks: 2,
		memtableBytes: 128 << 10},
	{name: "randread-4k-xts-objend", pattern: fio.RandRead, blockSize: 4 << 10,
		scheme: core.SchemeXTSRand, layout: core.LayoutObjectEnd, chunkOps: 100000, chunks: 8, warmOps: 60000, twinChunks: 2},
	{name: "randread-1m-gcm-unaligned", pattern: fio.RandRead, blockSize: 1 << 20,
		scheme: core.SchemeGCM, layout: core.LayoutUnaligned, chunkOps: 4000, chunks: 7, warmOps: 2000, twinChunks: 2, queueDepth: 12},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sizing is everything that differs between the real benchmark and the
// 1/200-scale smoke test; a workload divided by it is still the same
// workload.
type sizing struct {
	imageBytes int64
	opsDiv     int // divides chunkOps and warmOps
	setups     int // how many times set-up is run and timed
	queueDepth int
	// rungBudget is the wall time one ladder rung measures for.
	rungBudget time.Duration
}

var fullSize = sizing{imageBytes: 256 << 20, opsDiv: 1, setups: 3, queueDepth: 32, rungBudget: 250 * time.Millisecond}

// minChunks is how many measured chunks run however small --seconds is.
const minChunks = 2

func (s sizing) ops(n int) int {
	if n /= s.opsDiv; n < 4 {
		return 4
	}
	return n
}

// metricSpec is one entry of BENCHMARK.json's end_to_end or per_layer list.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the program reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`

	dir string // directory BENCHMARK.json was found in (the checkout root)
}

// loadSpec finds BENCHMARK.json in the working directory or its parent:
// run.sh starts the program at the checkout root, `go run .` and
// `go test` start it in benchmark/.
func loadSpec() (*benchSpec, error) {
	for _, dir := range []string{".", ".."} {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		spec := &benchSpec{dir: dir}
		if err := json.Unmarshal(raw, spec); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return spec, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

func (s *benchSpec) outDir() string { return filepath.Join(s.dir, "benchmark", "out") }
