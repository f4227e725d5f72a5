package core

// datapath.go is the parallel, pooled seal/open pipeline behind
// EncryptedImage.WriteAt and ReadAtSnap. The per-4-KiB-block cipher work
// is the hottest CPU path in the repo (the paper's client-side cost), so
// it gets three optimizations here:
//
//  1. a shared worker pool, sized to runtime.GOMAXPROCS, that fans
//     seal/open across blocks within and across extents;
//  2. sync.Pool-backed scratch buffers for every wire, metadata and
//     cipher-scratch allocation, so the steady state performs no
//     per-block heap allocations;
//  3. chunked dispatch (contiguous block ranges, one chunk per worker)
//     so cross-goroutine coordination cost is per-IO, not per-block.
//
// The pool is package-global and lazily started: images share workers,
// and per-image parallelism is bounded by SetParallelism.

import (
	"runtime"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/rbd"
)

// maxParallelism is the datapath's default worker count: one cipher
// worker per scheduler core.
func maxParallelism() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// ---- scratch buffer pool ----

// Buffers come from the shared internal/bufpool size-classed pool, which
// the RADOS wire layer draws from as well. It is safe — and required for
// the zero-alloc steady state — that callers return buffers with putBuf
// once no wire op references them: Operate on the in-process fast path
// hands the buffers to the OSD, which copies what it persists before
// returning, and on the byte codec path the transport consumes them
// before Call returns, so release-after-Operate is sound either way.

func getBuf(n int) []byte     { return bufpool.Get(n) }
func getZeroBuf(n int) []byte { return bufpool.GetZero(n) }
func putBuf(b []byte)         { bufpool.Put(b) }

// ---- worker pool ----

type blockJob struct {
	lo, hi int64
	run    func(lo, hi int64) error
	wg     *sync.WaitGroup
	res    *jobErr
}

// jobErr collects the first error across a job's chunks.
type jobErr struct {
	mu  sync.Mutex
	err error
}

func (j *jobErr) set(err error) {
	if err == nil {
		return
	}
	j.mu.Lock()
	if j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
}

var (
	dpOnce sync.Once
	dpJobs chan blockJob
)

// dpStart launches the shared datapath workers, one per scheduler core.
func dpStart() {
	n := maxParallelism()
	dpJobs = make(chan blockJob, 4*n)
	for i := 0; i < n; i++ {
		//vetrepo:ignore vtimeonly cipher workers do host work and charge no virtual time
		go func() {
			for job := range dpJobs {
				mDPQueue.Add(-1)
				mDPBusy.Add(1)
				job.res.set(job.run(job.lo, job.hi))
				mDPBusy.Add(-1)
				job.wg.Done()
			}
		}()
	}
}

// forBlocks runs fn over the block range [0, n), split into at most
// `workers` contiguous chunks executed on the shared pool. The calling
// goroutine always processes the final chunk itself, so a single-worker
// (or single-block) call never leaves the caller's goroutine, and a full
// job queue degrades to inline execution instead of blocking.
func forBlocks(workers int, n int64, fn func(lo, hi int64) error) error {
	if n <= 0 {
		return nil
	}
	if int64(workers) > n {
		workers = int(n)
	}
	if workers <= 1 {
		return fn(0, n)
	}
	dpOnce.Do(dpStart)
	var (
		wg  sync.WaitGroup
		res jobErr
	)
	chunk := (n + int64(workers) - 1) / int64(workers)
	var lo int64
	for lo = 0; lo+chunk < n; lo += chunk {
		job := blockJob{lo: lo, hi: lo + chunk, run: fn, wg: &wg, res: &res}
		wg.Add(1)
		mDPQueue.Add(1)
		select {
		case dpJobs <- job:
		default:
			// Queue full: the pool is saturated and this chunk degrades to
			// inline execution — the backpressure event the
			// datapath-queue-saturation health rule counts.
			mDPQueue.Add(-1)
			mDPInline.Inc()
			res.set(fn(job.lo, job.hi))
			wg.Done()
		}
	}
	res.set(fn(lo, n))
	wg.Wait()
	res.mu.Lock()
	defer res.mu.Unlock()
	return res.err
}

// forExtentBlocks fans fn across every block of every extent: the flat
// block index space of the whole IO is chunked over the pool, so small
// extents do not serialize behind each other (parallelism within AND
// across extents). fn receives the extent's position in exts and the
// block index local to that extent.
func forExtentBlocks(workers int, exts []rbd.Extent, blockSize int64, fn func(ei int, b int64) error) error {
	if len(exts) == 1 {
		nb := exts[0].Length / blockSize
		return forBlocks(workers, nb, func(lo, hi int64) error {
			for b := lo; b < hi; b++ {
				if err := fn(0, b); err != nil {
					return err
				}
			}
			return nil
		})
	}
	// starts[i] is the flat index of exts[i]'s first block.
	starts := make([]int64, len(exts)+1)
	for i, ext := range exts {
		starts[i+1] = starts[i] + ext.Length/blockSize
	}
	total := starts[len(exts)]
	return forBlocks(workers, total, func(lo, hi int64) error {
		ei := 0
		for starts[ei+1] <= lo {
			ei++
		}
		for g := lo; g < hi; g++ {
			for starts[ei+1] <= g {
				ei++
			}
			if err := fn(ei, g-starts[ei]); err != nil {
				return err
			}
		}
		return nil
	})
}
