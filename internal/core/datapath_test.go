package core

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"repro/internal/rbd"
)

func TestForBlocksCoversRangeOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		for _, n := range []int64{1, 2, 7, 64, 1000} {
			counts := make([]int32, n)
			err := forBlocks(workers, n, func(lo, hi int64) error {
				for b := lo; b < hi; b++ {
					atomic.AddInt32(&counts[b], 1)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for b, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: block %d visited %d times", workers, n, b, c)
				}
			}
		}
	}
}

func TestForBlocksPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	err := forBlocks(8, 100, func(lo, hi int64) error {
		if lo <= 42 && 42 < hi {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
}

func TestForExtentBlocksMapping(t *testing.T) {
	const bs = 4096
	exts := []rbd.Extent{
		{ObjIdx: 0, ObjOff: 5 * bs, Length: 3 * bs, BufOff: 0},
		{ObjIdx: 1, ObjOff: 0, Length: 1 * bs, BufOff: 3 * bs},
		{ObjIdx: 2, ObjOff: 0, Length: 4 * bs, BufOff: 4 * bs},
	}
	for _, workers := range []int{1, 4} {
		var visited [3][]int32
		for i, ext := range exts {
			visited[i] = make([]int32, ext.Length/bs)
		}
		err := forExtentBlocks(workers, exts, bs, func(ei int, b int64) error {
			atomic.AddInt32(&visited[ei][b], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range visited {
			for b, c := range visited[i] {
				if c != 1 {
					t.Fatalf("workers=%d ext %d block %d visited %d times", workers, i, b, c)
				}
			}
		}
	}
}

func TestBufPool(t *testing.T) {
	for _, n := range []int{1, 100, 4096, 4097, 1 << 20, 64 << 20} {
		b := getBuf(n)
		if len(b) != n {
			t.Fatalf("getBuf(%d) len %d", n, len(b))
		}
		putBuf(b)
	}
	if getBuf(0) != nil {
		t.Fatal("getBuf(0) should be nil")
	}
	z := getZeroBuf(8192)
	if !bytes.Equal(z, make([]byte, 8192)) {
		t.Fatal("getZeroBuf not zeroed")
	}
	putBuf(z)
	// Foreign buffers (odd capacity) must be rejected, not corrupt a class.
	putBuf(make([]byte, 5000))
}

// pipelineFixture builds a planner+cryptor pair without a cluster, for
// pure seal/open pipeline tests and benchmarks.
func pipelineFixture(tb testing.TB, scheme Scheme, layout Layout) (*planner, cryptor) {
	tb.Helper()
	key := make([]byte, 64)
	if _, err := rand.Read(key); err != nil {
		tb.Fatal(err)
	}
	c, err := newCryptor(scheme, key)
	if err != nil {
		tb.Fatal(err)
	}
	p := &planner{
		layout:     layout,
		blockSize:  DefaultBlockSize,
		metaLen:    int64(c.metaLen()),
		objectSize: 4 << 20,
	}
	return p, c
}

// sealExtent runs the zero-copy seal pipeline over one extent's worth of
// plaintext and returns the staged plan (caller releases).
func sealExtent(p *planner, c cryptor, workers int, src []byte, meta []byte) (*writePlan, error) {
	bs := p.blockSize
	nb := int64(len(src)) / bs
	w := p.newWritePlan(0, nb)
	if rl := c.randLen(); rl > 0 {
		for b := int64(0); b < nb; b++ {
			copy(w.metaDst(b)[:rl], meta[int(b)*rl:])
		}
	}
	err := forBlocks(workers, nb, func(lo, hi int64) error {
		for b := lo; b < hi; b++ {
			if err := c.seal(w.cipherDst(b), src[b*bs:(b+1)*bs], uint64(b), w.metaDst(b)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		w.release()
		return nil, err
	}
	return w, nil
}

// TestSealPipelineMatchesSerial checks the parallel zero-copy pipeline
// produces block-for-block identical wire bytes to a serial
// encrypt-then-copy reference for every scheme × layout.
func TestSealPipelineMatchesSerial(t *testing.T) {
	for _, combo := range allCombos() {
		t.Run(fmt.Sprintf("%v/%v", combo.Scheme, combo.Layout), func(t *testing.T) {
			p, c := pipelineFixture(t, combo.Scheme, combo.Layout)
			const nb = 64
			bs := p.blockSize
			src := make([]byte, nb*bs)
			mrand.New(mrand.NewSource(7)).Read(src)
			meta := make([]byte, nb*max(c.randLen(), 1))
			mrand.New(mrand.NewSource(8)).Read(meta)

			// Serial reference through the legacy copying path.
			refCipher := make([]byte, nb*bs)
			refMeta := make([]byte, nb*p.metaLen)
			for b := int64(0); b < nb; b++ {
				if rl := c.randLen(); rl > 0 {
					copy(refMeta[b*p.metaLen:], meta[int(b)*rl:int(b+1)*rl])
				}
				if err := c.seal(refCipher[b*bs:(b+1)*bs], src[b*bs:(b+1)*bs], uint64(b), refMeta[b*p.metaLen:(b+1)*p.metaLen]); err != nil {
					t.Fatal(err)
				}
			}
			refOps := p.writeOps(0, refCipher, refMeta)

			w, err := sealExtent(p, c, 4, src, meta)
			if err != nil {
				t.Fatal(err)
			}
			defer w.release()
			gotOps := w.ops()

			if len(gotOps) != len(refOps) {
				t.Fatalf("op count %d != %d", len(gotOps), len(refOps))
			}
			for i := range gotOps {
				if !bytes.Equal(gotOps[i].Data, refOps[i].Data) {
					t.Fatalf("op %d wire bytes differ", i)
				}
				if len(gotOps[i].Pairs) != len(refOps[i].Pairs) {
					t.Fatalf("op %d pair count differs", i)
				}
				for j := range gotOps[i].Pairs {
					if !bytes.Equal(gotOps[i].Pairs[j].Value, refOps[i].Pairs[j].Value) {
						t.Fatalf("op %d pair %d differs", i, j)
					}
				}
			}
		})
	}
}

// BenchmarkDatapathSeal measures the pure seal pipeline (no cluster):
// layout staging + cipher, serial vs parallel. With -benchmem it
// demonstrates the zero-per-block-allocation steady state (the only
// allocations are the per-IO plan header and op vector).
func BenchmarkDatapathSeal(b *testing.B) {
	for _, combo := range allCombos() {
		for _, mode := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", 0}} {
			workers := mode.workers
			if workers == 0 {
				workers = maxParallelism()
			}
			b.Run(fmt.Sprintf("%v-%v/%s", combo.Scheme, combo.Layout, mode.name), func(b *testing.B) {
				p, c := pipelineFixture(b, combo.Scheme, combo.Layout)
				const nb = 256 // one 1 MiB extent
				src := make([]byte, nb*p.blockSize)
				mrand.New(mrand.NewSource(7)).Read(src)
				meta := make([]byte, nb*max(c.randLen(), 1))
				mrand.New(mrand.NewSource(8)).Read(meta)
				b.SetBytes(int64(len(src)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w, err := sealExtent(p, c, workers, src, meta)
					if err != nil {
						b.Fatal(err)
					}
					w.release()
				}
			})
		}
	}
}

// BenchmarkOMAPReadAllocs pins the allocation budget of the omap
// layout's read path end to end (client → OSD → KV scan → wire decode →
// open pipeline). Run with -benchmem: the KV scan and the wire pair
// decoding are arena-batched, so allocs/op stays in the dozens instead
// of the ~1k-per-IO (two per OMAP pair) the layout used to pay.
func BenchmarkOMAPReadAllocs(b *testing.B) {
	e := newEncrypted(b, SchemeXTSRand, LayoutOMAP)
	io := make([]byte, 256<<10) // 64 blocks → 64 OMAP pairs per IO
	mrand.New(mrand.NewSource(3)).Read(io)
	if _, err := e.WriteAt(0, io, 0); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(io)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ReadAt(0, io, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOMAPWriteAllocs is the write-side twin: a 64 KiB WriteAt on
// gcm-auth/omap commits 16 OMAP pairs on each of three replicas, the
// shape of the benchmark's randwrite-64k-gcm-omap. Run with -benchmem:
// the commit path (OSD execute → blobstore transaction → KV batch, WAL
// and memtable) stages into reused arenas, so allocs/op does not grow
// with the number of pairs.
func BenchmarkOMAPWriteAllocs(b *testing.B) {
	e := newEncrypted(b, SchemeGCM, LayoutOMAP)
	io := make([]byte, 64<<10)
	mrand.New(mrand.NewSource(3)).Read(io)
	if _, err := e.WriteAt(0, io, 0); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(io)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.WriteAt(0, io, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatapathOpen measures the pure open pipeline: parse staged
// wire bytes and decrypt, serial vs parallel.
func BenchmarkDatapathOpen(b *testing.B) {
	for _, combo := range allCombos() {
		for _, mode := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", 0}} {
			workers := mode.workers
			if workers == 0 {
				workers = maxParallelism()
			}
			b.Run(fmt.Sprintf("%v-%v/%s", combo.Scheme, combo.Layout, mode.name), func(b *testing.B) {
				p, c := pipelineFixture(b, combo.Scheme, combo.Layout)
				const nb = 256
				bs := p.blockSize
				src := make([]byte, nb*bs)
				mrand.New(mrand.NewSource(7)).Read(src)
				meta := make([]byte, nb*max(c.randLen(), 1))
				mrand.New(mrand.NewSource(8)).Read(meta)
				w, err := sealExtent(p, c, maxParallelism(), src, meta)
				if err != nil {
					b.Fatal(err)
				}
				defer w.release()
				dst := make([]byte, nb*bs)
				b.SetBytes(int64(len(src)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					err := forBlocks(workers, nb, func(lo, hi int64) error {
						for blk := lo; blk < hi; blk++ {
							if err := c.open(dst[blk*bs:(blk+1)*bs], w.cipherDst(blk)[:bs], uint64(blk), w.metaDst(blk)); err != nil {
								return err
							}
						}
						return nil
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if !bytes.Equal(dst, src) {
					b.Fatal("open pipeline did not invert seal")
				}
			})
		}
	}
}

// TestHotPathAllocBudget pins the per-op heap allocations of a warmed
// 4 KiB ReadAt and WriteAt through the whole in-process stack at their
// measured counts: 12 for the read and 22 for the write (22 and 45 until
// placement came from a per-map table, bufpool stopped boxing every Put,
// the store's metadata-sector RMW used a store-owned scratch and the
// OSD's transaction lists started in arrays; 53 until the replica
// fan-out stopped spawning a goroutine per peer, 128 until the KV commit
// path stopped allocating per key, per node and per WAL image on each of
// the three replicas). One stray closure, interface conversion or escaped
// objFetch per IO fails here, long before it trips BENCHMARK.json's 2 %
// allocs_per_op bound. The warmed 4 KiB object-end write is also held to
// writeBytesCeiling bytes: its three replicas' IV-sector RMWs once made
// a 4 KiB buffer each. A warmed 1 MiB unaligned-layout ReadAt is pinned
// at 22 (gcm-auth) and 23 (xts-rand: the pooled covering read's Put)
// allocations and at most 16 KiB a read.
func TestHotPathAllocBudget(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if (s.Key == "-race" && s.Value == "true") || (s.Key == "-tags" && s.Value != "") {
				t.Skipf("instrumented build (%s=%s) allocates differently", s.Key, s.Value)
			}
		}
	}
	const readBudget, writeBudget = 12, 22
	e := newEncrypted(t, SchemeXTSRand, LayoutObjectEnd)
	e.SetParallelism(1)
	buf := make([]byte, 4096)
	io := func(write bool) func() {
		return func() {
			var err error
			if write {
				_, err = e.WriteAt(0, buf, 8192)
			} else {
				_, err = e.ReadAt(0, buf, 8192)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 64; i++ { // warm the object, the locks and the pools
		io(true)()
		io(false)()
	}
	if got := testing.AllocsPerRun(200, io(false)); got > readBudget {
		t.Errorf("4 KiB ReadAt: %.0f allocs/op, budget %d", got, readBudget)
	}
	if got := testing.AllocsPerRun(200, io(true)); got > writeBudget {
		t.Errorf("4 KiB WriteAt: %.0f allocs/op, budget %d", got, writeBudget)
	}

	// The 1 MiB unaligned-layout read opens every block in place in the
	// fetched stream, and simdisk takes the covering buffer of the
	// sector-misaligned xts-rand stream (256 × 4116 bytes) from the pool.
	// The byte ceiling is well under one block: a de-stride buffer or a
	// per-read covering buffer (1 MiB each) coming back fails here.
	const bulkBytesCeiling = 16 << 10
	// sync.Pool keeps a private slot per P: a read that migrates to
	// another P misses the buffer it just put back and refills a 1 MiB
	// one. One P over the warm-up and both windows keeps the scheduler
	// out of the measurement.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	const writeBytesCeiling = 3 << 10
	{
		const runs = 200
		write := io(true)
		runtime.GC()
		for i := 0; i < 8; i++ {
			write()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			write()
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > writeBytesCeiling {
			t.Errorf("4 KiB WriteAt xts-rand/object-end: %d B/op, ceiling %d", got, writeBytesCeiling)
		}
	}

	for _, tc := range []struct {
		scheme Scheme
		budget float64
	}{{SchemeGCM, 22}, {SchemeXTSRand, 23}} {
		e := newEncrypted(t, tc.scheme, LayoutUnaligned)
		e.SetParallelism(1)
		bulk := make([]byte, 1<<20)
		if _, err := e.WriteAt(0, bulk, 0); err != nil {
			t.Fatal(err)
		}
		read := func() {
			if _, err := e.ReadAt(0, bulk, 0); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC() // settle the heap first: a GC inside the window empties the pools
		for i := 0; i < 8; i++ {
			read()
		}
		if got := testing.AllocsPerRun(50, read); got > tc.budget {
			t.Errorf("1 MiB ReadAt %v/unaligned: %.0f allocs/op, budget %.0f", tc.scheme, got, tc.budget)
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			read()
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > bulkBytesCeiling {
			t.Errorf("1 MiB ReadAt %v/unaligned: %d B/op, ceiling %d", tc.scheme, got, bulkBytesCeiling)
		}
	}
}
