// Benchmarks regenerating the paper's evaluation artifacts as testing.B
// benches — one benchmark family per figure/table, plus the ablations.
// go test -bench reports real ns/op of the full stack (crypto and engines
// execute for real) and, via ReportMetric, the virtual-time bandwidth
// that corresponds to the paper's y-axes. cmd/benchfig runs the full
// high-resolution sweep.
package repro

import (
	"bytes"
	"crypto/aes"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/crypto/blockmask"
	"repro/internal/crypto/eme"
	"repro/internal/crypto/xts"
	"repro/internal/fio"
	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/simdisk"
	"repro/internal/vtime"
)

// benchCluster builds a small paper-shaped cluster (3 OSDs, fewer disks
// to keep bench setup fast) with an encrypted, preconditioned image.
func benchCluster(b *testing.B, scheme core.Scheme, layout core.Layout) (*core.EncryptedImage, vtime.Time, func()) {
	b.Helper()
	cfg := rados.DefaultClusterConfig()
	cfg.DisksPerOSD = 3
	cfg.DiskSectors = (4 << 30) / simdisk.SectorSize
	cfg.PGNum = 64
	cfg.EphemeralData = true
	cluster, err := rados.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	client := cluster.NewClient("bench")
	if _, err := rbd.Create(0, client, "rbd", "img", 256<<20); err != nil {
		b.Fatal(err)
	}
	img, _, err := rbd.Open(0, client, "rbd", "img")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := core.Format(0, img, []byte("b"), core.Options{Scheme: scheme, Layout: layout}); err != nil {
		b.Fatal(err)
	}
	enc, _, err := core.Load(0, img, []byte("b"))
	if err != nil {
		b.Fatal(err)
	}
	now, err := fio.Precondition(enc, 0, core.DefaultBlockSize, 0)
	if err != nil {
		b.Fatal(err)
	}
	return enc, now, cluster.Close
}

func figureSchemes() []struct {
	Name   string
	Scheme core.Scheme
	Layout core.Layout
} {
	return []struct {
		Name   string
		Scheme core.Scheme
		Layout core.Layout
	}{
		{"LUKS2", core.SchemeLUKS2, core.LayoutNone},
		{"Unaligned", core.SchemeXTSRand, core.LayoutUnaligned},
		{"ObjectEnd", core.SchemeXTSRand, core.LayoutObjectEnd},
		{"OMAP", core.SchemeXTSRand, core.LayoutOMAP},
	}
}

func runFigureBench(b *testing.B, pattern fio.Pattern, scheme core.Scheme, layout core.Layout, kb int64) {
	enc, now, closeFn := benchCluster(b, scheme, layout)
	defer closeFn()
	b.ResetTimer()
	res, err := fio.Run(fio.Spec{
		Pattern:    pattern,
		BlockSize:  kb << 10,
		QueueDepth: 32,
		TotalOps:   b.N,
	}, enc, now)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.SetBytes(kb << 10)
	b.ReportMetric(res.MBps(), "virtualMB/s")
	b.ReportMetric(float64(res.Latencies.P99.Microseconds()), "p99_us")
}

// BenchmarkFig3aReadBandwidth regenerates Figure 3a points.
func BenchmarkFig3aReadBandwidth(b *testing.B) {
	for _, s := range figureSchemes() {
		for _, kb := range []int64{4, 64, 1024} {
			b.Run(fmt.Sprintf("%s/%dK", s.Name, kb), func(b *testing.B) {
				runFigureBench(b, fio.RandRead, s.Scheme, s.Layout, kb)
			})
		}
	}
}

// BenchmarkFig3bWriteBandwidth regenerates Figure 3b points.
func BenchmarkFig3bWriteBandwidth(b *testing.B) {
	for _, s := range figureSchemes() {
		for _, kb := range []int64{4, 64, 1024} {
			b.Run(fmt.Sprintf("%s/%dK", s.Name, kb), func(b *testing.B) {
				runFigureBench(b, fio.RandWrite, s.Scheme, s.Layout, kb)
			})
		}
	}
}

// BenchmarkFig4WriteOverhead reports the Figure 4 metric directly: the
// write slowdown of each IV placement vs the LUKS2 baseline at one size.
func BenchmarkFig4WriteOverhead(b *testing.B) {
	for _, s := range figureSchemes()[1:] {
		b.Run(s.Name+"/64K", func(b *testing.B) {
			base, baseNow, baseClose := benchCluster(b, core.SchemeLUKS2, core.LayoutNone)
			defer baseClose()
			enc, now, closeFn := benchCluster(b, s.Scheme, s.Layout)
			defer closeFn()
			b.ResetTimer()
			spec := fio.Spec{Pattern: fio.RandWrite, BlockSize: 64 << 10, QueueDepth: 32, TotalOps: b.N}
			rb, err := fio.Run(spec, base, baseNow)
			if err != nil {
				b.Fatal(err)
			}
			rs, err := fio.Run(spec, enc, now)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if rb.MBps() > 0 {
				b.ReportMetric(100*(1-rs.MBps()/rb.MBps()), "overhead_%")
			}
		})
	}
}

// pipelineCombos is every scheme with each of its valid layouts.
func pipelineCombos() []struct {
	Name   string
	Scheme core.Scheme
	Layout core.Layout
} {
	return []struct {
		Name   string
		Scheme core.Scheme
		Layout core.Layout
	}{
		{"luks2-none", core.SchemeLUKS2, core.LayoutNone},
		{"eme2-det-none", core.SchemeEME2Det, core.LayoutNone},
		{"xts-rand-unaligned", core.SchemeXTSRand, core.LayoutUnaligned},
		{"xts-rand-object-end", core.SchemeXTSRand, core.LayoutObjectEnd},
		{"xts-rand-omap", core.SchemeXTSRand, core.LayoutOMAP},
		{"gcm-auth-unaligned", core.SchemeGCM, core.LayoutUnaligned},
		{"gcm-auth-object-end", core.SchemeGCM, core.LayoutObjectEnd},
		{"gcm-auth-omap", core.SchemeGCM, core.LayoutOMAP},
		{"eme2-rand-unaligned", core.SchemeEME2Rand, core.LayoutUnaligned},
		{"eme2-rand-object-end", core.SchemeEME2Rand, core.LayoutObjectEnd},
		{"eme2-rand-omap", core.SchemeEME2Rand, core.LayoutOMAP},
	}
}

// pipelineCluster is a compact cluster for the pipeline benchmarks: the
// IO mix is sized so crypto (the pipeline under test) dominates, and the
// image is small enough that the non-ephemeral open benches fit in RAM.
func pipelineCluster(b *testing.B, scheme core.Scheme, layout core.Layout, ephemeral bool) (*core.EncryptedImage, func()) {
	b.Helper()
	cfg := rados.DefaultClusterConfig()
	cfg.DisksPerOSD = 2
	cfg.DiskSectors = (1 << 30) / simdisk.SectorSize
	cfg.PGNum = 16
	cfg.EphemeralData = ephemeral
	cfg.Blob.KVBytes = 256 << 20
	cfg.Blob.KV.WALBytes = 16 << 20
	cluster, err := rados.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	client := cluster.NewClient("pipe-bench")
	if _, err := rbd.Create(0, client, "rbd", "pipe", 64<<20); err != nil {
		b.Fatal(err)
	}
	img, _, err := rbd.Open(0, client, "rbd", "pipe")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := core.Format(0, img, []byte("b"), core.Options{Scheme: scheme, Layout: layout}); err != nil {
		b.Fatal(err)
	}
	enc, _, err := core.Load(0, img, []byte("b"))
	if err != nil {
		b.Fatal(err)
	}
	return enc, cluster.Close
}

// pipelineModes compares the serial datapath (SetParallelism(1), the old
// per-block loop's execution model) against the parallel worker pool.
// The ≥2x seal/open speedup for xts-rand and gcm-auth only shows on a
// multi-core runner; on one core the two modes should be within noise
// (the pool hands the whole range to the calling goroutine).
func pipelineModes() []struct {
	Name  string
	Cores int
} {
	return []struct {
		Name  string
		Cores int
	}{
		{"serial", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	}
}

// BenchmarkSealPipeline measures the full encrypted write path (seal +
// layout staging + RADOS transaction) with 1 MiB IOs, serial vs
// parallel, across every scheme × layout.
func BenchmarkSealPipeline(b *testing.B) {
	for _, c := range pipelineCombos() {
		for _, mode := range pipelineModes() {
			b.Run(c.Name+"/"+mode.Name, func(b *testing.B) {
				enc, closeFn := pipelineCluster(b, c.Scheme, c.Layout, true)
				defer closeFn()
				enc.SetParallelism(mode.Cores)
				buf := make([]byte, 1<<20)
				for i := range buf {
					buf[i] = byte(i*131) | 1
				}
				b.SetBytes(1 << 20)
				b.ReportAllocs()
				// Touch the 32 offsets the loop cycles over first: object
				// creation left in the timed loop made allocs/op fall with
				// the count (29 at 50x, 26 at 100x, 23 at 400x).
				now := vtime.Time(0)
				for i := 0; i < 32; i++ {
					end, err := enc.WriteAt(now, buf, int64(i)<<21)
					if err != nil {
						b.Fatal(err)
					}
					now = end
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					end, err := enc.WriteAt(now, buf, int64(i%32)<<21)
					if err != nil {
						b.Fatal(err)
					}
					now = end
				}
			})
		}
	}
}

// BenchmarkOpenPipeline measures the full encrypted read path (RADOS
// fetch + presence parse + open) with 1 MiB IOs over a preconditioned
// region. Non-ephemeral data areas: the authenticated scheme must read
// back real ciphertext.
func BenchmarkOpenPipeline(b *testing.B) {
	for _, c := range pipelineCombos() {
		for _, mode := range pipelineModes() {
			b.Run(c.Name+"/"+mode.Name, func(b *testing.B) {
				enc, closeFn := pipelineCluster(b, c.Scheme, c.Layout, false)
				defer closeFn()
				enc.SetParallelism(mode.Cores)
				const span = 32 << 20
				now, err := fio.Precondition(enc, span, core.DefaultBlockSize, 0)
				if err != nil {
					b.Fatal(err)
				}
				buf := make([]byte, 1<<20)
				b.SetBytes(1 << 20)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					end, err := enc.ReadAt(now, buf, int64(i%32)<<20)
					if err != nil {
						b.Fatal(err)
					}
					now = end
				}
			})
		}
	}
}

// BenchmarkSequentialVsRandom checks the §3.3 note that sequential IO
// behaves like random IO at large sizes.
func BenchmarkSequentialVsRandom(b *testing.B) {
	for _, pattern := range []fio.Pattern{fio.RandWrite, fio.SeqWrite} {
		b.Run(pattern.String()+"/1024K", func(b *testing.B) {
			runFigureBench(b, pattern, core.SchemeXTSRand, core.LayoutObjectEnd, 1024)
		})
	}
}

// BenchmarkTheoreticalSectorCounts exercises the §3.3 analytic model (it
// is pure computation; the numbers are what matter — see README.md).
func BenchmarkTheoreticalSectorCounts(b *testing.B) {
	var sink int64
	for i := 0; i < b.N; i++ {
		for _, kb := range []int64{4, 32, 4096} {
			sink += core.SectorCount(core.LayoutObjectEnd, kb<<10, 4096, 16)
			sink += core.SectorCount(core.LayoutUnaligned, kb<<10, 4096, 16)
		}
	}
	if sink == 0 {
		b.Fatal("unexpected")
	}
}

// BenchmarkCipherModes compares the sector ciphers of §2 on real CPU:
// the AES primitive beneath them, XTS (narrow block) and EME2-style
// (wide block). This is ablation A-C.
func BenchmarkCipherModes(b *testing.B) {
	key64 := bytes.Repeat([]byte{7}, 64)
	pt := make([]byte, 4096)
	ct := make([]byte, 4096)
	for i := range pt {
		pt[i] = byte(i)
	}

	// The bare single-block AES-256 loop: the floor of the primitive's
	// generic path, which every GOARCH but amd64 with AES-NI takes.
	b.Run("aes256-blockloop-4K", func(b *testing.B) {
		blk, err := aes.NewCipher(key64[:32])
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(4096)
		for i := 0; i < b.N; i++ {
			for off := 0; off < len(ct); off += aes.BlockSize {
				blk.Encrypt(ct[off:off+aes.BlockSize], pt[off:off+aes.BlockSize])
			}
		}
	})
	// The multi-block AES eme runs between its XOR passes, and the
	// rounds inside xts's fused pass: eight blocks per pass on AES-NI.
	b.Run("aes256-ecb-4K", func(b *testing.B) {
		ecb, err := blockmask.NewAES(key64[:32])
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(4096)
		for i := 0; i < b.N; i++ {
			ecb.Encrypt(ct, pt)
		}
	})
	xtsCipher, err := xts.NewCipher(key64)
	if err != nil {
		b.Fatal(err)
	}
	// xts-512 is the 512-byte sector of a legacy LUKS volume, where the
	// per-call tweak encryption and scratch pool round trip amortise
	// worst.
	for _, tc := range []struct {
		name string
		n    int
		op   func(dst, src []byte, tweak [xts.TweakSize]byte) error
	}{
		{"xts-4K", 4096, xtsCipher.Encrypt},
		{"xts-4K-dec", 4096, xtsCipher.Decrypt},
		{"xts-512", 512, xtsCipher.Encrypt},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(tc.n))
			for i := 0; i < b.N; i++ {
				if err := tc.op(ct[:tc.n], pt[:tc.n], xts.SectorTweak(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	emeCipher, err := eme.New(key64[:32])
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		op   func(dst, src []byte, tweak [eme.TweakSize]byte) error
	}{
		{"eme2-wide-4K", emeCipher.Encrypt},
		{"eme2-wide-4K-dec", emeCipher.Decrypt},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var tweak [eme.TweakSize]byte
			b.SetBytes(4096)
			for i := 0; i < b.N; i++ {
				tweak[0] = byte(i)
				if err := tc.op(ct, pt, tweak); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLayoutPlanning measures the pure client-side cost of building
// the per-object op vectors (no cluster involved) — the CPU the paper's
// modification adds to libRBD.
func BenchmarkLayoutPlanning(b *testing.B) {
	enc, _, closeFn := benchCluster(b, core.SchemeXTSRand, core.LayoutObjectEnd)
	defer closeFn()
	buf := make([]byte, 64<<10)
	b.SetBytes(64 << 10)
	b.ResetTimer()
	now := vtime.Time(1 << 40)
	for i := 0; i < b.N; i++ {
		end, err := enc.WriteAt(now, buf, int64(i%64)<<20)
		if err != nil {
			b.Fatal(err)
		}
		now = end
	}
}
