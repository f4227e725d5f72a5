// Package bench regenerates the paper's evaluation artifacts: Fig. 3a
// (random read bandwidth), Fig. 3b (random write bandwidth), Fig. 4
// (write overhead vs the LUKS2 baseline), the §3.3 in-text sector-count
// table. The cipher microbenches (ablation A-C) are in the root
// testing.B benches.
//
// Each scheme gets a fresh simulated cluster mirroring §3.2 (3 OSD
// nodes, 9 NVMe disks each, 3-way replication, 4 MB objects, 4 KiB
// encryption blocks), a preconditioned image, and a QD-32 fio sweep over
// IO sizes 4 KiB – 4 MiB. Bandwidth is virtual-time bandwidth: the
// real engines run, the devices and links are cost models.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/vtime"
)

// SchemeSpec names one curve in the figures.
type SchemeSpec struct {
	Name   string
	Scheme core.Scheme
	Layout core.Layout
}

// PaperSchemes returns the four curves of Fig. 3 in paper order.
func PaperSchemes() []SchemeSpec {
	return []SchemeSpec{
		{Name: "LUKS2", Scheme: core.SchemeLUKS2, Layout: core.LayoutNone},
		{Name: "Unaligned", Scheme: core.SchemeXTSRand, Layout: core.LayoutUnaligned},
		{Name: "Object end", Scheme: core.SchemeXTSRand, Layout: core.LayoutObjectEnd},
		{Name: "OMAP", Scheme: core.SchemeXTSRand, Layout: core.LayoutOMAP},
	}
}

// ExtensionSchemes returns the future-work schemes (§3.1: integrity via
// AES-GCM, wide-block EME2) measured with the best layout.
func ExtensionSchemes() []SchemeSpec {
	return []SchemeSpec{
		{Name: "LUKS2", Scheme: core.SchemeLUKS2, Layout: core.LayoutNone},
		{Name: "GCM object end", Scheme: core.SchemeGCM, Layout: core.LayoutObjectEnd},
		{Name: "EME2 det", Scheme: core.SchemeEME2Det, Layout: core.LayoutNone},
		{Name: "EME2 object end", Scheme: core.SchemeEME2Rand, Layout: core.LayoutObjectEnd},
	}
}

// PaperIOSizesKB are the x-axis points of Fig. 3/4.
var PaperIOSizesKB = []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// Config sizes a sweep.
type Config struct {
	IOSizesKB  []int
	Schemes    []SchemeSpec
	ImageBytes int64
	QueueDepth int
	// OpsBudgetBytes bounds the bytes moved per point; ops per point is
	// clamp(OpsBudgetBytes/bs, MinOps, MaxOps).
	OpsBudgetBytes int64
	MinOps, MaxOps int
	Seed           int64
	Cluster        func() rados.ClusterConfig
	// Cores is the real parallelism of the client seal/open datapath
	// (EncryptedImage.SetParallelism); 0 uses the GOMAXPROCS default, 1
	// forces the serial pipeline. The virtual-time model is unaffected.
	Cores int
}

// DefaultConfig returns a laptop-scale sweep that preserves the paper's
// shapes (the paper used a 64 GiB image; memory limits favor smaller).
func DefaultConfig() Config {
	return Config{
		IOSizesKB:      PaperIOSizesKB,
		Schemes:        PaperSchemes(),
		ImageBytes:     1 << 30,
		QueueDepth:     32,
		OpsBudgetBytes: 128 << 20,
		MinOps:         160,
		MaxOps:         1600,
		Seed:           1,
		Cluster:        PaperCluster,
	}
}

// PaperCluster mirrors §3.2 with ephemeral data areas (cost-only) so the
// sweep does not hold the image bytes in RAM.
func PaperCluster() rados.ClusterConfig {
	cfg := rados.DefaultClusterConfig()
	cfg.EphemeralData = true
	return cfg
}

// Point is one measured (scheme, size, direction).
type Point struct {
	Scheme  string
	KB      int
	Pattern string
	MBps    float64
	IOPS    float64
	// Latency percentiles over the run's merged ops, in microseconds of
	// virtual time (fio.Result.Latencies).
	P50Micros float64
	P95Micros float64
	P99Micros float64
	Ops       int
	// RealMBps is wall-clock bandwidth through the client datapath
	// (real-CPU mode) — the figure the parallel pipeline accelerates.
	RealMBps float64
	// EffQD is the Little's-law concurrency the engine sustained
	// (fio.Result.EffectiveQD); a value sagging under the configured
	// depth means admission stalls, a regression the per-op engine
	// removed on the wall-clock side (see fio.Run's before/after note —
	// virtual EQD was already full under the wave gate, the convoy was
	// real-time and shows up in RealMBps).
	EffQD float64
}

// Series maps scheme name -> size -> point, for one direction.
type Series struct {
	Pattern string
	Sizes   []int
	Schemes []string
	Points  map[string]map[int]Point
}

func newSeries(pattern string, cfg Config) *Series {
	s := &Series{Pattern: pattern, Sizes: cfg.IOSizesKB, Points: map[string]map[int]Point{}}
	for _, sc := range cfg.Schemes {
		s.Schemes = append(s.Schemes, sc.Name)
		s.Points[sc.Name] = map[int]Point{}
	}
	return s
}

// Sweep runs the full read+write sweep and returns (fig3a, fig3b).
// progress, when non-nil, receives one line per measured point.
func Sweep(cfg Config, progress func(string)) (*Series, *Series, error) {
	if len(cfg.IOSizesKB) == 0 || len(cfg.Schemes) == 0 {
		return nil, nil, fmt.Errorf("bench: empty sweep")
	}
	reads := newSeries("randread", cfg)
	writes := newSeries("randwrite", cfg)

	for _, spec := range cfg.Schemes {
		if err := sweepScheme(cfg, spec, reads, writes, progress); err != nil {
			return nil, nil, fmt.Errorf("bench: scheme %s: %w", spec.Name, err)
		}
	}
	return reads, writes, nil
}

// timedRun wraps fio.Run with the wall-clock measurement that the
// simulation packages are not allowed to take themselves (vetrepo's
// vtimeonly analyzer): fio reports virtual time, the harness stamps
// Result.WallTime.
func timedRun(spec fio.Spec, target fio.Target, start vtime.Time) (fio.Result, error) {
	wallStart := time.Now()
	res, err := fio.Run(spec, target, start)
	res.WallTime = time.Since(wallStart)
	return res, err
}

func sweepScheme(cfg Config, spec SchemeSpec, reads, writes *Series, progress func(string)) error {
	cluster, err := rados.NewCluster(cfg.Cluster())
	if err != nil {
		return err
	}
	defer cluster.Close()
	client := cluster.NewClient("bench-client")

	if _, err := rbd.Create(0, client, "rbd", "bench", cfg.ImageBytes); err != nil {
		return err
	}
	img, _, err := rbd.Open(0, client, "rbd", "bench")
	if err != nil {
		return err
	}
	if _, err := core.Format(0, img, []byte("bench"), core.Options{Scheme: spec.Scheme, Layout: spec.Layout}); err != nil {
		return err
	}
	enc, _, err := core.Load(0, img, []byte("bench"))
	if err != nil {
		return err
	}
	if cfg.Cores > 0 {
		enc.SetParallelism(cfg.Cores)
	}

	// The paper measures a full image: precondition once per scheme.
	now, err := fio.Precondition(enc, 0, core.DefaultBlockSize, 0)
	if err != nil {
		return fmt.Errorf("precondition: %w", err)
	}
	if progress != nil {
		progress(fmt.Sprintf("%-12s preconditioned %d MiB (virtual %v)", spec.Name, cfg.ImageBytes>>20, now))
	}

	for _, kb := range cfg.IOSizesKB {
		bs := int64(kb) << 10
		ops := int(cfg.OpsBudgetBytes / bs)
		if ops < cfg.MinOps {
			ops = cfg.MinOps
		}
		if ops > cfg.MaxOps {
			ops = cfg.MaxOps
		}
		for _, pattern := range []fio.Pattern{fio.RandWrite, fio.RandRead} {
			res, err := timedRun(fio.Spec{
				Pattern:    pattern,
				BlockSize:  bs,
				QueueDepth: cfg.QueueDepth,
				TotalOps:   ops,
				Seed:       cfg.Seed + int64(kb),
			}, enc, now)
			if err != nil {
				return fmt.Errorf("%s bs=%dK: %w", pattern, kb, err)
			}
			now = res.End
			p := Point{
				Scheme:    spec.Name,
				KB:        kb,
				Pattern:   pattern.String(),
				MBps:      res.MBps(),
				IOPS:      res.IOPS(),
				P50Micros: float64(res.Latencies.P50.Microseconds()),
				P95Micros: float64(res.Latencies.P95.Microseconds()),
				P99Micros: float64(res.Latencies.P99.Microseconds()),
				Ops:       res.Ops,
				RealMBps:  res.WallMBps(),
				EffQD:     res.EffectiveQD(),
			}
			if pattern.Reads() {
				reads.Points[spec.Name][kb] = p
			} else {
				writes.Points[spec.Name][kb] = p
			}
			if progress != nil {
				progress(fmt.Sprintf("%-12s %-9s %5d KiB  %8.1f MB/s  p50=%v p95=%v p99=%v  (%d ops, wall %v, real %.0f MB/s, eqd %.1f/%d)",
					spec.Name, pattern, kb, p.MBps,
					res.Latencies.P50.Round(time.Microsecond), res.Latencies.P95.Round(time.Microsecond), res.Latencies.P99.Round(time.Microsecond),
					res.Ops, res.WallTime.Round(1e6), p.RealMBps, p.EffQD, cfg.QueueDepth))
			}
		}
	}
	return nil
}

// Overhead computes Fig. 4: per-scheme slowdown vs the named baseline,
// as a fraction in [0,1] (1 - scheme/baseline); negative values clamp at
// 0 within noise.
func Overhead(s *Series, baseline string) map[string]map[int]float64 {
	out := map[string]map[int]float64{}
	base, ok := s.Points[baseline]
	if !ok {
		return out
	}
	for scheme, pts := range s.Points {
		if scheme == baseline {
			continue
		}
		out[scheme] = map[int]float64{}
		for kb, p := range pts {
			b := base[kb].MBps
			if b <= 0 {
				continue
			}
			ov := 1 - p.MBps/b
			out[scheme][kb] = ov
		}
	}
	return out
}

// FormatSeries renders a paper-style bandwidth table.
func FormatSeries(title string, s *Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (MB/s, QD32)\n", title)
	fmt.Fprintf(&b, "%-10s", "IO size")
	for _, name := range s.Schemes {
		fmt.Fprintf(&b, "%16s", name)
	}
	b.WriteByte('\n')
	for _, kb := range s.Sizes {
		fmt.Fprintf(&b, "%6d KiB", kb)
		for _, name := range s.Schemes {
			fmt.Fprintf(&b, "%16.1f", s.Points[name][kb].MBps)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatOverhead renders the Fig. 4 style overhead table (percent,
// lower is better).
func FormatOverhead(title string, s *Series, baseline string) string {
	ov := Overhead(s, baseline)
	names := make([]string, 0, len(ov))
	for _, n := range s.Schemes {
		if n != baseline {
			names = append(names, n)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%% slower than %s; lower is better)\n", title, baseline)
	fmt.Fprintf(&b, "%-10s", "IO size")
	for _, n := range names {
		fmt.Fprintf(&b, "%16s", n)
	}
	b.WriteByte('\n')
	for _, kb := range s.Sizes {
		fmt.Fprintf(&b, "%6d KiB", kb)
		for _, n := range names {
			fmt.Fprintf(&b, "%15.1f%%", 100*ov[n][kb])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders a series as comma-separated values.
func CSV(s *Series) string {
	var b strings.Builder
	b.WriteString("pattern,scheme,kb,mbps,iops,p50_us,p95_us,p99_us,ops,real_mbps\n")
	names := append([]string(nil), s.Schemes...)
	sort.Strings(names)
	for _, name := range names {
		for _, kb := range s.Sizes {
			p := s.Points[name][kb]
			fmt.Fprintf(&b, "%s,%s,%d,%.2f,%.1f,%.1f,%.1f,%.1f,%d,%.2f\n",
				s.Pattern, name, kb, p.MBps, p.IOPS, p.P50Micros, p.P95Micros, p.P99Micros, p.Ops, p.RealMBps)
		}
	}
	return b.String()
}

// SectorTable renders the §3.3 analytic sector-count comparison.
func SectorTable() string {
	var b strings.Builder
	b.WriteString("Theoretical device sectors touched per IO (4 KiB sectors, 16 B IVs; §3.3)\n")
	fmt.Fprintf(&b, "%-10s%14s%14s%14s%14s\n", "IO size", "Baseline", "Unaligned", "Object end", "OMAP")
	for _, kb := range PaperIOSizesKB {
		io := int64(kb) << 10
		fmt.Fprintf(&b, "%6d KiB%14d%14d%14d%14d\n", kb,
			core.SectorCount(core.LayoutNone, io, 4096, 16),
			core.SectorCount(core.LayoutUnaligned, io, 4096, 16),
			core.SectorCount(core.LayoutObjectEnd, io, 4096, 16),
			core.SectorCount(core.LayoutOMAP, io, 4096, 16))
	}
	return b.String()
}
