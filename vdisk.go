// Package repro reproduces "Rethinking Block Storage Encryption with
// Virtual Disks" (Harnik, Naor, Ofer, Ozery — HotStorage 2022) as a
// self-contained Go library.
//
// The paper's idea: virtual disks already own a virtual-to-physical
// mapping layer, so unlike physical disks they can cheaply store
// per-sector metadata — enough for a fresh random IV per 4 KiB block
// (semantically secure overwrites) and even authentication tags. The
// library implements the full system around that idea: a miniature Ceph
// RADOS (OSDs, replication, transactions, OMAP, snapshots) over simulated
// NVMe devices, an RBD-style image layer, a LUKS2-style key container,
// AES-XTS/EME2/GCM sector ciphers, the paper's three IV placement
// layouts, an fio-style workload engine, and a benchmark harness
// regenerating every figure.
//
// Beyond the paper's figures, the per-block metadata also carries a
// key-epoch tag, unlocking the key-lifecycle workloads length-preserving
// encryption cannot offer: online re-keying under live IO
// (internal/keymgr), crypto-erase discard (EncryptedImage.Discard), and
// encrypted layered clones (internal/clone) — the paper's golden-image
// scenario, where each tenant's copy-on-write clone of a shared base
// snapshot is sealed under the tenant's own key, reads resolve through
// the layer chain with per-layer keys, and an online Flatten walker can
// sever the chain under live IO.
//
// This root package is a convenience facade over the internal packages:
//
//	cluster, _ := repro.NewCluster(repro.TestClusterConfig())
//	defer cluster.Close()
//	img, _ := repro.CreateEncryptedImage(cluster.NewClient("host"),
//	    "rbd", "vol0", 64<<20, []byte("passphrase"),
//	    repro.Options{Scheme: repro.SchemeXTSRand, Layout: repro.LayoutObjectEnd})
//	img.WriteAt(0, data, 0)
//
// See DESIGN.md for the system inventory (including which substitutions
// stand in for unavailable external pieces); README.md walks through the
// paper-vs-measured benchmark harness.
package repro

import (
	"sync"
	"time"

	"repro/internal/clone"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fio"
	"repro/internal/keymgr"
	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/scrub"
	"repro/internal/telemetry"
	"repro/internal/telemetry/attr"
	"repro/internal/telemetry/health"
	"repro/internal/vtime"
)

// Re-exported types: the public API surface is the facade plus these.
type (
	// Cluster is a simulated RADOS cluster (see internal/rados).
	Cluster = rados.Cluster
	// ClusterConfig sizes a cluster.
	ClusterConfig = rados.ClusterConfig
	// Client is a cluster client handle.
	Client = rados.Client
	// Image is a plain virtual disk image.
	Image = rbd.Image
	// EncryptedImage is the paper's per-sector-metadata encrypted image.
	EncryptedImage = core.EncryptedImage
	// Options selects scheme and layout.
	Options = core.Options
	// Scheme is the cipher construction.
	Scheme = core.Scheme
	// Layout is the IV placement.
	Layout = core.Layout
	// Time is a virtual timestamp.
	Time = vtime.Time
	// Duration is a span of virtual time (health windows, top frames).
	Duration = vtime.Duration
	// WorkloadSpec describes an fio-style workload.
	WorkloadSpec = fio.Spec
	// WorkloadResult is a workload measurement.
	WorkloadResult = fio.Result
	// Rekeyer drives an online key rotation (see internal/keymgr).
	Rekeyer = keymgr.Rekeyer
	// RekeyProgress is the persisted rekey cursor.
	RekeyProgress = keymgr.Progress
	// ClonedImage is a layered encrypted image (see internal/clone).
	ClonedImage = clone.Image
	// Keychain maps image names to layer passphrases for clone chains.
	Keychain = clone.Keychain
	// Flattener drives an online clone flatten (see internal/clone).
	Flattener = clone.Flattener
	// FlattenProgress is the persisted flatten cursor.
	FlattenProgress = clone.FlattenProgress
	// Scrubber drives a background integrity verification walk (see
	// internal/scrub).
	Scrubber = scrub.Scrubber
	// ScrubProgress is the persisted scrub cursor.
	ScrubProgress = scrub.Progress
	// FaultPlan is a seeded, replayable fault-injection plan (see
	// internal/fault); arm it with Cluster.ArmFaults.
	FaultPlan = fault.Plan
	// FaultConfig selects fault kinds, probabilities and crash windows.
	FaultConfig = fault.Config
	// Pacer is a virtual-time admission budget for background walkers.
	Pacer = vtime.Pacer
	// TraceRecord is one finished per-op trace span (see
	// internal/telemetry and METRICS.md).
	TraceRecord = telemetry.SpanRecord
	// AttributionReport is a point-in-time snapshot of the always-on
	// per-phase latency accounting (see internal/telemetry/attr).
	AttributionReport = attr.Report
	// SlowOp is one captured over-threshold op with its critical-path
	// analysis (straggler replica, dominant phase).
	SlowOp = attr.SlowOp
	// CriticalPath is the analyzed hop tree of one trace span.
	CriticalPath = attr.CriticalPath
	// Event is one structured lifecycle event from the process journal
	// (epoch transitions, walker start/finish, faults, repairs).
	Event = telemetry.Event
	// HealthMonitor couples a metric history ring to the declarative
	// health engine (see internal/telemetry/health and DESIGN.md).
	HealthMonitor = health.Monitor
	// HealthReport is one health evaluation: per-rule verdicts plus the
	// overall status.
	HealthReport = health.Report
	// HealthRule is one declarative SLO rule over history windows.
	HealthRule = health.Rule
)

// Schemes and layouts.
const (
	SchemeLUKS2    = core.SchemeLUKS2    // deterministic XTS baseline (no metadata)
	SchemeXTSRand  = core.SchemeXTSRand  // the paper's random-IV XTS
	SchemeGCM      = core.SchemeGCM      // authenticated (nonce+tag metadata)
	SchemeEME2Det  = core.SchemeEME2Det  // wide-block, deterministic
	SchemeEME2Rand = core.SchemeEME2Rand // wide-block with random IV

	LayoutNone      = core.LayoutNone
	LayoutUnaligned = core.LayoutUnaligned // Fig. 2a
	LayoutObjectEnd = core.LayoutObjectEnd // Fig. 2b (the paper's winner)
	LayoutOMAP      = core.LayoutOMAP      // Fig. 2c
)

// NewCluster builds and wires a simulated cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return rados.NewCluster(cfg) }

// PaperClusterConfig mirrors the paper's §3.2 testbed: 3 OSD nodes with
// 9 NVMe disks each, 3-way replication, 4 MB objects, 100 Gb/s links.
func PaperClusterConfig() ClusterConfig { return rados.DefaultClusterConfig() }

// TestClusterConfig is a small, fast cluster for examples and tests.
func TestClusterConfig() ClusterConfig {
	cfg := rados.DefaultClusterConfig()
	cfg.DisksPerOSD = 2
	cfg.DiskSectors = (1 << 30) / 4096
	cfg.PGNum = 32
	cfg.Blob.ObjectCapacity = 1<<20 + 64<<10
	cfg.Blob.KVBytes = 64 << 20
	cfg.Blob.KV.MemtableBytes = 256 << 10
	cfg.Blob.KV.WALBytes = 4 << 20
	return cfg
}

// CreateEncryptedImage creates an image, formats encryption on it and
// opens it — the three-step flow collapsed for the common case. The
// facade stripes with 1 MiB objects so it works against both
// TestClusterConfig and PaperClusterConfig object capacities; the
// benchmark harness uses the paper's 4 MB striping via internal/rbd.
func CreateEncryptedImage(client *Client, pool, name string, size int64, passphrase []byte, opts Options) (*EncryptedImage, error) {
	const objectSize = 1 << 20
	if _, err := rbd.CreateWithObjectSize(0, client, pool, name, size, objectSize); err != nil {
		return nil, err
	}
	img, _, err := rbd.Open(0, client, pool, name)
	if err != nil {
		return nil, err
	}
	if _, err := core.Format(0, img, passphrase, opts); err != nil {
		return nil, err
	}
	enc, _, err := core.Load(0, img, passphrase)
	return enc, err
}

// OpenEncryptedImage opens an existing encrypted image.
func OpenEncryptedImage(client *Client, pool, name string, passphrase []byte) (*EncryptedImage, error) {
	img, _, err := rbd.Open(0, client, pool, name)
	if err != nil {
		return nil, err
	}
	enc, _, err := core.Load(0, img, passphrase)
	return enc, err
}

// RunWorkload executes an fio-style workload against any virtual-time
// block target (an EncryptedImage satisfies fio.Target, and — for
// discard mixes — fio.Discarder).
func RunWorkload(spec WorkloadSpec, target fio.Target, start Time) (WorkloadResult, error) {
	// fio.Run reports virtual time only; the wall-clock stamp happens
	// here, outside the simulation packages.
	wallStart := time.Now()
	res, err := fio.Run(spec, target, start)
	res.WallTime = time.Since(wallStart)
	return res, err
}

// StartRekey begins an online key rotation on an encrypted image: a new
// key epoch is minted and a resumable background walk re-seals existing
// blocks while the image keeps serving IO. Drive it with Run (or Step).
func StartRekey(img *EncryptedImage) (*Rekeyer, error) {
	r, _, err := keymgr.Start(0, img)
	return r, err
}

// ResumeRekey reattaches to an interrupted key rotation after a client
// restart or crash.
func ResumeRekey(img *EncryptedImage) (*Rekeyer, error) {
	r, _, err := keymgr.Resume(0, img)
	return r, err
}

// StartScrub begins a background integrity sweep over an encrypted
// image: every present block is read and opened under its recorded key
// epoch, and blocks that fail verification are repaired from intact
// replica copies. Drive it with Run (or Step); the walk is
// crash-resumable via ResumeScrub. Only authenticated schemes
// (SchemeGCM) detect ciphertext corruption; for the length-preserving
// schemes the sweep verifies structure only.
func StartScrub(img *EncryptedImage) (*Scrubber, error) {
	s, _, err := scrub.Start(0, img)
	return s, err
}

// ResumeScrub reattaches to an interrupted integrity sweep after a
// client restart or crash.
func ResumeScrub(img *EncryptedImage) (*Scrubber, error) {
	s, _, err := scrub.Resume(0, img)
	return s, err
}

// NewFaultPlan builds a deterministic fault-injection plan: the same
// seed and config replay the same per-site failure decisions. Arm it on
// a cluster with Cluster.ArmFaults(plan); disarm with ArmFaults(nil).
func NewFaultPlan(seed int64, cfg FaultConfig) *FaultPlan { return fault.NewPlan(seed, cfg) }

// NewPacer builds a walker admission budget capping iops operations and
// bytesPerSec payload bytes per second of virtual time (non-positive =
// uncapped); hand it to Rekeyer.SetPace / Flattener.SetPace /
// Scrubber.SetPace. One pacer shared by several walkers caps their
// combined rate.
func NewPacer(iops, bytesPerSec float64) *Pacer { return vtime.NewPacer(iops, bytesPerSec) }

// CloneEncryptedImage creates childName as an encrypted copy-on-write
// clone of parentName@snapName — the golden-image flow: the child gets
// the parent's geometry, a parent link, and its OWN key container
// (keys[childName]), while inherited blocks keep decrypting under the
// parent's keys on read-through. The keychain must hold passphrases for
// every layer of the chain.
func CloneEncryptedImage(client *Client, pool, parentName, snapName, childName string, keys Keychain, opts Options) (*ClonedImage, error) {
	img, _, err := clone.Create(0, client, pool, parentName, snapName, childName, keys, opts)
	return img, err
}

// OpenClonedImage opens a layered image and its parent chain. It also
// opens flattened (or never-layered) encrypted images, which need only
// their own key.
func OpenClonedImage(client *Client, pool, name string, keys Keychain) (*ClonedImage, error) {
	img, _, err := clone.Open(0, client, pool, name, keys)
	return img, err
}

// StartFlatten begins copying every still-inherited block of a clone
// into the child (re-sealed under the child's key) so the parent link
// can be severed; drive it with Run (or Step). The walk is
// crash-resumable via ResumeFlatten.
func StartFlatten(img *ClonedImage) (*Flattener, error) {
	f, _, err := clone.StartFlatten(0, img)
	return f, err
}

// ResumeFlatten reattaches to an interrupted flatten after a client
// restart or crash.
func ResumeFlatten(img *ClonedImage) (*Flattener, error) {
	f, _, err := clone.ResumeFlatten(0, img)
	return f, err
}

// MetricsSnapshot renders every metric in the process-wide telemetry
// registry in Prometheus text exposition format (the contract is
// documented in METRICS.md).
func MetricsSnapshot() string { return telemetry.Snapshot() }

// RecentTraces returns the most recently finished sampled per-op trace
// spans, newest first, each carrying its per-hop virtual timeline
// (client -> messenger -> OSD serve -> replicate).
func RecentTraces() []TraceRecord { return telemetry.Ops.Recent() }

// Attribution snapshots the always-on per-phase latency accounting: for
// each op class (read/write/other), where its virtual time went —
// queue, wire, serve, replicate, seal/open, device — over 100% of
// traffic, not the tracer's sample (see METRICS.md "Attribution").
func Attribution() AttributionReport { return attr.Table() }

// SlowOps returns every captured over-threshold op, newest first, each
// with its critical-path analysis: the hop tree, the dominant phase,
// and the straggler replica OSD on replicated writes. Capture is
// exact — any op at or past the slow threshold lands here with its
// full phase breakdown, whether or not it was in the trace sample.
func SlowOps() []SlowOp { return attr.SlowOps() }

// SetTraceSampleEvery sets the tracer's sampling stride: one in every n
// ops' traces is kept in the recent ring (n <= 1 keeps every one).
// Slow-op capture is unaffected — over-threshold ops are always kept.
func SetTraceSampleEvery(n int64) { telemetry.Ops.SetSampleEvery(n) }

// SetSlowOpThreshold sets the virtual duration at or past which an op
// is filed into the slow ring with its phase breakdown.
func SetSlowOpThreshold(d Duration) { telemetry.Ops.SetSlowThreshold(d) }

// Events returns the structured lifecycle events journalled so far,
// newest first: key-epoch transitions, walker start/finish, fault
// firings, and replica repairs (see METRICS.md "Event journal").
func Events() []Event { return telemetry.Log.Events() }

// healthMon is the process-wide health monitor behind Health(), built
// on first use so programs that never ask for health pay nothing.
var healthMon = sync.OnceValue(func() *HealthMonitor {
	return health.NewMonitor(telemetry.Default, 0, nil)
})

// NewHealthMonitor builds a private monitor over the default registry
// with the default SLO rule set — for callers that want their own
// observation cadence (slots <= 0 uses the default ring size).
func NewHealthMonitor(slots int) *HealthMonitor {
	return health.NewMonitor(telemetry.Default, slots, nil)
}

// Observe snapshots every registered metric into the process-wide
// health monitor's history ring at virtual time at. Call it
// periodically (each frame, after each workload phase); Health
// evaluates over the recorded window.
func Observe(at Time) { healthMon().Observe(at) }

// Health records one more snapshot at virtual time at and evaluates
// the default SLO rules over the recorded history, returning per-rule
// verdicts and the overall status.
func Health(at Time) HealthReport { return healthMon().Report(at) }
