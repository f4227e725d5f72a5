// Package simdisk implements a simulated NVMe-class block device.
//
// The device is sector-addressable, stores data sparsely in memory, and
// charges every operation to a vtime cost model (fixed per-command latency
// plus per-sector transfer time, with read/write asymmetry). It also keeps
// operation counters that the benchmark harness uses to report the
// "number of sectors that need to be read or written" analysis from §3.3
// of the paper, and supports power-cut fault injection for the
// crash-consistency tests of the object store journal.
//
// The paper's testbed used Intel NVMe drives; this package is the
// substitution documented in DESIGN.md — the shape of every bandwidth
// figure comes from sector counts and queueing, which the cost model
// reproduces.
package simdisk

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/telemetry/attr"
	"repro/internal/vtime"
)

// SectorSize is the device sector size in bytes. The paper evaluates with
// 4 KiB sectors (LUKS2 default, §2.4 footnote 4).
const SectorSize = 4096

// chunkSectors is the allocation granularity of the sparse backing store.
const chunkSectors = 256 // 1 MiB chunks

var (
	// ErrOutOfRange reports an access beyond the device capacity.
	ErrOutOfRange = errors.New("simdisk: access out of range")
	// ErrPowerCut reports that the device lost power mid-workload; writes
	// after the cut are dropped (see Disk.PowerCutAfter).
	ErrPowerCut = errors.New("simdisk: power cut")
)

// CostModel describes the virtual-time cost of disk commands.
type CostModel struct {
	// ReadCost and WriteCost are charged per command as
	// Fixed + PerByte*bytes.
	ReadCost  vtime.LinearCost
	WriteCost vtime.LinearCost
	// Channels is the device's internal parallelism (number of commands in
	// flight that make progress concurrently).
	Channels int
}

// DefaultCostModel returns a cost model loosely calibrated to a
// data-center NVMe drive: ~80 µs access latency, ~2.8 GB/s reads,
// ~1.4 GB/s writes, 8-way internal parallelism.
func DefaultCostModel() CostModel {
	return CostModel{
		ReadCost:  vtime.LinearCost{Fixed: 80 * time.Microsecond, PerByte: vtime.PerByteOfBandwidth(2.8e9)},
		WriteCost: vtime.LinearCost{Fixed: 90 * time.Microsecond, PerByte: vtime.PerByteOfBandwidth(1.4e9)},
		Channels:  8,
	}
}

// Stats is a snapshot of device counters.
type Stats struct {
	ReadOps        int64
	WriteOps       int64
	SectorsRead    int64
	SectorsWritten int64
}

// Add returns element-wise s + o.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		ReadOps:        s.ReadOps + o.ReadOps,
		WriteOps:       s.WriteOps + o.WriteOps,
		SectorsRead:    s.SectorsRead + o.SectorsRead,
		SectorsWritten: s.SectorsWritten + o.SectorsWritten,
	}
}

// Sub returns element-wise s - o, used to diff snapshots around a workload.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		ReadOps:        s.ReadOps - o.ReadOps,
		WriteOps:       s.WriteOps - o.WriteOps,
		SectorsRead:    s.SectorsRead - o.SectorsRead,
		SectorsWritten: s.SectorsWritten - o.SectorsWritten,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("reads=%d(%d sectors) writes=%d(%d sectors)",
		s.ReadOps, s.SectorsRead, s.WriteOps, s.SectorsWritten)
}

// Disk is a simulated sector-addressable device. All methods are safe for
// concurrent use.
type Disk struct {
	name    string
	sectors int64
	cost    CostModel
	res     *vtime.Resource

	mu     sync.RWMutex
	chunks map[int64][]byte // chunk index -> chunkSectors*SectorSize bytes

	readOps        atomic.Int64
	writeOps       atomic.Int64
	sectorsRead    atomic.Int64
	sectorsWritten atomic.Int64

	// Fault injection: once the number of completed write ops reaches
	// powerCutAt (>0), subsequent writes return ErrPowerCut without
	// modifying the media, simulating a crash with volatile caches lost.
	powerCutAt atomic.Int64

	// ephemeralFrom marks the first sector of the cost-only region: writes
	// at or beyond it are charged and counted but their payload is not
	// retained (reads return zeros). Benchmark sweeps place multi-GiB data
	// areas there so a simulated cluster does not hold the image in RAM.
	// 0 (or >= capacity) retains everything... see SetEphemeralFrom.
	ephemeralFrom atomic.Int64

	// faults, when armed, injects device-level failures (torn writes,
	// bit rot, read errors, latency spikes) from a deterministic plan.
	faults atomic.Pointer[fault.Injector]

	// met, when set, mirrors the device counters into osd-labeled
	// telemetry series. Nil-safe on every IO path: a standalone disk
	// (unit tests, bench fixtures) records nothing.
	met atomic.Pointer[DeviceMetrics]
}

// DeviceMetrics is the set of pre-resolved telemetry handles a cluster
// injects so the disk's counters surface as per-OSD device series. The
// handles are resolved by the owner (rados.NewCluster, once per OSD) —
// the disk only bumps them.
type DeviceMetrics struct {
	ReadOps        *telemetry.Counter
	WriteOps       *telemetry.Counter
	SectorsRead    *telemetry.Counter
	SectorsWritten *telemetry.Counter
}

// SetMetrics attaches (or, with nil, detaches) the telemetry mirror.
func (d *Disk) SetMetrics(m *DeviceMetrics) { d.met.Store(m) }

// New creates a disk with the given capacity in sectors.
func New(name string, sectors int64, cost CostModel) *Disk {
	if sectors <= 0 {
		panic("simdisk: capacity must be positive")
	}
	ch := cost.Channels
	if ch < 1 {
		ch = 1
	}
	d := &Disk{
		name:    name,
		sectors: sectors,
		cost:    cost,
		res:     vtime.NewPool(name, ch),
		chunks:  make(map[int64][]byte),
	}
	d.ephemeralFrom.Store(sectors)
	return d
}

// SetEphemeralFrom declares that sectors at or beyond boundary are
// cost-only: writes there are charged to the time model and counters but
// the payload is discarded, and reads return zeros. Pass the capacity (the
// default) to retain everything. Storage engines place bulk data regions
// beyond the boundary during large benchmark sweeps.
func (d *Disk) SetEphemeralFrom(boundary int64) {
	if boundary < 0 {
		boundary = 0
	}
	d.ephemeralFrom.Store(boundary)
}

// Name returns the device name.
func (d *Disk) Name() string { return d.name }

// Sectors returns the device capacity in sectors.
func (d *Disk) Sectors() int64 { return d.sectors }

// Size returns the device capacity in bytes.
func (d *Disk) Size() int64 { return d.sectors * SectorSize }

// Stats returns a snapshot of the device counters.
func (d *Disk) Stats() Stats {
	return Stats{
		ReadOps:        d.readOps.Load(),
		WriteOps:       d.writeOps.Load(),
		SectorsRead:    d.sectorsRead.Load(),
		SectorsWritten: d.sectorsWritten.Load(),
	}
}

// ResetStats zeroes the counters and idles the device's time resource.
func (d *Disk) ResetStats() {
	d.readOps.Store(0)
	d.writeOps.Store(0)
	d.sectorsRead.Store(0)
	d.sectorsWritten.Store(0)
	d.res.Reset()
}

// PowerCutAfter arms fault injection: after n more successful write
// commands the device drops power — every later write fails with
// ErrPowerCut and leaves the media untouched. Reads keep working so that
// recovery code can replay journals. Pass n<0 to disarm.
func (d *Disk) PowerCutAfter(n int64) {
	if n < 0 {
		d.powerCutAt.Store(0)
		return
	}
	d.powerCutAt.Store(d.writeOps.Load() + n + 1)
}

// PowerRestore disarms fault injection, simulating reboot: the media keeps
// exactly what was written before the cut.
func (d *Disk) PowerRestore() { d.powerCutAt.Store(0) }

// SetFaults arms (or, with nil, disarms) plan-driven fault injection on
// this device. Torn writes, bit rot, read errors, and latency spikes
// fire per the injector's seeded decision stream; see internal/fault.
func (d *Disk) SetFaults(in *fault.Injector) { d.faults.Store(in) }

// corruptMedia flips one injector-chosen bit of a stored sector in
// place — the persistent form of bit rot. Unwritten (all-zero) sectors
// are left alone: there is no media to rot.
func (d *Disk) corruptMedia(in *fault.Injector, sector int64) {
	chunk, off, _ := chunkRun(sector, 1)
	d.mu.Lock()
	if c, ok := d.chunks[chunk]; ok {
		in.FlipBit(c[off : off+SectorSize])
	}
	d.mu.Unlock()
}

// chunkRun splits off the head of the n-sector extent at sector that lies
// inside one backing chunk: the chunk's index, the head's byte offset in
// it, and its length in sectors (at most n).
func chunkRun(sector, n int64) (chunk, off, run int64) {
	chunk, first := sector/chunkSectors, sector%chunkSectors
	return chunk, first * SectorSize, min(n, chunkSectors-first)
}

func (d *Disk) checkRange(sector, n int64) error {
	if sector < 0 || n < 0 || sector+n > d.sectors {
		return fmt.Errorf("%w: sector %d count %d on %s (%d sectors)",
			ErrOutOfRange, sector, n, d.name, d.sectors)
	}
	return nil
}

// ReadSectors reads n sectors starting at sector into p, which must hold
// n*SectorSize bytes. It returns the virtual completion time of the
// command. Unwritten sectors read as zeros.
func (d *Disk) ReadSectors(at vtime.Time, sector, n int64, p []byte) (vtime.Time, error) {
	if err := d.checkRange(sector, n); err != nil {
		return at, err
	}
	if int64(len(p)) < n*SectorSize {
		return at, fmt.Errorf("simdisk: short buffer for %d sectors", n)
	}
	in := d.faults.Load()
	if in.HitAt(at, fault.ReadError) {
		return at, fmt.Errorf("%s: read sector %d count %d: %w", d.name, sector, n, fault.ErrReadFault)
	}
	rot := n > 0 && in.HitAt(at, fault.BitRot)
	if rot && in.PersistentRot() {
		// Latent sector corruption: rot the media itself before the copy
		// below picks it up, so every future read sees the same damage
		// until something rewrites the sector.
		d.corruptMedia(in, sector+int64(in.Intn(int(n))))
		rot = false
	}
	d.mu.RLock()
	for i := int64(0); i < n; {
		chunk, off, run := chunkRun(sector+i, n-i)
		dst := p[i*SectorSize : (i+run)*SectorSize]
		if c, ok := d.chunks[chunk]; ok {
			copy(dst, c[off:])
		} else {
			clear(dst)
		}
		i += run
	}
	d.mu.RUnlock()
	if rot {
		// Transient rot: the media is fine, this transfer is not.
		in.FlipBit(p[:n*SectorSize])
	}
	d.readOps.Add(1)
	d.sectorsRead.Add(n)
	if m := d.met.Load(); m != nil {
		m.ReadOps.Inc()
		m.SectorsRead.Add(n)
	}
	end := d.res.Use(at, d.cost.ReadCost.Of(n*SectorSize))
	if in.HitAt(at, fault.LatencySpike) {
		end = end.Add(in.Delay())
	}
	// Device phase includes injected spikes: a sick disk is precisely
	// what the attribution table should surface.
	attr.Observe(attr.OpRead, attr.PhaseDevice, end.Sub(at))
	return end, nil
}

// WriteSectors writes n sectors from p starting at sector and returns the
// virtual completion time of the command.
func (d *Disk) WriteSectors(at vtime.Time, sector, n int64, p []byte) (vtime.Time, error) {
	if err := d.checkRange(sector, n); err != nil {
		return at, err
	}
	if int64(len(p)) < n*SectorSize {
		return at, fmt.Errorf("simdisk: short buffer for %d sectors", n)
	}
	if cut := d.powerCutAt.Load(); cut > 0 && d.writeOps.Load()+1 >= cut {
		return at, ErrPowerCut
	}
	in := d.faults.Load()
	persist := n
	var tornErr error
	if n > 0 && in.HitAt(at, fault.TornWrite) {
		// Power-loss tear: only a prefix of the command reaches media and
		// the command fails — the caller must treat the range as
		// undefined until re-written.
		persist = int64(in.Intn(int(n)))
		tornErr = fmt.Errorf("%s: write sector %d count %d persisted %d: %w",
			d.name, sector, n, persist, fault.ErrTornWrite)
	}
	// Only the persisted prefix below the cost-only region reaches media;
	// the rest of the payload is discarded.
	keep := min(persist, max(d.ephemeralFrom.Load()-sector, 0))
	d.mu.Lock()
	for i := int64(0); i < keep; {
		chunk, off, run := chunkRun(sector+i, keep-i)
		c, ok := d.chunks[chunk]
		if !ok {
			c = make([]byte, chunkSectors*SectorSize)
			d.chunks[chunk] = c
		}
		copy(c[off:], p[i*SectorSize:(i+run)*SectorSize])
		i += run
	}
	d.mu.Unlock()
	d.writeOps.Add(1)
	d.sectorsWritten.Add(persist)
	if m := d.met.Load(); m != nil {
		m.WriteOps.Inc()
		m.SectorsWritten.Add(persist)
	}
	if tornErr != nil {
		return at, tornErr
	}
	end := d.res.Use(at, d.cost.WriteCost.Of(n*SectorSize))
	if in.HitAt(at, fault.LatencySpike) {
		end = end.Add(in.Delay())
	}
	attr.Observe(attr.OpWrite, attr.PhaseDevice, end.Sub(at))
	return end, nil
}

// ReadAt implements byte-granular reads for partitions and extents. The
// access is charged as the covering sector-aligned read. A sector-aligned
// access reads straight into p; a misaligned one (an unaligned-layout
// stream whose length is not a sector multiple) reads the covering
// sectors into a pooled buffer, so neither allocates payload-sized memory.
func (d *Disk) ReadAt(at vtime.Time, p []byte, off int64) (vtime.Time, error) {
	if off < 0 {
		return at, ErrOutOfRange
	}
	if len(p) == 0 {
		return at, nil
	}
	first := off / SectorSize
	last := (off + int64(len(p)) + SectorSize - 1) / SectorSize
	if off%SectorSize == 0 && int64(len(p))%SectorSize == 0 {
		return d.ReadSectors(at, first, last-first, p)
	}
	buf := bufpool.Get(int((last - first) * SectorSize))
	defer bufpool.Put(buf)
	end, err := d.ReadSectors(at, first, last-first, buf)
	if err != nil {
		return at, err
	}
	copy(p, buf[off-first*SectorSize:])
	return end, nil
}

// WriteAt implements byte-granular writes. Misaligned head/tail sectors
// incur a real read-modify-write: the covering sectors are read, merged
// and written back, and the extra read is charged to the cost model. This
// is the mechanism behind the Unaligned layout's write penalty (§3.3).
func (d *Disk) WriteAt(at vtime.Time, p []byte, off int64) (vtime.Time, error) {
	if off < 0 {
		return at, ErrOutOfRange
	}
	if len(p) == 0 {
		return at, nil
	}
	first := off / SectorSize
	last := (off + int64(len(p)) + SectorSize - 1) / SectorSize
	n := last - first
	headMisaligned := off%SectorSize != 0
	tailMisaligned := (off+int64(len(p)))%SectorSize != 0
	if !headMisaligned && !tailMisaligned {
		// Fully aligned: write straight from p, no merge buffer.
		return d.WriteSectors(at, first, n, p)
	}

	// The merge buffer is pooled: the boundary reads and p together cover
	// every byte of it, and WriteSectors copies what it persists.
	buf := bufpool.Get(int(n * SectorSize))
	defer bufpool.Put(buf)
	rmwEnd := at
	// Read-modify-write of the boundary sectors when misaligned.
	if headMisaligned {
		e, err := d.ReadSectors(at, first, 1, buf[:SectorSize])
		if err != nil {
			return at, err
		}
		rmwEnd = vtime.Max(rmwEnd, e)
	}
	if tailMisaligned && (n > 1 || !headMisaligned) {
		e, err := d.ReadSectors(at, last-1, 1, buf[(n-1)*SectorSize:])
		if err != nil {
			return at, err
		}
		rmwEnd = vtime.Max(rmwEnd, e)
	}
	copy(buf[off-first*SectorSize:], p)
	return d.WriteSectors(rmwEnd, first, n, buf)
}

// Snapshot returns a deep copy of the media contents, for tests that
// compare states around crash/recovery cycles.
func (d *Disk) Snapshot() map[int64][]byte {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make(map[int64][]byte, len(d.chunks))
	for k, v := range d.chunks {
		c := make([]byte, len(v))
		copy(c, v)
		out[k] = c
	}
	return out
}
