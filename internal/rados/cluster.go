package rados

import (
	"fmt"
	"time"

	"repro/internal/blobstore"
	"repro/internal/crush"
	"repro/internal/fault"
	"repro/internal/kvstore"
	"repro/internal/msgr"
	"repro/internal/simdisk"
	"repro/internal/vtime"
)

// ClusterMap is the authoritative placement state (the monitor's OSDMap in
// Ceph terms). It is immutable after cluster creation — the paper's
// evaluation does not involve failures or rebalancing — so every PG's
// replica set is computed once, into a table, when the map is built.
type ClusterMap struct {
	PGNum    int
	Replicas int
	OSDIDs   []int

	sets [][]int // per-PG replica set, primary first; read-only
}

// newClusterMap builds the map of osds OSDs (ids 0..osds-1) and its
// placement table.
func newClusterMap(pgNum, replicas, osds int) *ClusterMap {
	m := &ClusterMap{PGNum: pgNum, Replicas: replicas, OSDIDs: make([]int, osds), sets: make([][]int, pgNum)}
	for i := range m.OSDIDs {
		m.OSDIDs[i] = i
	}
	for pg := range m.sets {
		m.sets[pg] = crush.OSDsForPG(pg, m.OSDIDs, replicas)
	}
	return m
}

// PG maps an object to its placement group.
func (m *ClusterMap) PG(pool, object string) int {
	return crush.PGForObject(pool, object, m.PGNum)
}

// OSDsFor returns the replica set (primary first) for a PG. The slice is
// the placement table's own row: callers must not modify it.
func (m *ClusterMap) OSDsFor(pg int) []int {
	return m.sets[pg]
}

// PrimaryFor returns the primary OSD for an object.
func (m *ClusterMap) PrimaryFor(pool, object string) int {
	return m.OSDsFor(m.PG(pool, object))[0]
}

// NetCost parameterizes the simulated network, mirroring §3.2's
// environment (100 Gb/s links, ~13 Gb/s measured per stream).
type NetCost struct {
	LatencyMicros int64
	StreamGbits   float64 // per-connection achievable bandwidth
	NICGbits      float64 // per-host NIC bandwidth
}

// DefaultNetCost returns the paper-calibrated network model.
func DefaultNetCost() NetCost {
	return NetCost{LatencyMicros: 30, StreamGbits: 13, NICGbits: 100}
}

func (n NetCost) link(nic *vtime.Resource) msgr.LinkCost {
	return msgr.LinkCost{
		Latency:       time.Duration(n.LatencyMicros) * time.Microsecond,
		StreamPerByte: vtime.PerByteOfBandwidth(n.StreamGbits * 1e9 / 8),
		NIC:           nic,
		NICPerByte:    vtime.PerByteOfBandwidth(n.NICGbits * 1e9 / 8),
	}
}

// ClusterConfig sizes a simulated cluster. The defaults reproduce the
// paper's testbed: 3 OSD nodes, 9 NVMe disks each, 3-way replication,
// 4 MB objects.
type ClusterConfig struct {
	OSDs        int
	DisksPerOSD int
	DiskSectors int64
	DiskCost    simdisk.CostModel
	PGNum       int
	Replicas    int
	Blob        blobstore.Config
	OSDCost     OSDCost
	Net         NetCost
	// EphemeralData makes the data areas cost-only (payloads discarded)
	// so multi-GiB benchmark images do not occupy RAM. Leave false for
	// correctness tests and real use.
	EphemeralData bool
}

// DefaultClusterConfig mirrors the paper's test environment (§3.2).
func DefaultClusterConfig() ClusterConfig {
	cfg := ClusterConfig{
		OSDs:        3,
		DisksPerOSD: 9,
		DiskSectors: (64 << 30) / simdisk.SectorSize, // 64 GiB per disk is ample for simulation
		DiskCost:    simdisk.DefaultCostModel(),
		PGNum:       128,
		Replicas:    3,
		OSDCost:     DefaultOSDCost(),
		Net:         DefaultNetCost(),
	}
	cfg.Blob = blobstore.Config{
		ObjectCapacity: 4<<20 + 128<<10,
		KVBytes:        2 << 30,
		CacheSectors:   16384,
		KV: kvstore.Config{
			MemtableBytes: 4 << 20,
			WALBytes:      64 << 20,
			// RocksDB-style single-writer ingest cost per entry; the
			// knob behind OMAP's large-IO collapse (§3.3, DESIGN.md).
			IngestPerEntry: 30 * time.Microsecond,
		},
	}
	return cfg
}

// Cluster is a running simulated RADOS cluster.
type Cluster struct {
	cfg  ClusterConfig
	cmap *ClusterMap
	osds []*OSD
	nics []*vtime.Resource // per-OSD cluster NICs
}

// NewCluster builds and wires a cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.OSDs < 1 || cfg.DisksPerOSD < 1 {
		return nil, fmt.Errorf("rados: need at least one OSD and one disk, got %d/%d", cfg.OSDs, cfg.DisksPerOSD)
	}
	if cfg.Replicas < 1 || cfg.Replicas > cfg.OSDs {
		return nil, fmt.Errorf("rados: replicas %d out of range for %d OSDs", cfg.Replicas, cfg.OSDs)
	}
	if cfg.PGNum < 1 {
		return nil, fmt.Errorf("rados: PGNum must be positive")
	}
	cmap := newClusterMap(cfg.PGNum, cfg.Replicas, cfg.OSDs)
	c := &Cluster{cfg: cfg, cmap: cmap}

	kvSectors := cfg.Blob.KVBytes / simdisk.SectorSize
	for id := 0; id < cfg.OSDs; id++ {
		var disks []*simdisk.Disk
		// One osd-labeled handle set per OSD, shared by its disks — the
		// label-cardinality rule: resolved here at construction, never
		// on an IO path.
		devm := newDeviceMetrics(id)
		for d := 0; d < cfg.DisksPerOSD; d++ {
			disk := simdisk.New(fmt.Sprintf("osd%d/nvme%d", id, d), cfg.DiskSectors, cfg.DiskCost)
			if cfg.EphemeralData {
				// The KV partition (journal + metadata + OMAP) must be
				// retained; only the bulk data area is cost-only.
				disk.SetEphemeralFrom(kvSectors)
			}
			disk.SetMetrics(devm)
			disks = append(disks, disk)
		}
		osd, _, err := NewOSD(0, id, cmap, disks, cfg.Blob, cfg.OSDCost)
		if err != nil {
			return nil, err
		}
		c.osds = append(c.osds, osd)
		c.nics = append(c.nics, vtime.NewResource(fmt.Sprintf("osd%d/nic", id)))
	}

	// Cluster network: each ordered OSD pair gets a replication stream.
	for _, from := range c.osds {
		for _, to := range c.osds {
			if from.ID() == to.ID() {
				continue
			}
			req := cfg.Net.link(c.nics[to.ID()])    // into the target's NIC
			resp := cfg.Net.link(c.nics[from.ID()]) // back into the source's NIC
			conn := to.Server().Connect(
				fmt.Sprintf("osd%d->osd%d", from.ID(), to.ID()), req, resp)
			from.SetPeer(to.ID(), conn)
		}
	}
	return c, nil
}

// OSDs returns the daemons (for stats and fault injection in tests).
func (c *Cluster) OSDs() []*OSD { return c.osds }

// ArmFaults installs a deterministic fault plan across the cluster:
// every OSD messenger endpoint gets an injector keyed by
// "osd<ID>/msgr" and every disk one keyed by "disk/<name>", so the
// same plan replays the same failures at the same sites. Crash windows
// in the plan's config take down every OSD; use Plan.InjectorWith and
// per-OSD SetFaults to crash one. Pass nil to disarm everything.
func (c *Cluster) ArmFaults(p *fault.Plan) {
	for _, o := range c.osds {
		var srvIn *fault.Injector
		if p != nil {
			srvIn = p.Injector(fmt.Sprintf("osd%d/msgr", o.ID()))
		}
		o.Server().SetFaults(srvIn)
		for _, st := range o.Stores() {
			var dIn *fault.Injector
			if p != nil {
				dIn = p.Injector("disk/" + st.Disk().Name())
			}
			st.Disk().SetFaults(dIn)
		}
	}
}

// NewClient connects a client host (with its own NIC resource shared by
// all of its streams) to every OSD.
func (c *Cluster) NewClient(name string) *Client {
	clientNIC := vtime.NewResource(name + "/nic")
	conns := make(map[int]msgr.Conn, len(c.osds))
	for _, osd := range c.osds {
		req := c.cfg.Net.link(c.nics[osd.ID()]) // request lands on the OSD NIC
		resp := c.cfg.Net.link(clientNIC)       // response lands on the client NIC
		conns[osd.ID()] = osd.Server().Connect(
			fmt.Sprintf("%s->osd%d", name, osd.ID()), req, resp)
	}
	return &Client{cmap: c.cmap, conns: conns}
}

// Close shuts down all OSD endpoints.
func (c *Cluster) Close() {
	for _, o := range c.osds {
		o.Close()
	}
}

// DiskStats aggregates device counters across the cluster.
func (c *Cluster) DiskStats() simdisk.Stats {
	var total simdisk.Stats
	for _, o := range c.osds {
		for _, st := range o.Stores() {
			total = total.Add(st.Disk().Stats())
		}
	}
	return total
}

// KVStats aggregates metadata-store counters across the cluster.
func (c *Cluster) KVStats() kvstore.Stats {
	var total kvstore.Stats
	for _, o := range c.osds {
		for _, st := range o.Stores() {
			s := st.KV().Stats()
			total.Applies += s.Applies
			total.EntriesWritten += s.EntriesWritten
			total.Gets += s.Gets
			total.Scans += s.Scans
			total.Flushes += s.Flushes
			total.Compactions += s.Compactions
			total.BytesFlushed += s.BytesFlushed
			total.BytesCompacted += s.BytesCompacted
			total.WALBytes += s.WALBytes
		}
	}
	return total
}

// BlobStats aggregates object-store counters across the cluster.
func (c *Cluster) BlobStats() blobstore.Stats {
	var total blobstore.Stats
	for _, o := range c.osds {
		for _, st := range o.Stores() {
			s := st.Stats()
			total.Txns += s.Txns
			total.AlignedWrites += s.AlignedWrites
			total.DeferredWrites += s.DeferredWrites
			total.RMWReads += s.RMWReads
			total.CacheHits += s.CacheHits
			total.CacheMisses += s.CacheMisses
			total.Reads += s.Reads
			total.BytesWritten += s.BytesWritten
			total.BytesRead += s.BytesRead
		}
	}
	return total
}
