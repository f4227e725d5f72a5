package main

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/blobstore"
	"repro/internal/kvstore"
	"repro/internal/rados"
	"repro/internal/simdisk"
	"repro/internal/telemetry"
	"repro/internal/telemetry/attr"
)

// reading is one look at every public counter the benchmark diffs around
// a window: the cluster's own device, KV and object-store totals, and the
// process-wide telemetry families. Nothing here is reset; only
// differences of two readings are used.
type reading struct {
	disk simdisk.Stats
	kv   kvstore.Stats
	blob blobstore.Stats
	// perStore holds each store's own KV counters, for the flush and
	// compaction counts of the least active store.
	perStore []kvstore.Stats

	clientRequests, osdServes int64
	msgrCalls, msgrTypedCalls int64
	msgrBytes                 int64
	poolGets, poolHits        int64
	sealOps, openOps          int64
	opCount, opSum            int64                 // attr_op_vtime of the workload's class
	phaseSum                  [attr.NumPhases]int64 // attr_phase_vtime sums, same class
}

// sumSeries adds up the counter values or histogram (count, sum) of
// every series of a family whose rendered labels contain match.
func sumSeries(family, match string) (value, count int64) {
	for _, f := range telemetry.Default.Families() {
		if f.Name() != family {
			continue
		}
		f.EachSeries(func(labels string, c *telemetry.Counter, _ *telemetry.Gauge, h *telemetry.Histogram) {
			if !strings.Contains(labels, match) {
				return
			}
			switch {
			case c != nil:
				value += c.Value()
			case h != nil:
				s := h.Snapshot()
				value += int64(s.Sum)
				count += s.Count
			}
		})
	}
	return value, count
}

func counter(family, match string) int64 {
	v, _ := sumSeries(family, match)
	return v
}

func takeReading(cluster *rados.Cluster, w workload) reading {
	class := attr.OpName(attr.OpWrite)
	if w.pattern.Reads() {
		class = attr.OpName(attr.OpRead)
	}
	op := fmt.Sprintf("op=%q", class)
	r := reading{
		disk:           cluster.DiskStats(),
		kv:             cluster.KVStats(),
		blob:           cluster.BlobStats(),
		clientRequests: counter("client_requests_total", ""),
		osdServes:      counter("osd_requests_total", ""),
		msgrCalls:      counter("msgr_calls_total", ""),
		msgrTypedCalls: counter("msgr_calls_total", `path="typed"`),
		msgrBytes:      counter("msgr_bytes_total", ""),
		poolGets:       counter("bufpool_gets_total", ""),
		poolHits:       counter("bufpool_gets_total", `result="hit"`),
		sealOps:        counter("core_seal_ops_total", ""),
		openOps:        counter("core_open_ops_total", ""),
	}
	for _, osd := range cluster.OSDs() {
		for _, st := range osd.Stores() {
			r.perStore = append(r.perStore, st.KV().Stats())
		}
	}
	r.opSum, r.opCount = sumSeries("attr_op_vtime", op)
	for p := attr.Phase(0); p < attr.NumPhases; p++ {
		r.phaseSum[p], _ = sumSeries("attr_phase_vtime", fmt.Sprintf("%s,phase=%q", op, p.String()))
	}
	return r
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// boundaryMetrics turns two readings around a window of ops image ops
// moving userBytes into the per-layer boundary counts and the
// virtual-time phase means.
func boundaryMetrics(m metrics, before, after reading, ops, userBytes int64) {
	disk := after.disk.Sub(before.disk)
	kv, kv0 := after.kv, before.kv
	blob, blob0 := after.blob, before.blob

	m["rados.requests_per_op"] = ratio(after.clientRequests-before.clientRequests, ops)
	m["rados.osd_serves_per_op"] = ratio(after.osdServes-before.osdServes, ops)
	m["msgr.wire_bytes_per_user_byte"] = ratio(after.msgrBytes-before.msgrBytes, userBytes)
	m["msgr.typed_call_ratio"] = ratio(after.msgrTypedCalls-before.msgrTypedCalls, after.msgrCalls-before.msgrCalls)

	m["blobstore.txns_per_op"] = ratio(blob.Txns-blob0.Txns, ops)
	m["blobstore.deferred_writes_per_op"] = ratio(blob.DeferredWrites-blob0.DeferredWrites, ops)
	m["blobstore.rmw_reads_per_op"] = ratio(blob.RMWReads-blob0.RMWReads, ops)
	hits, misses := blob.CacheHits-blob0.CacheHits, blob.CacheMisses-blob0.CacheMisses
	m["blobstore.cache_hit_ratio"] = ratio(hits, hits+misses)

	m["kvstore.entries_per_op"] = ratio(kv.EntriesWritten-kv0.EntriesWritten, ops)
	m["kvstore.wal_bytes_per_op"] = ratio(kv.WALBytes-kv0.WALBytes, ops)
	m["kvstore.compacted_bytes_per_user_byte"] = ratio(kv.BytesCompacted-kv0.BytesCompacted, userBytes)
	// Flushes and compactions are those of the least active store, so
	// "every store flushed five times" reads straight off the metric.
	minFlushes, minCompactions := int64(math.MaxInt64), int64(math.MaxInt64)
	for i, st := range after.perStore {
		minFlushes = min(minFlushes, st.Flushes-before.perStore[i].Flushes)
		minCompactions = min(minCompactions, st.Compactions-before.perStore[i].Compactions)
	}
	m["kvstore.flushes"] = float64(minFlushes)
	m["kvstore.compactions"] = float64(minCompactions)

	m["simdisk.read_cmds_per_op"] = ratio(disk.ReadOps, ops)
	m["simdisk.write_cmds_per_op"] = ratio(disk.WriteOps, ops)
	m["simdisk.sectors_read_per_op"] = ratio(disk.SectorsRead, ops)
	m["simdisk.sectors_written_per_op"] = ratio(disk.SectorsWritten, ops)

	m["bufpool.hit_ratio"] = ratio(after.poolHits-before.poolHits, after.poolGets-before.poolGets)

	// Phase means are per request of the workload's class, taken from the
	// histogram sums (exact) rather than attr.Table(), which reports since
	// process start. The residual is what the phases leave unexplained of
	// the op mean; overlapping phases (three replicas' device time) can
	// push it below zero.
	n := after.opCount - before.opCount
	var phaseTotal int64
	for p := attr.Phase(0); p < attr.NumPhases; p++ {
		d := after.phaseSum[p] - before.phaseSum[p]
		phaseTotal += d
		m["attr."+p.String()+"_vt_us"] = ratio(d, n) / 1e3
	}
	opTotal := after.opSum - before.opSum
	m["attr.residual_pct"] = 100 * ratio(opTotal-phaseTotal, opTotal)
}

// devBytes is the device traffic on all replicas between two readings.
func devBytes(before, after simdisk.Stats) int64 {
	d := after.Sub(before)
	return (d.SectorsRead + d.SectorsWritten) * simdisk.SectorSize
}
