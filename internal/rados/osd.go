package rados

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/blobstore"
	"repro/internal/crush"
	"repro/internal/msgr"
	"repro/internal/simdisk"
	"repro/internal/telemetry/attr"
	"repro/internal/vtime"
)

// OSDCost models OSD CPU work per request.
type OSDCost struct {
	PerRequest time.Duration // dispatch, context, PG lookup
	PerOp      time.Duration // per operation in the request
	PerByte    float64       // ns per payload byte (checksum/copy)
	Cores      int           // CPU parallelism
}

// DefaultOSDCost reflects a Xeon-class OSD node that is not CPU-bound at
// large IO but pays real per-op costs at small IO.
func DefaultOSDCost() OSDCost {
	return OSDCost{
		PerRequest: 20 * time.Microsecond,
		PerOp:      5 * time.Microsecond,
		PerByte:    0.15, // ≈6.6 GB/s of checksumming+copy per core
		Cores:      8,
	}
}

// OSD is one object storage daemon: several local disks, each with a
// blobstore, serving requests for the PGs it hosts and replicating writes
// to its peers.
type OSD struct {
	id     int
	cmap   *ClusterMap
	stores []*blobstore.Store
	cpu    *vtime.Resource
	cost   OSDCost
	srv    *msgr.InProcServer
	met    *osdMetrics

	mu       sync.Mutex
	peers    map[int]msgr.Conn
	objLocks map[string]*sync.Mutex
	snapInfo map[string]*snapInfo
}

// snapInfo is the cached per-object snapshot bookkeeping ("SnapSet").
type snapInfo struct {
	createdSeq uint64   // snap context seq when the head was created
	lastSeq    uint64   // snap context seq at the last write
	clones     []uint64 // snapshot ids with preserved clones, ascending
}

const snapAttr = "rados.snapset"

// snapAttrKey is snapAttr as every write transaction's attribute key;
// nothing writes to it.
var snapAttrKey = []byte(snapAttr)

func (si *snapInfo) marshal() []byte {
	b := make([]byte, 0, 20+8*len(si.clones))
	b = binary.LittleEndian.AppendUint64(b, si.createdSeq)
	b = binary.LittleEndian.AppendUint64(b, si.lastSeq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(si.clones)))
	for _, c := range si.clones {
		b = binary.LittleEndian.AppendUint64(b, c)
	}
	return b
}

func unmarshalSnapInfo(b []byte) (*snapInfo, error) {
	if len(b) < 20 {
		return nil, fmt.Errorf("rados: corrupt snapset (%d bytes)", len(b))
	}
	si := &snapInfo{
		createdSeq: binary.LittleEndian.Uint64(b[0:8]),
		lastSeq:    binary.LittleEndian.Uint64(b[8:16]),
	}
	n := int(binary.LittleEndian.Uint32(b[16:20]))
	if len(b) != 20+8*n {
		return nil, errors.New("rados: corrupt snapset clone list")
	}
	for i := 0; i < n; i++ {
		si.clones = append(si.clones, binary.LittleEndian.Uint64(b[20+8*i:]))
	}
	return si, nil
}

// NewOSD builds an OSD over its local disks.
func NewOSD(at vtime.Time, id int, cmap *ClusterMap, disks []*simdisk.Disk, blobCfg blobstore.Config, cost OSDCost) (*OSD, vtime.Time, error) {
	if cost.Cores < 1 {
		cost.Cores = 1
	}
	o := &OSD{
		id:       id,
		cmap:     cmap,
		cpu:      vtime.NewPool(fmt.Sprintf("osd%d/cpu", id), cost.Cores),
		cost:     cost,
		met:      newOSDMetrics(id),
		peers:    make(map[int]msgr.Conn),
		objLocks: make(map[string]*sync.Mutex),
		snapInfo: make(map[string]*snapInfo),
	}
	for i, d := range disks {
		st, end, err := blobstore.Open(at, d, blobCfg)
		if err != nil {
			return nil, at, fmt.Errorf("osd%d disk %d: %w", id, i, err)
		}
		at = vtime.Max(at, end)
		o.stores = append(o.stores, st)
	}
	o.srv = msgr.NewInProcServer(o.handle)
	o.srv.SetTypedHandler(o.handleTyped)
	return o, at, nil
}

// ID returns the OSD id.
func (o *OSD) ID() int { return o.id }

// Server exposes the messenger endpoint for cluster wiring.
func (o *OSD) Server() *msgr.InProcServer { return o.srv }

// Stores exposes the per-disk object stores for stats collection.
func (o *OSD) Stores() []*blobstore.Store { return o.stores }

// SetPeer wires the replication connection to another OSD.
func (o *OSD) SetPeer(id int, conn msgr.Conn) {
	o.mu.Lock()
	o.peers[id] = conn
	o.mu.Unlock()
}

// Close shuts the endpoint down.
func (o *OSD) Close() { o.srv.Close() }

func (o *OSD) lockFor(fullName string) *sync.Mutex {
	o.mu.Lock()
	defer o.mu.Unlock()
	l, ok := o.objLocks[fullName]
	if !ok {
		l = &sync.Mutex{}
		o.objLocks[fullName] = l
	}
	return l
}

// handle services one byte-codec request — the loopback that runs the
// reference encoding end to end. Production traffic enters through
// handleTyped and never touches the codec.
func (o *OSD) handle(at vtime.Time, payload []byte) ([]byte, vtime.Time, error) {
	req, err := UnmarshalRequest(payload)
	if err != nil {
		return nil, at, err
	}
	reply, end, err := o.serve(at, req)
	if err != nil {
		return nil, at, err
	}
	return reply.Marshal(), end, nil
}

// handleTyped services one typed request — the in-process fast path. The
// request's payload slices are owned by the caller (they are the
// client's pooled seal buffers); everything persisted is copied by the
// blobstore/kvstore layers before serve returns, so no reference
// survives the call.
func (o *OSD) handleTyped(at vtime.Time, m msgr.Msg) (msgr.Msg, vtime.Time, error) {
	req, ok := m.(*Request)
	if !ok {
		return nil, at, fmt.Errorf("osd%d: unexpected typed message %T", o.id, m)
	}
	reply, end, err := o.serve(at, req)
	if err != nil {
		return nil, at, err
	}
	return reply, end, nil
}

// serve executes one request and its replication, shared by both wire
// forms.
func (o *OSD) serve(at vtime.Time, req *Request) (*Reply, vtime.Time, error) {
	entry := at
	m := o.met
	if req.Replica {
		m.replica.Inc()
	} else {
		m.primary.Inc()
	}
	m.bytes.Add(countOps(req.Ops, &m.ops))

	// CPU admission cost.
	var bytes int64
	for _, op := range req.Ops {
		bytes += int64(len(op.Data))
		for _, p := range op.Pairs {
			bytes += int64(len(p.Key) + len(p.Value))
		}
	}
	// Classified from the ops, not req.AttrClass: that field is
	// client-local and does not cross the byte codec.
	cls := attrClassOf(req.Ops)
	mutating := cls == attr.OpWrite
	cpuTime := o.cost.PerRequest + time.Duration(len(req.Ops))*o.cost.PerOp +
		time.Duration(float64(bytes)*o.cost.PerByte)
	admitted := o.cpu.Use(at, cpuTime)
	// Queue phase: time lost waiting for a CPU core, excluding the work
	// itself. Observed per serve, replicas included.
	queued := admitted.Sub(at) - cpuTime
	if queued < 0 {
		queued = 0
	}
	attr.Observe(cls, attr.PhaseQueue, queued)
	at = admitted

	fullName := req.Pool + "/" + req.Object
	lock := o.lockFor(fullName)
	lock.Lock()
	results, localEnd, err := o.execute(at, fullName, req)
	lock.Unlock()
	if err != nil {
		m.errors.Inc()
		return nil, at, err
	}
	reply := &Reply{Results: results}
	// Serve phase: CPU work plus local execution, queue delay excluded
	// so the phases partition the local time. Each replica copy's serve
	// is observed on its own OSD.
	attr.Observe(cls, attr.PhaseServe, localEnd.Sub(entry)-queued)

	end := localEnd
	replicated := false
	if mutating && !req.Replica {
		end, replicated, err = o.replicate(at, req, end)
		if err != nil {
			m.errors.Inc()
			return nil, at, err
		}
		if replicated {
			// The fan-out is issued at the post-admission time,
			// concurrent with the local commit; its hop spans forward
			// to slowest ack.
			m.replications.Inc()
			m.replLat.Observe(end.Sub(at))
			attr.Observe(cls, attr.PhaseReplicate, end.Sub(at))
		}
	}
	// The hops go into the op's span, like the transport's: every op
	// carries one, so a slow op's record holds its full breakdown.
	req.Span.Hop(m.serveHop, entry, localEnd)
	if replicated {
		req.Span.Hop(m.replHop, at, end)
	}
	m.serveLat.Observe(end.Sub(entry))
	return reply, end, nil
}

// replicate runs primary-copy replication: the request is forwarded to
// the other replicas in replica-set order, every forward issued at the
// same virtual instant (vtime.Join), one roundTrip per peer, and the
// write is acknowledged when every copy is durable. It reports whether
// anything was forwarded: a replica set of just the primary is not a
// replication.
func (o *OSD) replicate(at vtime.Time, req *Request, end vtime.Time) (vtime.Time, bool, error) {
	pg := o.cmap.PG(req.Pool, req.Object)
	replicas := o.cmap.OSDsFor(pg)
	// The peers of the usual replica set fit the array, off the heap.
	var connArr [4]msgr.Conn
	conns := connArr[:0]
	for _, rid := range replicas {
		if rid == o.id {
			continue
		}
		o.mu.Lock()
		conn := o.peers[rid]
		o.mu.Unlock()
		if conn == nil {
			return at, false, fmt.Errorf("osd%d: no peer connection to osd%d", o.id, rid)
		}
		conns = append(conns, conn)
	}
	if len(conns) == 0 {
		return end, false, nil
	}

	// The forward shares the request's op vector (read-only on the peer)
	// and its span with the replica flag set, so no payload is re-staged
	// and each leg's transport and serve hops land in the op's span.
	fwd := *req
	fwd.Replica = true

	acked, err := vtime.Join(at, len(conns), func(i int) (vtime.Time, error) {
		_, legEnd, err := roundTrip(conns[i], at, &fwd)
		return legEnd, err
	})
	if err != nil {
		return at, true, fmt.Errorf("osd%d: replica: %w", o.id, err)
	}
	return vtime.Max(end, acked), true, nil
}

// listOf returns arr when it holds n elements, else a heap list of
// capacity n.
func listOf[T any](arr []T, n int) []T {
	if n <= cap(arr) {
		return arr
	}
	return make([]T, 0, n)
}

func cloneName(fullName string, snapID uint64) string {
	return fmt.Sprintf("%s@%016x", fullName, snapID)
}

// loadSnapInfo returns the cached snapset for an object, loading it from
// the store's attributes on first touch.
func (o *OSD) loadSnapInfo(at vtime.Time, st *blobstore.Store, fullName string) (*snapInfo, vtime.Time, error) {
	o.mu.Lock()
	si, ok := o.snapInfo[fullName]
	o.mu.Unlock()
	if ok {
		return si, at, nil
	}
	si = &snapInfo{}
	if st.Exists(fullName) {
		raw, found, end, err := st.GetAttr(at, fullName, snapAttr)
		if err != nil {
			return nil, at, err
		}
		at = end
		if found {
			if si, err = unmarshalSnapInfo(raw); err != nil {
				return nil, at, err
			}
		}
	}
	o.mu.Lock()
	o.snapInfo[fullName] = si
	o.mu.Unlock()
	return si, at, nil
}

// execute runs the ops against the local store. The caller holds the
// object lock.
func (o *OSD) execute(at vtime.Time, fullName string, req *Request) ([]Result, vtime.Time, error) {
	st := o.stores[crush.DiskForObject(fullName, len(o.stores))]
	mutating := false
	for _, op := range req.Ops {
		if op.Kind.Mutates() {
			mutating = true
			break
		}
	}
	if mutating {
		return o.executeWrite(at, st, fullName, req)
	}
	return o.executeRead(at, st, fullName, req)
}

func (o *OSD) executeWrite(at vtime.Time, st *blobstore.Store, fullName string, req *Request) ([]Result, vtime.Time, error) {
	si, at, err := o.loadSnapInfo(at, st, fullName)
	if err != nil {
		return nil, at, err
	}

	// Clone-on-write: preserve the pre-write state for snapshots taken
	// since the last write (§1: "overwritten data remains accessible").
	if req.SnapSeq > si.lastSeq {
		if st.Exists(fullName) {
			end, err := st.Clone(at, fullName, cloneName(fullName, req.SnapSeq))
			if err != nil {
				return nil, at, err
			}
			at = end
			si.clones = append(si.clones, req.SnapSeq)
		} else {
			si.createdSeq = req.SnapSeq
		}
		si.lastSeq = req.SnapSeq
	}

	// Size the transaction's lists once from the op vector.
	var nWrites, nOmapSet, nOmapDel, nAttrs int
	for _, op := range req.Ops {
		switch op.Kind {
		case OpWrite:
			nWrites++
		case OpOmapSet:
			nOmapSet += len(op.Pairs)
		case OpOmapDel:
			nOmapDel += len(op.Pairs)
		case OpSetAttr:
			nAttrs++
		}
	}
	// The usual op vector's lists fit the arrays and stay off the heap;
	// the store copies what it keeps before Apply returns.
	var (
		writeArr [2]blobstore.DataWrite
		omapArr  [16]blobstore.KVPair
		delArr   [4][]byte
		attrArr  [2]blobstore.KVPair
	)
	txn := blobstore.Txn{Truncate: -1}
	txn.Writes = listOf(writeArr[:0], nWrites)
	txn.OmapSet = listOf(omapArr[:0], nOmapSet)
	txn.OmapDel = listOf(delArr[:0], nOmapDel)
	txn.AttrSet = listOf(attrArr[:0], nAttrs+1) // + the snapset
	results := make([]Result, len(req.Ops))
	doDelete := false
	for i, op := range req.Ops {
		switch op.Kind {
		case OpWrite:
			txn.Writes = append(txn.Writes, blobstore.DataWrite{Off: op.Off, Data: op.Data})
		case OpTruncate:
			txn.Truncate = op.Off
		case OpOmapSet:
			for _, p := range op.Pairs {
				txn.OmapSet = append(txn.OmapSet, blobstore.KVPair{Key: p.Key, Value: p.Value})
			}
		case OpOmapDel:
			for _, p := range op.Pairs {
				txn.OmapDel = append(txn.OmapDel, p.Key)
			}
		case OpSetAttr:
			txn.AttrSet = append(txn.AttrSet, blobstore.KVPair{Key: op.Key, Value: op.Data})
		case OpDelete:
			doDelete = true
		default:
			return nil, at, fmt.Errorf("%w: %v in write request", ErrInvalid, op.Kind)
		}
		results[i] = Result{Status: StatusOK}
	}

	if doDelete {
		// An object's snapshot clones die with its head: the snapset that
		// could resolve them is stored on the head, so deleting only the
		// head would leak the clone blobs in the store forever (and a
		// later object reusing the name could collide with stale clones).
		for _, c := range si.clones {
			end, err := st.Delete(at, cloneName(fullName, c))
			if err != nil && !errors.Is(err, blobstore.ErrNotFound) {
				return nil, at, err
			}
			if err == nil {
				at = end
			}
		}
		end, err := st.Delete(at, fullName)
		if errors.Is(err, blobstore.ErrNotFound) {
			for i := range results {
				results[i].Status = StatusNotFound
			}
			return results, at, nil
		}
		if err != nil {
			return nil, at, err
		}
		o.mu.Lock()
		delete(o.snapInfo, fullName)
		o.mu.Unlock()
		return results, end, nil
	}

	// Persist the snapset alongside the data — same transaction, so
	// data, metadata and IVs commit atomically.
	txn.AttrSet = append(txn.AttrSet, blobstore.KVPair{Key: snapAttrKey, Value: si.marshal()})
	end, err := st.Apply(at, fullName, &txn)
	if err != nil {
		if errors.Is(err, blobstore.ErrNoSpace) {
			for i := range results {
				results[i].Status = StatusNoSpace
			}
			return results, at, nil
		}
		return nil, at, err
	}
	return results, end, nil
}

// resolveReadSource maps a snapshot read to the right clone.
func (o *OSD) resolveReadSource(at vtime.Time, st *blobstore.Store, fullName string, snapID uint64) (string, bool, vtime.Time, error) {
	if snapID == 0 {
		return fullName, st.Exists(fullName), at, nil
	}
	si, at, err := o.loadSnapInfo(at, st, fullName)
	if err != nil {
		return "", false, at, err
	}
	// An object first created while the newest snapshot was createdSeq
	// came into being *after* every snapshot with id <= createdSeq, so
	// those snapshots must not see it — through the head or any clone.
	if si.createdSeq >= snapID {
		return "", false, at, nil
	}
	// The earliest clone whose id >= snapID holds the state frozen at the
	// first write after that snapshot.
	for _, c := range si.clones {
		if c >= snapID {
			return cloneName(fullName, c), true, at, nil
		}
	}
	// No clone: the head still holds the state.
	if !st.Exists(fullName) {
		return "", false, at, nil
	}
	return fullName, true, at, nil
}

func (o *OSD) executeRead(at vtime.Time, st *blobstore.Store, fullName string, req *Request) ([]Result, vtime.Time, error) {
	src, exists, at, err := o.resolveReadSource(at, st, fullName, req.SnapID)
	if err != nil {
		return nil, at, err
	}
	results := make([]Result, len(req.Ops))
	end := at
	for i, op := range req.Ops {
		if !exists {
			results[i] = Result{Status: StatusNotFound}
			continue
		}
		switch op.Kind {
		case OpRead:
			// The in-process fast path supplies the client's own pooled
			// destination; remote reads (byte codec strips Dst) allocate.
			buf := op.Dst
			if int64(len(buf)) != op.Len {
				buf = make([]byte, op.Len)
			}
			e, err := st.Read(at, src, op.Off, buf)
			if errors.Is(err, blobstore.ErrNotFound) {
				results[i] = Result{Status: StatusNotFound}
				continue
			}
			if errors.Is(err, blobstore.ErrBounds) {
				results[i] = Result{Status: StatusInvalid}
				continue
			}
			if err != nil {
				return nil, at, err
			}
			results[i] = Result{Status: StatusOK, Data: buf}
			end = vtime.Max(end, e)
		case OpStat:
			sz, err := st.Size(src)
			if errors.Is(err, blobstore.ErrNotFound) {
				results[i] = Result{Status: StatusNotFound}
				continue
			}
			if err != nil {
				return nil, at, err
			}
			results[i] = Result{Status: StatusOK, Size: sz}
		case OpGetAttr:
			v, found, e, err := st.GetAttr(at, src, string(op.Key))
			if err != nil && !errors.Is(err, blobstore.ErrNotFound) {
				return nil, at, err
			}
			if err != nil || !found {
				results[i] = Result{Status: StatusNotFound}
				continue
			}
			results[i] = Result{Status: StatusOK, Data: v}
			end = vtime.Max(end, e)
		case OpOmapGetRange:
			hi := op.Key2
			if len(hi) == 0 {
				hi = nil // empty on the wire means "to the end"
			}
			kvs, e, err := st.OmapScan(at, src, op.Key, hi, int(op.Len))
			if err != nil {
				return nil, at, err
			}
			pairs := make([]Pair, len(kvs))
			for j, kv := range kvs {
				pairs[j] = Pair{Key: kv.Key, Value: kv.Value}
			}
			results[i] = Result{Status: StatusOK, Pairs: pairs}
			end = vtime.Max(end, e)
		default:
			return nil, at, fmt.Errorf("%w: %v in read request", ErrInvalid, op.Kind)
		}
	}
	return results, end, nil
}
