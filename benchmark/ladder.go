package main

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/blobstore"
	"repro/internal/core"
	"repro/internal/crypto/xts"
	"repro/internal/fio"
	"repro/internal/kvstore"
	"repro/internal/msgr"
	"repro/internal/rados"
	"repro/internal/rbd"
	"repro/internal/simdisk"
	"repro/internal/vtime"
)

// The wall ladder: host microseconds per op of each layer alone, called
// through its public entry point from one goroutine with the workload's
// IO shape. Every rung is a standalone instance, so a rung's number is
// the cost of that layer and everything under it, and subtracting the
// rung below leaves the layer's own time.

const (
	ladderObjects    = 8 // 4 MB objects each rung spreads its ops over
	ladderBatches    = 15
	ladderPrebuilt   = 256 // distinct store-level ops a rung cycles through
	objectBytes      = 4 << 20
	omapPrefix       = "iv." // core's OMAP IV key prefix
	snapsetAttrBytes = 20    // the snapset record an OSD adds to every write txn
)

// rung is one layer's standalone fixture: op performs one call through
// the layer's public entry point.
type rung struct {
	name string
	op   func() error
	ops  int // image ops one call stands for (fio's engine runs many per call)
}

// measureRungs times every rung in ladderBatches batches, taking the
// rungs in turn within each round so that every rung samples the same
// moments of the host, and sets each rung's metric to the microseconds
// per op of its fastest batch — the statistic the host-rate end-to-end
// metrics use, for the same reason. Each batch is one span; batching
// keeps the two clock reads out of ops that take less than a microsecond.
func measureRungs(m metrics, spans *spanLog, root int, budget time.Duration, rungs []rung) error {
	const pilotCalls = 2
	calls := make([]int, len(rungs))
	for i, r := range rungs {
		start := time.Now()
		for c := 0; c < pilotCalls; c++ {
			if err := r.op(); err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
		}
		perCall := max(time.Since(start)/pilotCalls, time.Nanosecond)
		calls[i] = max(1, int(budget/ladderBatches/perCall))
	}
	for b := 0; b < ladderBatches; b++ {
		for i, r := range rungs {
			start := time.Now()
			for c := 0; c < calls[i]; c++ {
				if err := r.op(); err != nil {
					return fmt.Errorf("%s: %w", r.name, err)
				}
			}
			end := time.Now()
			spans.add(r.name, start, end, root, calls[i]*r.ops)
			us := micros(end.Sub(start)) / float64(calls[i]*r.ops)
			if best, ok := m[r.name]; !ok || us < best {
				m[r.name] = us
			}
		}
	}
	return nil
}

// shape is the workload's IO as the layers below core see it.
type shape struct {
	w       workload
	metaLen int64 // stored metadata bytes per block under the workload's scheme
	blocks  int64 // encryption blocks per op
	data    []byte
	meta    []byte
}

func newShape(w workload, metaLen int64) *shape {
	sh := &shape{w: w, metaLen: metaLen, blocks: w.blockSize / blockBytes}
	sh.data = make([]byte, sh.blocks*(blockBytes+metaLen)) // large enough for the interleaved layout
	rand.New(rand.NewSource(1)).Read(sh.data)
	sh.meta = make([]byte, sh.blocks*metaLen)
	return sh
}

// slots is how many ops of this shape fit in one object.
func (sh *shape) slots() int64 { return objectBytes / sh.w.blockSize }

// radosOps is the op vector core's layout planner issues for the op at
// object-relative slot.
func (sh *shape) radosOps(slot int64) []rados.Op {
	first := slot * sh.blocks
	stride := blockBytes + sh.metaLen
	if sh.w.pattern.Reads() {
		stat := rados.Op{Kind: rados.OpStat}
		switch sh.w.layout {
		case core.LayoutUnaligned:
			return []rados.Op{{Kind: rados.OpRead, Off: first * stride, Len: sh.blocks * stride, Dst: sh.data}, stat}
		default: // object-end
			return []rados.Op{
				{Kind: rados.OpRead, Off: first * blockBytes, Len: sh.w.blockSize, Dst: sh.data[:sh.w.blockSize]},
				{Kind: rados.OpRead, Off: objectBytes + first*sh.metaLen, Len: sh.blocks * sh.metaLen, Dst: sh.meta},
				stat,
			}
		}
	}
	data := rados.Op{Kind: rados.OpWrite, Off: first * blockBytes, Data: sh.data[:sh.w.blockSize]}
	switch sh.w.layout {
	case core.LayoutUnaligned:
		return []rados.Op{{Kind: rados.OpWrite, Off: first * stride, Data: sh.data}}
	case core.LayoutOMAP:
		// One key arena per op, as core's write plan has.
		keyLen := len(omapPrefix) + 8
		keys := make([]byte, int(sh.blocks)*keyLen)
		pairs := make([]rados.Pair, sh.blocks)
		for b := range pairs {
			k := keys[b*keyLen : (b+1)*keyLen : (b+1)*keyLen]
			copy(k, omapPrefix)
			binary.BigEndian.PutUint64(k[len(omapPrefix):], uint64(first)+uint64(b))
			pairs[b] = rados.Pair{Key: k, Value: sh.meta[int64(b)*sh.metaLen : int64(b+1)*sh.metaLen]}
		}
		return []rados.Op{data, {Kind: rados.OpOmapSet, Pairs: pairs}}
	default: // object-end
		return []rados.Op{data, {Kind: rados.OpWrite, Off: objectBytes + first*sh.metaLen, Data: sh.meta}}
	}
}

// fillOps writes one whole object in the workload's layout, so reads
// find data and metadata where the layout puts them.
func (sh *shape) fillOps() []rados.Op {
	if sh.w.layout == core.LayoutUnaligned {
		return []rados.Op{{Kind: rados.OpWrite, Data: make([]byte, (objectBytes/blockBytes)*(blockBytes+sh.metaLen))}}
	}
	return []rados.Op{
		{Kind: rados.OpWrite, Data: make([]byte, objectBytes)},
		{Kind: rados.OpWrite, Off: objectBytes, Data: make([]byte, (objectBytes/blockBytes)*sh.metaLen)},
	}
}

// txn is the blobstore transaction an OSD builds from radosOps.
func (sh *shape) txn(slot int64) *blobstore.Txn {
	txn := blobstore.NewTxn()
	for _, op := range sh.radosOps(slot) {
		switch op.Kind {
		case rados.OpWrite:
			txn.Writes = append(txn.Writes, blobstore.DataWrite{Off: op.Off, Data: op.Data})
		case rados.OpOmapSet:
			for _, p := range op.Pairs {
				txn.OmapSet = append(txn.OmapSet, blobstore.KVPair{Key: p.Key, Value: p.Value})
			}
		}
	}
	txn.AttrSet = append(txn.AttrSet, blobstore.KVPair{Key: []byte("snapset"), Value: make([]byte, snapsetAttrBytes)})
	return txn
}

// batch is the KV commit batch blobstore stages for txn: the onode, the
// snapset attribute, the OMAP pairs, one transient journal record per
// sub-sector span (the object-end metadata tail) and the delete of the
// previous op's record.
func (sh *shape) batch(obj string, slot int64, seq uint64) *kvstore.Batch {
	var b kvstore.Batch
	b.Put([]byte("O/"+obj), make([]byte, 32))
	b.Put([]byte("A/"+obj+"\x00snapset"), make([]byte, snapsetAttrBytes))
	txn := sh.txn(slot)
	for _, p := range txn.OmapSet {
		b.Put(append([]byte("M/"+obj+"\x00"), p.Key...), p.Value)
	}
	deferKey := func(seq uint64) []byte { return binary.BigEndian.AppendUint64([]byte("D/"), seq) }
	for _, w := range txn.Writes {
		if len(w.Data)%simdisk.SectorSize != 0 {
			b.PutTransient(deferKey(seq), make([]byte, 8+len(w.Data)%simdisk.SectorSize))
			b.DeleteTransient(deferKey(seq - 1))
		}
	}
	return &b
}

// nullTarget completes every op after a fixed virtual latency without
// doing anything, leaving only fio's own engine on the clock.
type nullTarget struct{ size int64 }

func (t nullTarget) Size() int64 { return t.size }
func (t nullTarget) ReadAt(at vtime.Time, _ []byte, _ int64) (vtime.Time, error) {
	return at.Add(100 * time.Microsecond), nil
}
func (t nullTarget) WriteAt(at vtime.Time, _ []byte, _ int64) (vtime.Time, error) {
	return at.Add(100 * time.Microsecond), nil
}

// cryptoOp returns one op's worth of the workload's cipher over the
// payload, block by block: internal/crypto/xts for xts-rand, stdlib
// AES-GCM for gcm-auth; seal for writes, open for reads.
func cryptoOp(w workload) (func() error, error) {
	blocks := int(w.blockSize / blockBytes)
	src := make([]byte, w.blockSize)
	rand.New(rand.NewSource(2)).Read(src)
	if w.scheme == core.SchemeXTSRand {
		c, err := xts.NewCipher(make([]byte, 64))
		if err != nil {
			return nil, err
		}
		dst := make([]byte, w.blockSize)
		return func() error {
			for b := 0; b < blocks; b++ {
				lo, hi := b*blockBytes, (b+1)*blockBytes
				var err error
				if w.pattern.Reads() {
					err = c.Decrypt(dst[lo:hi], src[lo:hi], xts.SectorTweak(uint64(b)))
				} else {
					err = c.Encrypt(dst[lo:hi], src[lo:hi], xts.SectorTweak(uint64(b)))
				}
				if err != nil {
					return err
				}
			}
			return nil
		}, nil
	}
	block, err := aes.NewCipher(make([]byte, 32))
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, aead.NonceSize())
	sealed := aead.Seal(nil, nonce, src[:blockBytes], nil)
	dst := make([]byte, 0, len(sealed))
	return func() error {
		for b := 0; b < blocks; b++ {
			if w.pattern.Reads() {
				if _, err := aead.Open(dst, nonce, sealed, nil); err != nil {
					return err
				}
			} else {
				aead.Seal(dst, nonce, src[b*blockBytes:(b+1)*blockBytes], nil)
			}
		}
		return nil
	}, nil
}

// ladderCluster is the benchmark's cluster with one disk per OSD instead
// of nine: a rung's few objects then load each store about as the full
// image loads a store of the full cluster (64 objects x 3 copies over 27
// stores), which is what the depth of a store's LSM depends on.
func ladderCluster(w workload, replicas int) rados.ClusterConfig {
	cfg := clusterConfig(w)
	cfg.DisksPerOSD = 1
	cfg.Replicas = replicas
	return cfg
}

// runLadder measures every rung for cfg's workload and derives the self
// times and the residual.
func runLadder(m metrics, cfg runConfig, spans *spanLog) error {
	w := cfg.w
	budget := cfg.size.rungBudget
	root := spans.open("ladder", 0, 0)
	defer spans.close(root)
	rng := rand.New(rand.NewSource(cfg.seed))
	imageBytes := int64(ladderObjects * objectBytes)
	var rungs []rung
	add := func(name string, op func() error) { rungs = append(rungs, rung{name, op, 1}) }

	// fio's engine alone, at the workload's queue depth; one call is a
	// whole Run.
	engineOps := cfg.size.ops(2000)
	rungs = append(rungs, rung{"fio.engine_us_per_op", func() error {
		_, err := fio.Run(w.spec(cfg.size, engineOps, 1), nullTarget{imageBytes}, 0)
		return err
	}, engineOps})

	op, err := cryptoOp(w)
	if err != nil {
		return err
	}
	add("crypto.us_per_op", op)

	// core, rbd and rados over one three-replica cluster; the encrypted
	// image runs its datapath serially so its time is work, not elapsed
	// time on however many cores the host has.
	cluster, err := rados.NewCluster(ladderCluster(w, 3))
	if err != nil {
		return err
	}
	defer cluster.Close()
	s, err := newImage(cluster, w.scheme, w.layout, imageBytes)
	if err != nil {
		return err
	}
	s.enc.SetParallelism(1)
	now, err := fio.Precondition(s.enc, 0, blockBytes, 0)
	if err != nil {
		return err
	}
	buf := make([]byte, w.blockSize)
	imageOp := func(t fio.Target) func() error {
		return func() error {
			off := rng.Int63n(imageBytes/w.blockSize) * w.blockSize
			var err error
			if w.pattern.Reads() {
				now, err = t.ReadAt(now, buf, off)
			} else {
				now, err = t.WriteAt(now, buf, off)
			}
			return err
		}
	}
	add("core.op_us", imageOp(s.enc))

	if _, err := rbd.Create(now, s.client, poolName, "plain", imageBytes); err != nil {
		return err
	}
	plain, _, err := rbd.Open(now, s.client, poolName, "plain")
	if err != nil {
		return err
	}
	if now, err = fio.Precondition(plain, 0, blockBytes, now); err != nil {
		return err
	}
	add("rbd.op_us", imageOp(plain))

	sh := newShape(w, int64(s.enc.MetaLen()))
	objName := func(i int64) string { return fmt.Sprintf("ladder.%d", i) }
	radosOp := func(client *rados.Client) (func() error, error) {
		for i := int64(0); i < ladderObjects; i++ {
			if _, _, err := client.Operate(now, poolName, objName(i), rados.SnapContext{}, 0, sh.fillOps()); err != nil {
				return nil, err
			}
		}
		return func() error {
			res, end, err := client.Operate(now, poolName, objName(rng.Int63n(ladderObjects)), rados.SnapContext{}, 0, sh.radosOps(rng.Int63n(sh.slots())))
			if err != nil {
				return err
			}
			now = end
			for _, r := range res {
				if err := r.Status.Err(); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}
	if op, err = radosOp(s.client); err != nil {
		return err
	}
	add("rados.op_us", op)
	r1, err := rados.NewCluster(ladderCluster(w, 1))
	if err != nil {
		return err
	}
	defer r1.Close()
	if op, err = radosOp(r1.NewClient("ladder-client")); err != nil {
		return err
	}
	add("rados.r1_op_us", op)

	// The byte codec the in-process transport skips: marshal, join and
	// parse the request and the reply of this shape.
	req := &rados.Request{Pool: poolName, Object: objName(0), Ops: sh.radosOps(0)}
	reply := &rados.Reply{Results: make([]rados.Result, len(req.Ops))}
	for i, o := range req.Ops {
		if o.Kind == rados.OpRead {
			reply.Results[i].Data = o.Dst
		}
	}
	hdr := make([]byte, 0, 4096)
	add("rados.codec_us", func() error {
		segs, _ := req.MarshalV(hdr[:0])
		if _, err := rados.UnmarshalRequest(msgr.JoinSegs(segs)); err != nil {
			return err
		}
		segs, _ = reply.MarshalV(hdr[:0])
		_, err := rados.UnmarshalReply(msgr.JoinSegs(segs))
		return err
	})

	// The messenger with nothing behind it: the typed in-process call
	// charged the wire size of this shape's request and reply.
	srv := msgr.NewInProcServer(func(at vtime.Time, _ []byte) ([]byte, vtime.Time, error) { return nil, at, nil })
	srv.SetTypedHandler(func(at vtime.Time, _ msgr.Msg) (msgr.Msg, vtime.Time, error) { return reply, at, nil })
	defer srv.Close()
	link := msgr.DefaultLinkCost(vtime.NewResource("ladder/nic"))
	conn := srv.Connect("ladder", link, link).(msgr.TypedConn)
	add("msgr.call_us", func() error {
		_, end, err := conn.CallTyped(now, req)
		now = end
		return err
	})

	// One store, one KV partition and one device, each on a disk of the
	// cluster's geometry.
	blobCfg := clusterConfig(w).Blob
	disk := func(name string) *simdisk.Disk {
		return simdisk.New(name, rados.DefaultClusterConfig().DiskSectors, simdisk.DefaultCostModel())
	}
	store, _, err := blobstore.Open(0, disk("ladder/blob"), blobCfg)
	if err != nil {
		return err
	}
	for i := int64(0); i < ladderObjects; i++ {
		txn := blobstore.NewTxn()
		for _, o := range sh.fillOps() {
			txn.Writes = append(txn.Writes, blobstore.DataWrite{Off: o.Off, Data: o.Data})
		}
		if now, err = store.Apply(now, objName(i), txn); err != nil {
			return err
		}
	}
	// Transactions and batches are built ahead of the clock: turning an
	// op vector into them is the OSD's work, not the store's.
	type storeOp struct {
		obj   string
		reads []rados.Op
		txn   *blobstore.Txn
		batch *kvstore.Batch
	}
	prebuilt := make([]storeOp, ladderPrebuilt)
	for i := range prebuilt {
		obj, slot := objName(rng.Int63n(ladderObjects)), rng.Int63n(sh.slots())
		prebuilt[i] = storeOp{obj: obj, txn: sh.txn(slot), batch: sh.batch(obj, slot, uint64(i+2))}
		if w.pattern.Reads() {
			prebuilt[i].reads = sh.radosOps(slot)
		}
	}
	next := 0
	add("blobstore.op_us", func() error {
		next = (next + 1) % ladderPrebuilt
		so := prebuilt[next]
		var err error
		if !w.pattern.Reads() {
			now, err = store.Apply(now, so.obj, so.txn)
			return err
		}
		for _, o := range so.reads {
			if o.Kind == rados.OpRead {
				if now, err = store.Read(now, so.obj, o.Off, o.Dst); err != nil {
					return err
				}
			}
		}
		_, err = store.Size(so.obj)
		return err
	})

	kv, _, err := kvstore.Open(0, simdisk.NewPartition(disk("ladder/kv"), 0, blobCfg.KVBytes/simdisk.SectorSize), blobCfg.KV)
	if err != nil {
		return err
	}
	if now, err = kv.Apply(now, sh.batch(objName(0), 0, 1)); err != nil {
		return err
	}
	add("kvstore.op_us", func() error {
		var err error
		if w.pattern.Reads() {
			_, _, now, err = kv.Get(now, []byte("O/"+objName(0)))
			return err
		}
		next = (next + 1) % ladderPrebuilt
		now, err = kv.Apply(now, prebuilt[next].batch)
		return err
	})

	dev := disk("ladder/dev")
	for off := int64(0); off < imageBytes; off += objectBytes {
		if now, err = dev.WriteAt(now, make([]byte, objectBytes), off); err != nil {
			return err
		}
	}
	add("simdisk.op_us", func() error {
		off := rng.Int63n(imageBytes/w.blockSize) * w.blockSize
		var err error
		if w.pattern.Reads() {
			now, err = dev.ReadAt(now, buf, off)
		} else {
			now, err = dev.WriteAt(now, buf, off)
		}
		return err
	})

	if err := measureRungs(m, spans, root, budget, rungs); err != nil {
		return err
	}

	// Self times by subtraction down the ladder. A write reaches three
	// copies (one client call plus two replication calls, three txns); a
	// read reaches the primary only and never touches the KV store.
	copies, kvOnPath := 3.0, m["kvstore.op_us"]
	if w.pattern.Reads() {
		copies, kvOnPath = 1, 0
	}
	m["core.layout_overhead_us"] = m["core.op_us"] - m["rbd.op_us"] - m["crypto.us_per_op"]
	m["core.self_us"] = m["core.op_us"] - m["crypto.us_per_op"] - m["rados.op_us"]
	m["rados.replicate_us"] = m["rados.op_us"] - m["rados.r1_op_us"]
	m["rados.self_us"] = m["rados.r1_op_us"] - m["msgr.call_us"] - m["blobstore.op_us"]
	m["blobstore.self_us"] = m["blobstore.op_us"] - kvOnPath - m["simdisk.op_us"]
	leaves := m["crypto.us_per_op"] + copies*(m["msgr.call_us"]+m["blobstore.op_us"])
	m["ladder.residual_pct"] = 100 * (m["core.op_us"] - leaves) / m["core.op_us"]
	return nil
}
