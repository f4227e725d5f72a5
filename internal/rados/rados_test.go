package rados

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/simdisk"
	"repro/internal/telemetry"
	"repro/internal/vtime"
)

func testCluster(t *testing.T) (*Cluster, *Client) {
	t.Helper()
	cfg := DefaultClusterConfig()
	cfg.OSDs = 3
	cfg.DisksPerOSD = 2
	cfg.DiskSectors = (512 << 20) / simdisk.SectorSize
	cfg.PGNum = 16
	cfg.Blob.ObjectCapacity = 1 << 20
	cfg.Blob.KVBytes = 64 << 20
	cfg.Blob.KV.MemtableBytes = 256 << 10
	cfg.Blob.KV.WALBytes = 4 << 20
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, c.NewClient("client0")
}

func TestWireRoundTrip(t *testing.T) {
	req := &Request{
		Pool:    "rbd",
		Object:  "rbd_data.img.0001",
		SnapID:  7,
		SnapSeq: 9,
		Replica: true,
		Ops: []Op{
			{Kind: OpWrite, Off: 4096, Data: []byte("payload")},
			{Kind: OpOmapSet, Pairs: []Pair{{Key: []byte("k"), Value: []byte("v")}, {Key: []byte("k2"), Value: nil}}},
			{Kind: OpOmapGetRange, Key: []byte("lo"), Key2: []byte("hi"), Len: 42},
		},
	}
	got, err := UnmarshalRequest(req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Pool != req.Pool || got.Object != req.Object || got.SnapID != 7 || got.SnapSeq != 9 || !got.Replica {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Ops) != 3 || got.Ops[0].Kind != OpWrite || string(got.Ops[0].Data) != "payload" {
		t.Fatalf("ops mismatch: %+v", got.Ops)
	}
	if len(got.Ops[1].Pairs) != 2 || string(got.Ops[1].Pairs[0].Key) != "k" {
		t.Fatalf("pairs mismatch: %+v", got.Ops[1].Pairs)
	}

	rep := &Reply{Results: []Result{
		{Status: StatusOK, Data: []byte("d"), Size: 5},
		{Status: StatusNotFound, Pairs: []Pair{{Key: []byte("a"), Value: []byte("b")}}},
	}}
	gotRep, err := UnmarshalReply(rep.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRep.Results) != 2 || gotRep.Results[0].Size != 5 || gotRep.Results[1].Status != StatusNotFound {
		t.Fatalf("reply mismatch: %+v", gotRep)
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	trailing := append((&Request{Pool: "p", Object: "o", Ops: []Op{{Kind: OpStat}}}).Marshal(), 0x00)
	for _, b := range [][]byte{nil, {1}, bytes.Repeat([]byte{0xFF}, 40), trailing} {
		if _, err := UnmarshalRequest(b); err == nil {
			t.Fatalf("accepted %x", b)
		}
	}
}

func TestWirePropertyRoundTrip(t *testing.T) {
	f := func(pool, object string, off int64, data []byte, key []byte) bool {
		req := &Request{Pool: pool, Object: object, Ops: []Op{
			{Kind: OpWrite, Off: off, Data: data},
			{Kind: OpGetAttr, Key: key},
		}}
		m := req.Marshal()
		got, err := UnmarshalRequest(m)
		if err != nil {
			return false
		}
		// The scatter-gather form and WireLen must agree with the flat
		// codec byte for byte — the compatibility oracle.
		segs, hdr := req.MarshalV(nil)
		joined := make([]byte, 0, len(m))
		for _, s := range segs {
			joined = append(joined, s...)
		}
		_ = hdr
		if !bytes.Equal(joined, m) || req.WireLen() != len(m) {
			return false
		}
		return got.Pool == pool && got.Object == object &&
			got.Ops[0].Off == off && bytes.Equal(got.Ops[0].Data, data) &&
			bytes.Equal(got.Ops[1].Key, key)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReplyMarshalVOracle(t *testing.T) {
	rep := &Reply{Results: []Result{
		{Status: StatusOK, Data: bytes.Repeat([]byte{0x11}, 8192), Size: 8192},
		{Status: StatusOK, Pairs: []Pair{
			{Key: []byte("iv.0"), Value: bytes.Repeat([]byte{0x22}, 16)},
			{Key: []byte("big"), Value: bytes.Repeat([]byte{0x33}, 1024)},
		}},
		{Status: StatusNotFound},
	}}
	m := rep.Marshal()
	segs, _ := rep.MarshalV(nil)
	joined := make([]byte, 0, len(m))
	for _, s := range segs {
		joined = append(joined, s...)
	}
	if !bytes.Equal(joined, m) {
		t.Fatal("reply MarshalV diverges from Marshal")
	}
	if rep.WireLen() != len(m) {
		t.Fatalf("reply WireLen %d != %d", rep.WireLen(), len(m))
	}
	// Large payloads must be referenced, not copied, by MarshalV.
	found := false
	for _, s := range segs {
		if len(s) > 0 && len(rep.Results[0].Data) > 0 && &s[0] == &rep.Results[0].Data[0] {
			found = true
		}
	}
	if !found {
		t.Fatal("large payload was copied instead of referenced")
	}
}

func TestBasicWriteRead(t *testing.T) {
	_, cl := testCluster(t)
	data := bytes.Repeat([]byte{0x5C}, 8192)
	if _, err := cl.Write(0, "rbd", "obj1", SnapContext{}, 0, data); err != nil {
		t.Fatal(err)
	}
	got, _, err := cl.Read(0, "rbd", "obj1", 0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestReadMissingObject(t *testing.T) {
	_, cl := testCluster(t)
	if _, _, err := cl.Read(0, "rbd", "ghost", 0, 16); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

func TestStatAndDelete(t *testing.T) {
	_, cl := testCluster(t)
	if _, err := cl.Write(0, "rbd", "obj", SnapContext{}, 100, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	sz, _, err := cl.Stat(0, "rbd", "obj")
	if err != nil || sz != 103 {
		t.Fatalf("stat: %d %v", sz, err)
	}
	if _, err := cl.Delete(0, "rbd", "obj"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Stat(0, "rbd", "obj"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

// The paper's §3.1 requirement: data + OMAP (IV) in one atomic request.
func TestAtomicDataPlusOmapTxn(t *testing.T) {
	_, cl := testCluster(t)
	iv := bytes.Repeat([]byte{9}, 16)
	res, _, err := cl.Operate(0, "rbd", "obj", SnapContext{}, 0, []Op{
		{Kind: OpWrite, Off: 0, Data: bytes.Repeat([]byte{1}, 4096)},
		{Kind: OpOmapSet, Pairs: []Pair{{Key: []byte("iv.0"), Value: iv}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Status != StatusOK {
			t.Fatalf("op %d: %v", i, r.Status)
		}
	}
	res, _, err = cl.Operate(0, "rbd", "obj", SnapContext{}, 0, []Op{
		{Kind: OpOmapGetRange, Key: []byte("iv."), Key2: []byte("iv/")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Pairs) != 1 || !bytes.Equal(res[0].Pairs[0].Value, iv) {
		t.Fatalf("omap readback: %+v", res[0].Pairs)
	}
}

func TestAttrOps(t *testing.T) {
	_, cl := testCluster(t)
	if _, _, err := cl.Operate(0, "rbd", "hdr", SnapContext{}, 0, []Op{
		{Kind: OpSetAttr, Key: []byte("size"), Data: []byte("1073741824")},
	}); err != nil {
		t.Fatal(err)
	}
	res, _, err := cl.Operate(0, "rbd", "hdr", SnapContext{}, 0, []Op{
		{Kind: OpGetAttr, Key: []byte("size")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(res[0].Data) != "1073741824" {
		t.Fatalf("attr = %q", res[0].Data)
	}
}

// Replication: the payload must land on every replica's disks.
func TestReplicationFanout(t *testing.T) {
	c, cl := testCluster(t)
	data := bytes.Repeat([]byte{7}, 64<<10)
	if _, err := cl.Write(0, "rbd", "obj", SnapContext{}, 0, data); err != nil {
		t.Fatal(err)
	}
	// With 3-way replication the cluster-wide written bytes are >= 3x the
	// payload (data + journal copies).
	blob := c.BlobStats()
	if blob.BytesWritten < 3*int64(len(data)) {
		t.Fatalf("replication missing: %d bytes written for %d payload", blob.BytesWritten, len(data))
	}
	if blob.Txns < 3 {
		t.Fatalf("expected >=3 replica txns, got %d", blob.Txns)
	}
}

func TestSnapshotCloneOnWrite(t *testing.T) {
	_, cl := testCluster(t)
	v1 := bytes.Repeat([]byte{1}, 4096)
	v2 := bytes.Repeat([]byte{2}, 4096)
	v3 := bytes.Repeat([]byte{3}, 4096)

	// Write v1 with no snapshots.
	if _, err := cl.Write(0, "rbd", "obj", SnapContext{}, 0, v1); err != nil {
		t.Fatal(err)
	}
	// Snapshot 1 taken; write v2 under snapc{1}.
	if _, err := cl.Write(0, "rbd", "obj", SnapContext{Seq: 1}, 0, v2); err != nil {
		t.Fatal(err)
	}
	// Snapshot 2 taken; write v3 under snapc{2}.
	if _, err := cl.Write(0, "rbd", "obj", SnapContext{Seq: 2}, 0, v3); err != nil {
		t.Fatal(err)
	}

	head, _, err := cl.Read(0, "rbd", "obj", 0, 4096)
	if err != nil || !bytes.Equal(head, v3) {
		t.Fatalf("head: %v", err)
	}
	s1, _, err := cl.ReadSnap(0, "rbd", "obj", 1, 0, 4096)
	if err != nil || !bytes.Equal(s1, v1) {
		t.Fatalf("snap1 should see v1: %v", err)
	}
	s2, _, err := cl.ReadSnap(0, "rbd", "obj", 2, 0, 4096)
	if err != nil || !bytes.Equal(s2, v2) {
		t.Fatalf("snap2 should see v2: %v", err)
	}
}

func TestSnapshotUnmodifiedObjectServedByHead(t *testing.T) {
	_, cl := testCluster(t)
	v1 := []byte("stable")
	if _, err := cl.Write(0, "rbd", "obj", SnapContext{}, 0, v1); err != nil {
		t.Fatal(err)
	}
	// Snapshot 5 exists but the object is never rewritten.
	got, _, err := cl.ReadSnap(0, "rbd", "obj", 5, 0, int64(len(v1)))
	if err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("snap read through head: %q %v", got, err)
	}
}

func TestSnapshotObjectCreatedAfterSnap(t *testing.T) {
	_, cl := testCluster(t)
	//

	// Object first created under snapc{3}: snapshots 1..3 predate it.
	if _, err := cl.Write(0, "rbd", "newobj", SnapContext{Seq: 3}, 0, []byte("late")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.ReadSnap(0, "rbd", "newobj", 2, 0, 4); !errors.Is(err, ErrNotFound) {
		t.Fatalf("snapshot older than object should be ENOENT, got %v", err)
	}
	// But the snapshot taken at/after creation sees it.
	got, _, err := cl.ReadSnap(0, "rbd", "newobj", 4, 0, 4)
	if err != nil || string(got) != "late" {
		t.Fatalf("later snap: %q %v", got, err)
	}
}

func TestSnapshotOmapCloned(t *testing.T) {
	// IVs must version together with data across snapshots, or random-IV
	// decryption of old snapshots would break.
	_, cl := testCluster(t)
	put := func(snapSeq uint64, iv string) {
		t.Helper()
		_, _, err := cl.Operate(0, "rbd", "obj", SnapContext{Seq: snapSeq}, 0, []Op{
			{Kind: OpWrite, Off: 0, Data: bytes.Repeat([]byte{byte(snapSeq)}, 512)},
			{Kind: OpOmapSet, Pairs: []Pair{{Key: []byte("iv.0"), Value: []byte(iv)}}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	put(0, "iv-v1")
	put(1, "iv-v2") // snapshot 1 preserves iv-v1

	res, _, err := cl.Operate(0, "rbd", "obj", SnapContext{}, 1, []Op{
		{Kind: OpOmapGetRange, Key: []byte("iv."), Key2: []byte("iv/")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Pairs) != 1 || string(res[0].Pairs[0].Value) != "iv-v1" {
		t.Fatalf("snapshot omap: %+v", res[0].Pairs)
	}
}

func TestVirtualTimeAdvances(t *testing.T) {
	_, cl := testCluster(t)
	end, err := cl.Write(1000, "rbd", "obj", SnapContext{}, 0, make([]byte, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if end <= 1000 {
		t.Fatalf("end %d not after arrival", end)
	}
	// A read arriving later completes later.
	_, end2, err := cl.Read(end, "rbd", "obj", 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if end2 <= end {
		t.Fatalf("read end %d not after %d", end2, end)
	}
}

// TestSingleClientVirtualTimeIsDeterministic pins what vtime.Join buys:
// one goroutine's virtual time is a pure function of the cost model. The
// same overlapping replicated write+OMAP sequence on two fresh clusters
// must end every op at the same instant, whatever the host scheduler
// does. Each op arrives a third of the way into the previous one, so
// consecutive ops queue on shared CPUs, NICs and disks and any
// host-ordered reservation shows up as a moved end time.
func TestSingleClientVirtualTimeIsDeterministic(t *testing.T) {
	// A sampled request's reply carries its hops on the wire and
	// WireLen charges them, so which ops the process-global 1-in-64 tick
	// picks moves virtual time (ROADMAP item 3). Pin it off.
	telemetry.Ops.SetSampleEvery(1 << 30)
	defer telemetry.Ops.SetSampleEvery(64)

	const ops, objects = 400, 13
	run := func() []vtime.Time {
		_, cl := testCluster(t)
		data := bytes.Repeat([]byte{0xC3}, 8192)
		iv := bytes.Repeat([]byte{0xAB}, 16)
		ends := make([]vtime.Time, ops)
		var at vtime.Time
		for i := range ends {
			obj := fmt.Sprintf("det-%d", i%objects)
			_, end, err := cl.Operate(at, "rbd", obj, SnapContext{}, 0, []Op{
				{Kind: OpWrite, Off: int64(i%7) * 4096, Data: data},
				{Kind: OpOmapSet, Pairs: []Pair{{Key: []byte(fmt.Sprintf("iv.%d", i%7)), Value: iv}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			ends[i] = end
			at += vtime.Time(end.Sub(at) / 3)
		}
		return ends
	}
	a, b := run(), run()
	differ := 0
	for i := range a {
		if a[i] != b[i] {
			differ++
		}
	}
	if differ != 0 {
		t.Fatalf("%d of %d end times differ between two identical single-goroutine runs", differ, ops)
	}
}

func TestConcurrentClientsSameObject(t *testing.T) {
	_, cl := testCluster(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte(i)}, 4096)
			if _, err := cl.Write(0, "rbd", "hot", SnapContext{}, int64(i)*4096, data); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All 16 stripes readable.
	for i := 0; i < 16; i++ {
		got, _, err := cl.Read(0, "rbd", "hot", int64(i)*4096, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 4096)) {
			t.Fatalf("stripe %d corrupted", i)
		}
	}
}

func TestPlacementSpreadsObjects(t *testing.T) {
	c, cl := testCluster(t)
	for i := 0; i < 60; i++ {
		name := fmt.Sprintf("rbd_data.img.%04d", i)
		if _, err := cl.Write(0, "rbd", name, SnapContext{}, 0, make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	// Every OSD must hold data (3x replication over 3 OSDs means all of
	// them, but check real placement not just replication).
	for _, osd := range c.OSDs() {
		total := 0
		for _, st := range osd.Stores() {
			total += len(st.List())
		}
		if total == 0 {
			t.Fatalf("osd%d holds no objects", osd.ID())
		}
	}
}

func TestMixedReadWriteRejected(t *testing.T) {
	_, cl := testCluster(t)
	if _, err := cl.Write(0, "rbd", "obj", SnapContext{}, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	_, _, err := cl.Operate(0, "rbd", "obj", SnapContext{}, 0, []Op{
		{Kind: OpWrite, Off: 0, Data: []byte("y")},
		{Kind: OpRead, Off: 0, Len: 1},
	})
	if err == nil {
		t.Fatal("mixed read/write request should be rejected")
	}
}

func TestRandomizedAgainstModelWithSnapshots(t *testing.T) {
	_, cl := testCluster(t)
	rng := rand.New(rand.NewSource(31))
	const objSize = 64 << 10
	head := make([]byte, objSize)
	snaps := map[uint64][]byte{}
	var snapSeq uint64
	written := false

	for step := 0; step < 300; step++ {
		switch r := rng.Intn(10); {
		case r < 5: // write
			off := rng.Int63n(objSize - 1)
			n := rng.Intn(8192) + 1
			if off+int64(n) > objSize {
				n = int(objSize - off)
			}
			data := make([]byte, n)
			rng.Read(data)
			if _, err := cl.Write(0, "rbd", "model", SnapContext{Seq: snapSeq}, off, data); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			copy(head[off:], data)
			written = true
		case r < 8: // read head
			if !written {
				continue
			}
			off := rng.Int63n(objSize - 1)
			n := rng.Intn(8192) + 1
			if off+int64(n) > objSize {
				n = int(objSize - off)
			}
			got, _, err := cl.Read(0, "rbd", "model", off, int64(n))
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if !bytes.Equal(got, head[off:off+int64(n)]) {
				t.Fatalf("step %d: head read mismatch", step)
			}
		case r == 8 && written: // take snapshot
			snapSeq++
			snaps[snapSeq] = append([]byte(nil), head...)
		default: // read a random snapshot
			if len(snaps) == 0 {
				continue
			}
			id := uint64(rng.Intn(int(snapSeq))) + 1
			want := snaps[id]
			got, _, err := cl.ReadSnap(0, "rbd", "model", id, 0, objSize)
			if err != nil {
				t.Fatalf("step %d: snap %d: %v", step, id, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: snapshot %d diverged", step, id)
			}
		}
	}
}

func TestClusterConfigValidation(t *testing.T) {
	bad := DefaultClusterConfig()
	bad.OSDs = 0
	if _, err := NewCluster(bad); err == nil {
		t.Fatal("0 OSDs accepted")
	}
	bad = DefaultClusterConfig()
	bad.Replicas = 5
	bad.OSDs = 3
	if _, err := NewCluster(bad); err == nil {
		t.Fatal("replicas > OSDs accepted")
	}
	bad = DefaultClusterConfig()
	bad.PGNum = 0
	if _, err := NewCluster(bad); err == nil {
		t.Fatal("PGNum 0 accepted")
	}
}
