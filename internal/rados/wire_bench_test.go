package rados

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/msgr"
	"repro/internal/simdisk"
	"repro/internal/telemetry"
	"repro/internal/vtime"
)

// byteOnlyConn hides a connection's typed fast path, forcing the byte
// codec — the loopback compatibility oracle.
type byteOnlyConn struct{ msgr.Conn }

// benchClusterConfig sizes a small cluster for wire-path measurements.
func benchClusterConfig(osds, replicas int) ClusterConfig {
	cfg := DefaultClusterConfig()
	cfg.OSDs = osds
	cfg.Replicas = replicas
	cfg.DisksPerOSD = 1
	cfg.DiskSectors = (1 << 30) / simdisk.SectorSize
	cfg.PGNum = 16
	cfg.Blob.ObjectCapacity = 4 << 20
	cfg.Blob.KVBytes = 256 << 20
	cfg.Blob.KV.MemtableBytes = 4 << 20
	cfg.Blob.KV.WALBytes = 16 << 20
	return cfg
}

func newWireCluster(tb testing.TB, osds, replicas int) (*Cluster, *Client) {
	tb.Helper()
	c, err := NewCluster(benchClusterConfig(osds, replicas))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	return c, c.NewClient("bench-client")
}

// byteClient returns a client whose connections refuse typed dispatch,
// so every request crosses the scatter-gather byte codec.
func byteClient(cl *Client) *Client {
	conns := make(map[int]msgr.Conn, len(cl.conns))
	for id, conn := range cl.conns {
		conns[id] = byteOnlyConn{conn}
	}
	return &Client{cmap: cl.cmap, conns: conns}
}

// bytePeers rewires every OSD's replication connections byte-only, so the
// primary→replica leg crosses the codec as well as the client's.
func bytePeers(c *Cluster) {
	for _, o := range c.OSDs() {
		for id, conn := range o.peers {
			o.SetPeer(id, byteOnlyConn{conn})
		}
	}
}

// BenchmarkWireRoundtrip measures the client↔OSD wire path end to end.
// The in-process sub-benchmarks are the zero-copy fast path: with
// -benchmem, their B/op must stay payload-independent (no payload-sized
// copies or allocations per op in steady state — the CI benchmark gate
// pins this). The bytecodec sub-benchmarks run the identical ops through
// the scatter-gather byte encoding for comparison.
func BenchmarkWireRoundtrip(b *testing.B) {
	for _, size := range []int64{4096, 65536} {
		_, typed := newWireCluster(b, 1, 1)
		byteCl := byteClient(typed)
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i)
		}
		dst := make([]byte, size)

		run := func(name string, cl *Client, useDst bool) {
			// Steady state: object exists, caches warm.
			if _, err := cl.Write(0, "rbd", "obj", SnapContext{}, 0, data); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/write/%dB", name, size), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(size)
				for i := 0; i < b.N; i++ {
					if _, err := cl.Write(0, "rbd", "obj", SnapContext{}, 0, data); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/read/%dB", name, size), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(size)
				ops := []Op{{Kind: OpRead, Off: 0, Len: size}}
				if useDst {
					ops[0].Dst = dst
				}
				for i := 0; i < b.N; i++ {
					res, _, err := cl.Operate(0, "rbd", "obj", SnapContext{}, 0, ops)
					if err != nil {
						b.Fatal(err)
					}
					if res[0].Status != StatusOK {
						b.Fatal(res[0].Status)
					}
				}
			})
		}
		run("inproc", typed, true)
		run("bytecodec", byteCl, false)
	}

	// Replicated write over the typed path: the forward shares the
	// request payload by reference with every replica.
	_, typed := newWireCluster(b, 3, 3)
	data := make([]byte, 65536)
	if _, err := typed.Write(0, "rbd", "obj", SnapContext{}, 0, data); err != nil {
		b.Fatal(err)
	}
	b.Run("inproc/write-replicated/65536B", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(65536)
		for i := 0; i < b.N; i++ {
			if _, err := typed.Write(0, "rbd", "obj", SnapContext{}, 0, data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestInProcRoundtripAllocBudget is the allocation budget behind the
// zero-copy claim: on the in-process fast path, a write+read round trip
// must perform zero payload-sized heap allocations — the per-op
// allocation count stays flat as the payload grows 16x, and the
// allocated bytes per op stay far below one payload.
func TestInProcRoundtripAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting under -short")
	}
	_, cl := newWireCluster(t, 1, 1)

	roundtrip := func(data, dst []byte) {
		if _, err := cl.Write(0, "rbd", "obj", SnapContext{}, 0, data); err != nil {
			t.Fatal(err)
		}
		res, _, err := cl.Operate(0, "rbd", "obj", SnapContext{}, 0,
			[]Op{{Kind: OpRead, Off: 0, Len: int64(len(dst)), Dst: dst}})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Status != StatusOK {
			t.Fatal(res[0].Status)
		}
	}

	measure := func(size int64) (allocsPerOp, bytesPerOp float64) {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i * 7)
		}
		dst := make([]byte, size)
		// Warm the object, locks, snapinfo and buffer pools.
		for i := 0; i < 8; i++ {
			roundtrip(data, dst)
		}
		const rounds = 100
		allocsPerOp = testing.AllocsPerRun(rounds, func() { roundtrip(data, dst) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			roundtrip(data, dst)
		}
		runtime.ReadMemStats(&after)
		bytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / rounds
		if !bytes.Equal(data, dst) {
			t.Fatal("round trip corrupted payload")
		}
		return allocsPerOp, bytesPerOp
	}

	allocs4k, bytes4k := measure(4096)
	allocs64k, bytes64k := measure(65536)
	t.Logf("4 KiB: %.1f allocs/op, %.0f B/op; 64 KiB: %.1f allocs/op, %.0f B/op",
		allocs4k, bytes4k, allocs64k, bytes64k)

	// Payload independence: growing the payload 16x must not add
	// allocations (a single payload copy anywhere would).
	if allocs64k > allocs4k+2 {
		t.Errorf("allocs/op scale with payload: %.1f at 4 KiB vs %.1f at 64 KiB", allocs4k, allocs64k)
	}
	// Absolute budget: a 64 KiB write + 64 KiB read round trip moves
	// 128 KiB of payload; the fixed per-op bookkeeping (request/reply
	// structs, results, KV batch entries, WAL staging) must stay under a
	// small fraction of one payload.
	if bytes64k > 16<<10 {
		t.Errorf("allocated %.0f B/op for a 64 KiB round trip — payload-sized copy on the fast path?", bytes64k)
	}
}

// TestTypedBytePathParity drives identical clusters through the two wire
// forms with the same op sequence: results and virtual completion times
// must match exactly, because the typed path charges WireLen — the
// precise byte-codec size — to the same cost model. The byte form is
// held to it on the client leg alone and on every leg (replication
// forwards included).
func TestTypedBytePathParity(t *testing.T) {
	defer telemetry.Ops.SetSampleEvery(64)

	typedCluster, typedCl := newWireCluster(t, 3, 3)
	byteCluster, rawCl := newWireCluster(t, 3, 3)
	allByteCluster, rawAllCl := newWireCluster(t, 3, 3)
	bytePeers(allByteCluster)
	forms := []struct {
		name string
		c    *Cluster
		cl   *Client
	}{
		{"typed", typedCluster, typedCl},
		{"byte-client", byteCluster, byteClient(rawCl)},
		{"byte-all", allByteCluster, byteClient(rawAllCl)},
	}

	const obj = "parity-obj"
	// A replica, not the primary: the spiked step slows the
	// primary→replica leg.
	straggler := typedCl.ReplicasFor("rbd", obj)[1]

	type step struct {
		name string
		ops  []Op
		snap SnapContext
		// traced samples every twin of the step; spiked slows the
		// straggler past the slow threshold.
		traced, spiked bool
	}
	iv := bytes.Repeat([]byte{0xAB}, 16)
	steps := []step{
		{name: "write-4k", ops: []Op{{Kind: OpWrite, Off: 0, Data: bytes.Repeat([]byte{1}, 4096)}}},
		{name: "write-omap", ops: []Op{
			{Kind: OpWrite, Off: 4096, Data: bytes.Repeat([]byte{2}, 8192)},
			{Kind: OpOmapSet, Pairs: []Pair{{Key: []byte("iv.0"), Value: iv}, {Key: []byte("iv.1"), Value: iv}}},
		}},
		{name: "snap-write", ops: []Op{{Kind: OpWrite, Off: 0, Data: bytes.Repeat([]byte{3}, 4096)}}, snap: SnapContext{Seq: 1}},
		{name: "traced-write", ops: []Op{{Kind: OpWrite, Off: 0, Data: bytes.Repeat([]byte{4}, 4096)}}, snap: SnapContext{Seq: 1}, traced: true},
		{name: "read", ops: []Op{{Kind: OpRead, Off: 0, Len: 12288}}},
		{name: "omap-range", ops: []Op{{Kind: OpOmapGetRange, Key: []byte("iv."), Key2: []byte("iv/")}}},
		{name: "stat-attr", ops: []Op{{Kind: OpStat}}},
		{name: "spiked-write", ops: []Op{{Kind: OpWrite, Off: 0, Data: bytes.Repeat([]byte{5}, 4096)}}, snap: SnapContext{Seq: 1}, spiked: true},
	}

	at := vtime.Time(0)
	for _, s := range steps {
		if s.traced {
			telemetry.Ops.SetSampleEvery(1)
		}
		var disarm []func()
		if s.spiked {
			for _, f := range forms {
				disarm = append(disarm, spikeOSD(f.c, straggler, 30*time.Millisecond))
			}
		}
		resT, endT, errT := typedCl.Operate(at, "rbd", obj, s.snap, 0, s.ops)
		for f := 1; f < len(forms); f++ {
			where := s.name + "/" + forms[f].name
			res, end, err := forms[f].cl.Operate(at, "rbd", obj, s.snap, 0, s.ops)
			if (errT == nil) != (err == nil) {
				t.Fatalf("%s: error divergence: typed=%v byte=%v", where, errT, err)
			}
			if errT != nil {
				continue
			}
			if end != endT {
				t.Errorf("%s: virtual time diverged: typed=%d byte=%d", where, endT, end)
			}
			if len(resT) != len(res) {
				t.Fatalf("%s: result count diverged", where)
			}
			for i := range resT {
				if resT[i].Status != res[i].Status || resT[i].Size != res[i].Size {
					t.Errorf("%s op %d: status/size diverged: %+v vs %+v", where, i, resT[i], res[i])
				}
				if !bytes.Equal(resT[i].Data, res[i].Data) {
					t.Errorf("%s op %d: data diverged", where, i)
				}
				if len(resT[i].Pairs) != len(res[i].Pairs) {
					t.Errorf("%s op %d: pair count diverged", where, i)
					continue
				}
				for j := range resT[i].Pairs {
					if !bytes.Equal(resT[i].Pairs[j].Key, res[i].Pairs[j].Key) ||
						!bytes.Equal(resT[i].Pairs[j].Value, res[i].Pairs[j].Value) {
						t.Errorf("%s op %d pair %d diverged", where, i, j)
					}
				}
			}
		}
		telemetry.Ops.SetSampleEvery(64)
		for _, d := range disarm {
			d()
		}
		at = endT
	}
}

// TestReadIntoDst pins the Dst contract: the in-process read lands in
// the caller's buffer (result data aliases it), sparse reads still
// report NotFound without touching presence semantics, and a byte-codec
// read of the same object returns identical bytes even though Dst never
// crosses the wire.
func TestReadIntoDst(t *testing.T) {
	_, cl := newWireCluster(t, 1, 1)
	data := bytes.Repeat([]byte{0x5A}, 8192)
	if _, err := cl.Write(0, "rbd", "obj", SnapContext{}, 0, data); err != nil {
		t.Fatal(err)
	}

	dst := make([]byte, 8192)
	res, _, err := cl.Operate(0, "rbd", "obj", SnapContext{}, 0,
		[]Op{{Kind: OpRead, Off: 0, Len: 8192, Dst: dst}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != StatusOK {
		t.Fatal(res[0].Status)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("Dst not filled by in-process read")
	}
	if len(res[0].Data) != len(dst) || &res[0].Data[0] != &dst[0] {
		t.Fatal("in-process read result should alias Dst")
	}

	// Byte codec: Dst must not cross the wire; the server allocates.
	byteCl := byteClient(cl)
	res, _, err = byteCl.Operate(0, "rbd", "obj", SnapContext{}, 0,
		[]Op{{Kind: OpRead, Off: 0, Len: 8192, Dst: dst}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res[0].Data, data) {
		t.Fatal("byte-codec read diverged")
	}
	if &res[0].Data[0] == &dst[0] {
		t.Fatal("byte-codec read cannot alias a client-local buffer")
	}

	// Missing object: Dst contents are unspecified, status tells.
	res, _, err = cl.Operate(0, "rbd", "ghost", SnapContext{}, 0,
		[]Op{{Kind: OpRead, Off: 0, Len: 4096, Dst: make([]byte, 4096)}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Status != StatusNotFound {
		t.Fatalf("ghost read: %v", res[0].Status)
	}
}
