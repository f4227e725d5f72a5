package kvstore

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/simdisk"
)

// BenchmarkLSMOmapBatch applies the OMAP write's commit batch (an onode,
// a snapset attr and 16 ascending IV keys) to a store whose 128 KiB
// memtable flushes every few dozen batches, so the loop pays for the
// inserts, flushes, table builds, bloom filters and compactions the
// benchmark's randwrite-64k-gcm-omap workload pays for. Each store is
// warmed off the clock until its next flush compacts, so even a 100x run
// measures one flush and one compaction, and is replaced, off the clock,
// before its append-only segment space runs out.
func BenchmarkLSMOmapBatch(b *testing.B) {
	cfg := Config{MemtableBytes: 128 << 10, WALBytes: 1 << 20}
	const diskMiB, spaceLimit = 64, 48 << 20
	rng := rand.New(rand.NewSource(1))
	objs := make([]string, 64)
	for i := range objs {
		objs[i] = fmt.Sprintf("rbd_data.10226b8b4567.%016x", i)
	}
	var (
		s     *Store
		batch Batch
		key   []byte
	)
	onode, snapset, iv := make([]byte, 44), make([]byte, 14), make([]byte, 28)
	apply := func() {
		obj := objs[rng.Intn(len(objs))]
		batch.Reset()
		key = append(append(key[:0], "O/"...), obj...)
		batch.Put(key, onode)
		key = append(append(append(key[:0], "A/"...), obj...), "\x00rados.snapset"...)
		batch.Put(key, snapset)
		first := uint64(rng.Intn(64)) * 16
		for j := uint64(0); j < 16; j++ {
			key = binary.BigEndian.AppendUint64(append(append(append(key[:0], "M/"...), obj...), "\x00iv."...), first+j)
			batch.Put(key, iv)
		}
		if _, err := s.Apply(0, &batch); err != nil {
			b.Fatal(err)
		}
	}
	open := func() {
		d := simdisk.New("kv", diskMiB*256, simdisk.DefaultCostModel())
		var err error
		if s, _, err = Open(0, simdisk.NewPartition(d, 0, d.Sectors()), cfg); err != nil {
			b.Fatal(err)
		}
		for s.Stats().Flushes < int64(s.cfg.Fanout-1) {
			apply()
		}
	}
	open()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.SpaceUsed() > spaceLimit {
			b.StopTimer()
			open()
			b.StartTimer()
		}
		apply()
	}
}
