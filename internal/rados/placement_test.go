package rados

import (
	"slices"
	"testing"

	"repro/internal/crush"
	"repro/internal/simdisk"
)

// TestPlacementTableMatchesCrush: stored data is addressed by the replica
// sets, so the table built with the map must hold, for every PG, exactly
// the set crush.OSDsForPG computes, primary first — for the paper's
// cluster and for shapes with more OSDs than replicas.
func TestPlacementTableMatchesCrush(t *testing.T) {
	paper := DefaultClusterConfig()
	for _, shape := range []struct{ osds, replicas, pgNum int }{
		{paper.OSDs, paper.Replicas, paper.PGNum},
		{5, 3, 64},
		{8, 2, 100},
		{4, 1, 7},
	} {
		m := newClusterMap(shape.pgNum, shape.replicas, shape.osds)
		if len(m.OSDIDs) != shape.osds || len(m.sets) != shape.pgNum {
			t.Fatalf("%+v: %d OSDs, %d table rows", shape, len(m.OSDIDs), len(m.sets))
		}
		for pg := 0; pg < shape.pgNum; pg++ {
			want := crush.OSDsForPG(pg, m.OSDIDs, shape.replicas)
			if got := m.OSDsFor(pg); !slices.Equal(got, want) || len(got) != shape.replicas {
				t.Fatalf("%+v pg %d: table %v, crush %v", shape, pg, got, want)
			}
		}
	}

	// The running cluster routes by the same table.
	c, _ := testCluster(t)
	for pg := 0; pg < c.cmap.PGNum; pg++ {
		if got, want := c.cmap.OSDsFor(pg), crush.OSDsForPG(pg, c.cmap.OSDIDs, c.cmap.Replicas); !slices.Equal(got, want) {
			t.Fatalf("cluster pg %d: table %v, crush %v", pg, got, want)
		}
	}
}

// TestReplicasForIsACopy: a caller that edits the replica list it was
// handed must not move placement for anyone else — the next ReplicasFor,
// the primary routing of writes and the replica fan-out all keep the
// table's set.
func TestReplicasForIsACopy(t *testing.T) {
	// Two copies on four OSDs, so a moved set would land elsewhere.
	cfg := DefaultClusterConfig()
	cfg.OSDs, cfg.Replicas, cfg.DisksPerOSD, cfg.PGNum = 4, 2, 1, 16
	cfg.DiskSectors = (256 << 20) / simdisk.SectorSize
	cfg.Blob.ObjectCapacity = 1 << 20
	cfg.Blob.KVBytes = 32 << 20
	cfg.Blob.KV.MemtableBytes = 256 << 10
	cfg.Blob.KV.WALBytes = 4 << 20
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl := c.NewClient("client0")
	const obj = "rbd_data.img.0001"
	orig := cl.ReplicasFor("rbd", obj)
	mutated := cl.ReplicasFor("rbd", obj)
	slices.Reverse(mutated)
	mutated[0] = -1
	if again := cl.ReplicasFor("rbd", obj); !slices.Equal(again, orig) {
		t.Fatalf("after editing a copy ReplicasFor = %v, want %v", again, orig)
	}
	if _, err := cl.Write(0, "rbd", obj, SnapContext{}, 0, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	holders := map[int]bool{}
	for _, osd := range c.OSDs() {
		for _, st := range osd.Stores() {
			if st.Exists("rbd/" + obj) {
				holders[osd.ID()] = true
			}
		}
	}
	for _, id := range orig {
		if !holders[id] {
			t.Fatalf("osd%d of the replica set %v holds no copy (holders %v)", id, orig, holders)
		}
	}
	if len(holders) != len(orig) {
		t.Fatalf("copies on %v, replica set %v", holders, orig)
	}
	if row := c.cmap.OSDsFor(c.cmap.PG("rbd", obj)); !slices.Equal(row, orig) {
		t.Fatalf("table row %v, want %v", row, orig)
	}
}
