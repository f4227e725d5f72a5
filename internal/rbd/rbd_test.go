package rbd

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/rados"
	"repro/internal/simdisk"
)

func testClient(t *testing.T) *rados.Client {
	t.Helper()
	cfg := rados.DefaultClusterConfig()
	cfg.OSDs = 3
	cfg.DisksPerOSD = 2
	cfg.DiskSectors = (768 << 20) / simdisk.SectorSize
	cfg.PGNum = 16
	cfg.Blob.ObjectCapacity = 1<<20 + 64<<10
	cfg.Blob.KVBytes = 64 << 20
	cfg.Blob.KV.MemtableBytes = 256 << 10
	cfg.Blob.KV.WALBytes = 4 << 20
	c, err := rados.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c.NewClient("rbd-test")
}

func testImage(t *testing.T, size int64) *Image {
	t.Helper()
	cl := testClient(t)
	if _, err := CreateWithObjectSize(0, cl, "rbd", "img", size, 1<<20); err != nil {
		t.Fatal(err)
	}
	img, _, err := Open(0, cl, "rbd", "img")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestCreateOpen(t *testing.T) {
	cl := testClient(t)
	if _, err := Create(0, cl, "rbd", "disk1", 64<<20); err != nil {
		t.Fatal(err)
	}
	img, _, err := Open(0, cl, "rbd", "disk1")
	if err != nil {
		t.Fatal(err)
	}
	if img.Size() != 64<<20 || img.ObjectSize() != DefaultObjectSize {
		t.Fatalf("geometry %d/%d", img.Size(), img.ObjectSize())
	}
	// Duplicate create fails.
	if _, err := Create(0, cl, "rbd", "disk1", 1<<20); !errors.Is(err, ErrExists) {
		t.Fatalf("got %v", err)
	}
	// Open of missing image fails.
	if _, _, err := Open(0, cl, "rbd", "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

func TestBadGeometry(t *testing.T) {
	cl := testClient(t)
	if _, err := Create(0, cl, "rbd", "x", 0); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := CreateWithObjectSize(0, cl, "rbd", "x", 1<<20, 5000); err == nil {
		t.Fatal("unaligned object size accepted")
	}
}

func TestWriteReadWithinObject(t *testing.T) {
	img := testImage(t, 8<<20)
	data := bytes.Repeat([]byte{0xCD}, 8192)
	if _, err := img.WriteAt(0, data, 4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8192)
	if _, err := img.ReadAt(0, got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip failed")
	}
}

func TestWriteReadAcrossObjects(t *testing.T) {
	img := testImage(t, 8<<20)
	// Span three 1 MiB objects.
	data := make([]byte, 2<<20+12345)
	rand.New(rand.NewSource(3)).Read(data)
	off := int64(1<<20 - 777)
	if _, err := img.WriteAt(0, data, off); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := img.ReadAt(0, got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-object round trip failed")
	}
}

func TestReadHolesAreZero(t *testing.T) {
	img := testImage(t, 4<<20)
	if _, err := img.WriteAt(0, []byte("data"), 2<<20); err != nil {
		t.Fatal(err)
	}
	// The read lands in the caller's buffer directly, so holes must be
	// zeroed there: start from a dirty one. The range covers a missing
	// object (1) and the unwritten tail of a written one (2).
	got := bytes.Repeat([]byte{0xFF}, 12288)
	if _, err := img.ReadAt(0, got, 2<<20-4096); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, len(got))
	copy(want[4096:], "data")
	if !bytes.Equal(got, want) {
		t.Fatal("hole not zero")
	}
}

func TestBoundsChecked(t *testing.T) {
	img := testImage(t, 1<<20)
	if _, err := img.WriteAt(0, make([]byte, 4096), 1<<20-100); !errors.Is(err, ErrBounds) {
		t.Fatalf("got %v", err)
	}
	if _, err := img.ReadAt(0, make([]byte, 10), -5); !errors.Is(err, ErrBounds) {
		t.Fatalf("got %v", err)
	}
}

func TestObjectMapping(t *testing.T) {
	img := testImage(t, 8<<20)
	idx, off := img.ObjectFor(3<<20 + 500)
	if idx != 3 || off != 500 {
		t.Fatalf("mapping %d/%d", idx, off)
	}
	if img.ObjectName(3) != "rbd_data.img.0000000000000003" {
		t.Fatalf("name %q", img.ObjectName(3))
	}
}

func TestSnapshotsEndToEnd(t *testing.T) {
	img := testImage(t, 2<<20)
	v1 := bytes.Repeat([]byte{1}, 4096)
	v2 := bytes.Repeat([]byte{2}, 4096)
	if _, err := img.WriteAt(0, v1, 0); err != nil {
		t.Fatal(err)
	}
	id, _, err := img.CreateSnap(0, "before")
	if err != nil || id != 1 {
		t.Fatalf("snap: %d %v", id, err)
	}
	if _, err := img.WriteAt(0, v2, 0); err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 4096)
	if _, err := img.ReadAt(0, head, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(head, v2) {
		t.Fatal("head should be v2")
	}
	snap := make([]byte, 4096)
	if _, err := img.ReadAtSnap(0, snap, 0, id); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, v1) {
		t.Fatal("snapshot should preserve v1")
	}
	// Name resolution + duplicate detection.
	if got, err := img.SnapID("before"); err != nil || got != id {
		t.Fatalf("SnapID: %d %v", got, err)
	}
	if _, _, err := img.CreateSnap(0, "before"); !errors.Is(err, ErrExists) {
		t.Fatalf("got %v", err)
	}
	if _, err := img.SnapID("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
	if snaps := img.Snaps(); len(snaps) != 1 || snaps[0].Name != "before" {
		t.Fatalf("snaps %v", snaps)
	}
}

func TestSnapshotPersistsAcrossOpen(t *testing.T) {
	cl := testClient(t)
	if _, err := CreateWithObjectSize(0, cl, "rbd", "img", 1<<20, 1<<20); err != nil {
		t.Fatal(err)
	}
	img, _, err := Open(0, cl, "rbd", "img")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := img.WriteAt(0, []byte("v1"), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := img.CreateSnap(0, "s1"); err != nil {
		t.Fatal(err)
	}
	img2, _, err := Open(0, cl, "rbd", "img")
	if err != nil {
		t.Fatal(err)
	}
	if img2.SnapContext().Seq != 1 {
		t.Fatalf("snap seq %d after reopen", img2.SnapContext().Seq)
	}
	if len(img2.Snaps()) != 1 {
		t.Fatal("snap list lost")
	}
}

func TestEncryptionBlobRoundTrip(t *testing.T) {
	cl := testClient(t)
	if _, err := Create(0, cl, "rbd", "img", 4<<20); err != nil {
		t.Fatal(err)
	}
	img, _, err := Open(0, cl, "rbd", "img")
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte(`{"luks":"header"}`)
	if _, err := img.SetEncryptionBlob(0, blob); err != nil {
		t.Fatal(err)
	}
	img2, _, err := Open(0, cl, "rbd", "img")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img2.EncryptionBlob(), blob) {
		t.Fatal("encryption blob lost")
	}
}

func TestRandomizedImageModel(t *testing.T) {
	const size = 4 << 20
	img := testImage(t, size)
	model := make([]byte, size)
	rng := rand.New(rand.NewSource(17))
	for step := 0; step < 150; step++ {
		off := rng.Int63n(size - 1)
		n := rng.Intn(200000) + 1
		if off+int64(n) > size {
			n = int(size - off)
		}
		if rng.Intn(2) == 0 {
			data := make([]byte, n)
			rng.Read(data)
			if _, err := img.WriteAt(0, data, off); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			copy(model[off:], data)
		} else {
			got := make([]byte, n)
			if _, err := img.ReadAt(0, got, off); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if !bytes.Equal(got, model[off:off+int64(n)]) {
				t.Fatalf("step %d: mismatch at %d+%d", step, off, n)
			}
		}
	}
}

func TestEncodeBlockIndexOrdering(t *testing.T) {
	a := EncodeBlockIndex(1)
	b := EncodeBlockIndex(256)
	if bytes.Compare(a, b) >= 0 {
		t.Fatal("big-endian ordering broken")
	}
}

func TestParentPointerRoundTrip(t *testing.T) {
	cl := testClient(t)
	if _, err := CreateWithObjectSize(0, cl, "rbd", "child", 4<<20, 1<<20); err != nil {
		t.Fatal(err)
	}
	img, _, err := Open(0, cl, "rbd", "child")
	if err != nil {
		t.Fatal(err)
	}
	if img.Parent() != nil {
		t.Fatal("fresh image has a parent")
	}
	spec := ParentSpec{Pool: "rbd", Image: "base", SnapID: 7, SnapName: "golden"}
	if _, err := img.SetParent(0, spec); err != nil {
		t.Fatal(err)
	}
	// Re-linking is refused.
	if _, err := img.SetParent(0, spec); !errors.Is(err, ErrExists) {
		t.Fatalf("double SetParent: %v", err)
	}
	// The pointer persists across Open.
	img2, _, err := Open(0, cl, "rbd", "child")
	if err != nil {
		t.Fatal(err)
	}
	if got := img2.Parent(); got == nil || *got != spec {
		t.Fatalf("parent pointer %+v, want %+v", got, spec)
	}
	// Severing persists too, and is idempotent.
	if _, err := img2.RemoveParent(0); err != nil {
		t.Fatal(err)
	}
	if _, err := img2.RemoveParent(0); err != nil {
		t.Fatal(err)
	}
	img3, _, err := Open(0, cl, "rbd", "child")
	if err != nil {
		t.Fatal(err)
	}
	if img3.Parent() != nil {
		t.Fatal("parent pointer survived RemoveParent")
	}
}

func TestRemoveImage(t *testing.T) {
	cl := testClient(t)
	if _, err := CreateWithObjectSize(0, cl, "rbd", "gone", 2<<20, 1<<20); err != nil {
		t.Fatal(err)
	}
	img, _, err := Open(0, cl, "rbd", "gone")
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xCD}, 8192)
	if _, err := img.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Remove(0, cl, "rbd", "gone"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(0, cl, "rbd", "gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("open after remove: %v", err)
	}
	// The name is reusable and the old data objects are gone.
	if _, err := CreateWithObjectSize(0, cl, "rbd", "gone", 2<<20, 1<<20); err != nil {
		t.Fatal(err)
	}
	img2, _, err := Open(0, cl, "rbd", "gone")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8192)
	if _, err := img2.ReadAt(0, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 8192)) {
		t.Fatal("recreated image sees stale data")
	}
}

// TestRemovePurgesSnapshotClones pins that Remove deletes the OSD-side
// snapshot clone objects with the head: recreating an image under the
// same name and snapshotting it again reuses the same snap ids, and a
// leaked clone blob would make the clone-on-write of the new image fail
// (the blobstore refuses to clone onto an existing object) or resolve
// snapshot reads to the dead image's data.
func TestRemovePurgesSnapshotClones(t *testing.T) {
	cl := testClient(t)
	round := func(fill byte) {
		t.Helper()
		if _, err := CreateWithObjectSize(0, cl, "rbd", "churn", 2<<20, 1<<20); err != nil {
			t.Fatal(err)
		}
		img, _, err := Open(0, cl, "rbd", "churn")
		if err != nil {
			t.Fatal(err)
		}
		before := bytes.Repeat([]byte{fill}, 8192)
		if _, err := img.WriteAt(0, before, 0); err != nil {
			t.Fatal(err)
		}
		id, _, err := img.CreateSnap(0, "s")
		if err != nil {
			t.Fatal(err)
		}
		// Overwrite: triggers clone-on-write at the OSDs for snap id.
		if _, err := img.WriteAt(0, bytes.Repeat([]byte{fill + 1}, 8192), 0); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 8192)
		if _, err := img.ReadAtSnap(0, got, 0, id); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, before) {
			t.Fatalf("snapshot (fill 0x%02x) resolved to stale clone data", fill)
		}
		if _, err := Remove(0, cl, "rbd", "churn"); err != nil {
			t.Fatal(err)
		}
	}
	round(0x10)
	round(0x20) // same name, same snap ids: collides with any leaked clone
}
