package core

// verify_test.go: the scrub primitives against planted corruption.
// Corruption is planted through rados.Client.OperateOn — a direct
// single-copy write that does not re-replicate — so damage can be
// aimed at exactly one replica, which is the scenario replica repair
// exists for.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/rados"
	"repro/internal/vtime"
)

// plantGarbage overwrites one block's ciphertext on a single OSD's
// copy of an object (LayoutObjectEnd/OMAP/None geometry: ciphertext at
// block*bs).
func plantGarbage(t *testing.T, e *EncryptedImage, osd int, objIdx, block int64) {
	t.Helper()
	bs := e.Options().BlockSize
	garbage := make([]byte, bs)
	for i := range garbage {
		garbage[i] = byte(0xA5 ^ i)
	}
	res, _, err := e.Image().OperateOn(0, osd, objIdx, 0,
		[]rados.Op{{Kind: rados.OpWrite, Off: block * bs, Data: garbage}})
	if err != nil {
		t.Fatalf("plant corruption on osd%d: %v", osd, err)
	}
	for _, r := range res {
		if err := r.Status.Err(); err != nil {
			t.Fatalf("plant corruption on osd%d: %v", osd, err)
		}
	}
}

func TestVerifyObjectClean(t *testing.T) {
	e := newEncrypted(t, SchemeGCM, LayoutObjectEnd)
	data := make([]byte, 4*4096)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if _, err := e.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	checked, bad, _, err := e.VerifyObject(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("clean object reported %d bad blocks: %v", len(bad), bad)
	}
	if checked != 4 {
		t.Fatalf("checked %d blocks, want 4", checked)
	}
}

func TestVerifyObjectDetectsCorruption(t *testing.T) {
	e := newEncrypted(t, SchemeGCM, LayoutObjectEnd)
	data := make([]byte, 8*4096)
	for i := range data {
		data[i] = byte(i * 13)
	}
	if _, err := e.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	primary := e.Image().Replicas(0)[0]
	plantGarbage(t, e, primary, 0, 3)

	checked, bad, _, err := e.VerifyObject(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if checked != 8 {
		t.Fatalf("checked %d blocks, want 8", checked)
	}
	if len(bad) != 1 || bad[0].Block != 3 {
		t.Fatalf("bad blocks = %v, want exactly block 3", bad)
	}
	if !errors.Is(bad[0].Err, ErrIntegrity) {
		t.Fatalf("bad block error = %v, want ErrIntegrity", bad[0].Err)
	}
}

func TestRepairObjectFromReplica(t *testing.T) {
	e := newEncrypted(t, SchemeGCM, LayoutObjectEnd)
	data := make([]byte, 8*4096)
	for i := range data {
		data[i] = byte(i * 29)
	}
	if _, err := e.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	primary := e.Image().Replicas(0)[0]
	plantGarbage(t, e, primary, 0, 5)

	// The damaged primary copy fails the read path loudly...
	buf := make([]byte, len(data))
	if _, err := e.ReadAt(0, buf, 0); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("read of corrupted block: err = %v, want ErrIntegrity", err)
	}

	// ...until repair pulls the intact replica copy and re-seals it.
	n, _, err := e.RepairObject(0, 0, []int64{5})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("repaired %d blocks, want 1", n)
	}
	if _, err := e.ReadAt(0, buf, 0); err != nil {
		t.Fatalf("read after repair: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("repaired data does not match the original plaintext")
	}
	// And the object verifies clean again.
	if _, bad, _, err := e.VerifyObject(0, 0); err != nil || len(bad) != 0 {
		t.Fatalf("post-repair verify: bad=%v err=%v", bad, err)
	}
}

func TestRepairObjectAllCopiesLost(t *testing.T) {
	e := newEncrypted(t, SchemeGCM, LayoutObjectEnd)
	data := make([]byte, 2*4096)
	if _, err := e.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	// Corrupt block 1 on every replica: nothing left to repair from.
	for _, osd := range e.Image().Replicas(0) {
		plantGarbage(t, e, osd, 0, 1)
	}
	n, _, err := e.RepairObject(0, 0, []int64{1})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("repaired %d blocks with no intact copy anywhere, want 0", n)
	}
	// Still loud on read — corrupt-but-detected beats silent garbage.
	buf := make([]byte, len(data))
	if _, err := e.ReadAt(0, buf, 0); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("read after failed repair: err = %v, want ErrIntegrity", err)
	}
}

// Unauthenticated schemes cannot detect ciphertext corruption — the
// paper's point, restated as a scrub property: verification is
// structural only, so the planted garbage goes unnoticed.
func TestVerifyObjectUnauthSchemeIsBlind(t *testing.T) {
	e := newEncrypted(t, SchemeXTSRand, LayoutObjectEnd)
	data := make([]byte, 4*4096)
	if _, err := e.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	primary := e.Image().Replicas(0)[0]
	plantGarbage(t, e, primary, 0, 2)
	_, bad, _, err := e.VerifyObject(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("xts-rand scrub reported %v; unauthenticated schemes cannot detect rot", bad)
	}
}

// TestRepairChargesOpensAttempted pins the virtual cipher time of a
// repair: every open attempted on a replica costs a block of AES whether
// or not the tag verifies. Garbage on the primary only means one failed
// pass over the wanted blocks, one clean pass on the next replica and one
// re-seal. The old accounting charged the cumulative recovered count per
// replica (0 + n here; 3 + 4 for 3-of-4 then 1-of-4), so failed opens
// were free and blocks recovered early were charged again on every later
// replica. The repair runs alone on an idle model CPU, so the resource's
// busy time is exactly the cipher time inside the returned end time.
func TestRepairChargesOpensAttempted(t *testing.T) {
	e := newEncrypted(t, SchemeGCM, LayoutObjectEnd)
	data := make([]byte, 8*4096)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if _, err := e.WriteAt(0, data, 0); err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 6}
	primary := e.Image().Replicas(0)[0]
	for _, b := range want {
		plantGarbage(t, e, primary, 0, b)
	}

	pass := e.chargeCrypto(0, int64(len(want))*4096).Sub(0)
	e.cpu.Reset()
	const at = vtime.Time(time.Hour)
	n, end, err := e.RepairObject(at, 0, want)
	if err != nil || n != len(want) {
		t.Fatalf("repaired %d of %d blocks: %v", n, len(want), err)
	}
	_, busy := e.cpu.Stats()
	if busy != 3*pass {
		t.Fatalf("repair charged %v of cipher time, want %v: a failed open pass on the primary, a clean pass on the replica, one re-seal (%v each)",
			busy, 3*pass, pass)
	}
	if end.Sub(at) < busy {
		t.Fatalf("repair took %v of virtual time, less than the %v of cipher time it charged", end.Sub(at), busy)
	}
}

// TestObjectIndexDomain: every maintenance primitive refuses an object
// index outside the image with an error naming the operation, before
// taking a lock or issuing IO — CopyupObject(-1) used to seal blocks
// into an object that is not part of the image.
func TestObjectIndexDomain(t *testing.T) {
	e := newEncrypted(t, SchemeXTSRand, LayoutObjectEnd)
	sourced := 0
	source := func(at vtime.Time, blocks []int64, plain []byte) ([]bool, vtime.Time, error) {
		sourced++
		return nil, at, nil
	}
	ops := []struct {
		name string
		call func(objIdx int64) error
	}{
		{"rekey", func(o int64) error { _, _, err := e.RekeyObject(0, o); return err }},
		{"copyup", func(o int64) error { _, _, err := e.CopyupObject(0, o, source); return err }},
		{"verify", func(o int64) error { _, _, _, err := e.VerifyObject(0, o); return err }},
		{"repair", func(o int64) error { _, _, err := e.RepairObject(0, o, []int64{0}); return err }},
	}
	for _, op := range ops {
		for _, objIdx := range []int64{-1, e.ObjectCount()} {
			err := op.call(objIdx)
			if want := fmt.Sprintf("core: %s object %d out of range", op.name, objIdx); err == nil || err.Error() != want {
				t.Errorf("%s(%d): err = %v, want %q", op.name, objIdx, err, want)
			}
		}
	}
	if sourced != 0 {
		t.Error("copyup source called for an out-of-range object")
	}
	for _, op := range ops {
		if err := op.call(e.ObjectCount() - 1); err != nil {
			t.Errorf("%s on the last object: %v", op.name, err)
		}
	}
}
