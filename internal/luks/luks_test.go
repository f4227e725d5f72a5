package luks

import (
	"bytes"
	"errors"
	"slices"
	"testing"
)

func TestFormatUnlock(t *testing.T) {
	c, mk, err := Format([]byte("hunter2"), "aes-xts-plain64")
	if err != nil {
		t.Fatal(err)
	}
	if len(mk) != MasterKeySize {
		t.Fatalf("master key %d bytes", len(mk))
	}
	got, err := c.Unlock([]byte("hunter2"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mk) {
		t.Fatal("unlocked key differs")
	}
}

func TestWrongPassphrase(t *testing.T) {
	c, _, err := Format([]byte("correct"), "aes-xts-plain64")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Unlock([]byte("incorrect")); !errors.Is(err, ErrPassphrase) {
		t.Fatalf("got %v", err)
	}
}

func TestAddAndRemoveKey(t *testing.T) {
	c, mk, err := Format([]byte("first"), "aes-xts-plain64")
	if err != nil {
		t.Fatal(err)
	}
	idx, err := c.AddKey([]byte("first"), []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("slot %d", idx)
	}
	if got, err := c.Unlock([]byte("second")); err != nil || !bytes.Equal(got, mk) {
		t.Fatalf("second passphrase: %v", err)
	}
	// Adding requires a valid existing passphrase.
	if _, err := c.AddKey([]byte("bogus"), []byte("third")); !errors.Is(err, ErrPassphrase) {
		t.Fatalf("got %v", err)
	}
	// Remove the first key; only the second unlocks.
	if err := c.RemoveKey(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Unlock([]byte("first")); !errors.Is(err, ErrPassphrase) {
		t.Fatalf("revoked passphrase still works: %v", err)
	}
	if _, err := c.Unlock([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveKey(0); err == nil {
		t.Fatal("removing inactive slot should fail")
	}
	if got := c.ActiveSlots(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("active slots %v", got)
	}
}

func TestSlotExhaustion(t *testing.T) {
	c, _, err := Format([]byte("p0"), "x")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < MaxSlots; i++ {
		if _, err := c.AddKey([]byte("p0"), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AddKey([]byte("p0"), []byte("overflow")); !errors.Is(err, ErrNoFreeSlot) {
		t.Fatalf("got %v", err)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	c, mk, err := Format([]byte("pass"), "aes-xts-plain64")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.Unlock([]byte("pass"))
	if err != nil || !bytes.Equal(got, mk) {
		t.Fatalf("unlock after round trip: %v", err)
	}
	if c2.Cipher != "aes-xts-plain64" {
		t.Fatalf("cipher %q", c2.Cipher)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Unmarshal([]byte(`{"magic":"WRONG"}`)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// An iteration count below one comes only from a corrupt container: it
// is ErrCorrupt, never a one-round derivation.
func TestNonPositiveIterationsAreCorrupt(t *testing.T) {
	if _, err := deriveKey([]byte("p"), []byte("s"), 0, 32); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("0 iterations: %v", err)
	}
	c, _, err := Format([]byte("pass"), "x")
	if err != nil {
		t.Fatal(err)
	}
	c.DigestIter = -1
	if _, err := c.Unlock([]byte("pass")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("digest iterations -1: %v", err)
	}
	c.DigestIter, c.Slots[0].Iterations = DefaultIterations, 0
	if _, err := c.Unlock([]byte("pass")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("slot iterations 0: %v", err)
	}
}

func TestHeaderTamperDetected(t *testing.T) {
	c, _, err := Format([]byte("pass"), "x")
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a keyslot area: the digest check must reject the result.
	c.Slots[0].Area[10] ^= 0xFF
	if _, err := c.Unlock([]byte("pass")); !errors.Is(err, ErrPassphrase) {
		t.Fatalf("tampered slot unlocked: %v", err)
	}
}

func TestDistinctMasterKeys(t *testing.T) {
	_, mk1, _ := Format([]byte("p"), "x")
	_, mk2, _ := Format([]byte("p"), "x")
	if bytes.Equal(mk1, mk2) {
		t.Fatal("master keys must be random")
	}
}

// Wrong passphrase must fail against a container with MANY populated
// slots (the unlock loop tries — and must reject — every one of them).
func TestWrongPassphraseAcrossPopulatedSlots(t *testing.T) {
	c, _, err := Format([]byte("p0"), "x")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < MaxSlots; i++ {
		if _, err := c.AddKey([]byte("p0"), []byte{'q', byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(c.ActiveSlots()); got != MaxSlots {
		t.Fatalf("active slots %d", got)
	}
	if _, err := c.Unlock([]byte("not-a-passphrase")); !errors.Is(err, ErrPassphrase) {
		t.Fatalf("got %v", err)
	}
	// Every real passphrase still unlocks.
	for i := 1; i < MaxSlots; i++ {
		if _, err := c.Unlock([]byte{'q', byte(i)}); err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}
}

// Add/remove round-trips: freed slots are reusable, and reuse works
// after a marshal round-trip now that the container carries an epoch
// table alongside the slots.
func TestAddRemoveRoundTripWithEpochTable(t *testing.T) {
	c, mk, err := Format([]byte("p0"), "x")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		idx, err := c.AddKey([]byte("p0"), []byte("extra"))
		if err != nil {
			t.Fatalf("round %d add: %v", round, err)
		}
		blob, err := c.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		c, err = Unmarshal(blob)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := c.Unlock([]byte("extra")); err != nil || !bytes.Equal(got, mk) {
			t.Fatalf("round %d unlock: %v", round, err)
		}
		if err := c.RemoveKey(idx); err != nil {
			t.Fatalf("round %d remove: %v", round, err)
		}
		if _, err := c.Unlock([]byte("extra")); !errors.Is(err, ErrPassphrase) {
			t.Fatalf("round %d removed passphrase still unlocks: %v", round, err)
		}
	}
}

func TestSlotExhaustionSurvivesRemove(t *testing.T) {
	c, _, err := Format([]byte("p0"), "x")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < MaxSlots; i++ {
		if _, err := c.AddKey([]byte("p0"), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AddKey([]byte("p0"), []byte("x")); !errors.Is(err, ErrNoFreeSlot) {
		t.Fatalf("got %v", err)
	}
	// Freeing any slot makes room again — in that exact slot.
	if err := c.RemoveKey(3); err != nil {
		t.Fatal(err)
	}
	idx, err := c.AddKey([]byte("p0"), []byte("fresh"))
	if err != nil || idx != 3 {
		t.Fatalf("reuse: idx=%d err=%v", idx, err)
	}
	if _, err := c.AddKey([]byte("p0"), []byte("y")); !errors.Is(err, ErrNoFreeSlot) {
		t.Fatalf("got %v", err)
	}
}

// ---- epoch table ----

func TestEpochLifecycle(t *testing.T) {
	c, mk, err := Format([]byte("p"), "x")
	if err != nil {
		t.Fatal(err)
	}
	if c.CurrentEpoch() != 0 {
		t.Fatalf("fresh container current epoch %d", c.CurrentEpoch())
	}
	k0, err := c.EpochKey(mk, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(k0, mk) {
		t.Fatal("epoch key must be independent of the master key")
	}

	e1, err := c.AddEpoch(mk)
	if err != nil || e1 != 1 {
		t.Fatalf("AddEpoch: %d %v", e1, err)
	}
	if c.CurrentEpoch() != 1 {
		t.Fatalf("current %d", c.CurrentEpoch())
	}
	k1, err := c.EpochKey(mk, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(k0, k1) {
		t.Fatal("epoch keys must be distinct")
	}

	// Keys survive a marshal round-trip.
	blob, _ := c.Marshal()
	c2, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	mk2, err := c2.Unlock([]byte("p"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c2.EpochKey(mk2, 0); err != nil || !bytes.Equal(got, k0) {
		t.Fatalf("epoch 0 after round trip: %v", err)
	}

	// Crypto-erase: destroy epoch 0 and the key is gone for good.
	if err := c2.DestroyEpoch(1); err == nil {
		t.Fatal("destroying the current epoch must fail")
	}
	if err := c2.DestroyEpoch(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.EpochKey(mk2, 0); !errors.Is(err, ErrEpochUnknown) {
		t.Fatalf("destroyed epoch still unwraps: %v", err)
	}
	if err := c2.DestroyEpoch(0); !errors.Is(err, ErrEpochUnknown) {
		t.Fatalf("double destroy: %v", err)
	}
	if got := c2.EpochIDs(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("epoch ids %v", got)
	}
	// Epoch numbering never reuses a destroyed id.
	e2, err := c2.AddEpoch(mk2)
	if err != nil || e2 != 2 {
		t.Fatalf("AddEpoch after destroy: %d %v", e2, err)
	}
}

func TestEpochKeyWrongMasterKeyRejected(t *testing.T) {
	c, mk, err := Format([]byte("p"), "x")
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), mk...)
	bad[0] ^= 1
	if _, err := c.EpochKey(bad, 0); err == nil {
		t.Fatal("wrong master key unwrapped an epoch")
	}
}

// FuzzContainerUnmarshal: Unmarshal never panics, refuses with
// ErrCorrupt, and what it accepts is a container the epoch API can
// serve — a wrap salt, the current epoch among the live ones, and every
// live epoch resolving to a key or an error. Unlock is left out: the
// blob sets the keyslots' PBKDF2 iteration counts.
func FuzzContainerUnmarshal(f *testing.F) {
	c, mk, err := Format([]byte("p"), "x")
	if err != nil {
		f.Fatal(err)
	}
	blob, err := c.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	stripped := *c
	stripped.Epochs, stripped.WrapSalt, stripped.Current = nil, nil, 0
	tableless, err := stripped.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(tableless)
	for _, n := range []int{0, 1, len(blob) / 2, len(blob) - 1} {
		f.Add(blob[:n])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := Unmarshal(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refusal does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		if len(c.WrapSalt) == 0 {
			t.Fatal("accepted a container without a wrap salt")
		}
		ids := c.EpochIDs()
		if !slices.Contains(ids, c.CurrentEpoch()) {
			t.Fatalf("accepted current epoch %d outside the live epochs %v", c.CurrentEpoch(), ids)
		}
		for _, id := range ids {
			if key, err := c.EpochKey(mk, id); err == nil && len(key) == 0 {
				t.Fatalf("epoch %d: neither a key nor an error", id)
			}
		}
	})
}
