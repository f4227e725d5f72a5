// Package luks implements a LUKS2-style key-management container, the
// format Ceph RBD client-side encryption uses (§2.4). A container wraps a
// randomly generated master key behind one or more passphrase keyslots:
//
//   - the slot key is stretched from the passphrase with PBKDF2-HMAC-SHA256,
//   - the master key is anti-forensically split (kdf.AFSplit) and the
//     stripes encrypted with AES-XTS under the slot key,
//   - a PBKDF2 digest of the master key lets Unlock verify a candidate.
//
// On top of the passphrase slots the container carries a versioned
// master-key table: each key *epoch* is an independent random 64-byte
// data key, wrapped under a KEK derived from the master key, so several
// epochs coexist while an image is re-keyed online. Destroying an epoch
// entry is crypto-erase — without the wrapped blob the epoch's data key
// is unrecoverable even with every passphrase.
//
// Metadata is JSON (as in LUKS2) with binary areas carried base64-encoded,
// so a container serializes to a single blob the virtual-disk layer stores
// alongside the image.
package luks

import (
	"crypto/rand"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/crypto/kdf"
	"repro/internal/crypto/xts"
)

const (
	// Magic identifies serialized containers.
	Magic = "LUKS2-repro\x00"
	// MasterKeySize is the XTS-AES-256 key size (two 256-bit keys).
	MasterKeySize = 64
	// Stripes is the anti-forensic expansion factor (LUKS default 4000 is
	// overkill for a simulation; 64 keeps the same property cheaply).
	Stripes = 64
	// DefaultIterations is the PBKDF2 cost.
	DefaultIterations = 4096
	// MaxSlots bounds the keyslot table (8, as in LUKS).
	MaxSlots = 8
	// WrapIterations is the PBKDF2 cost deriving the epoch-wrapping KEK
	// from the master key. The master key is already full-entropy, so this
	// is domain separation, not stretching.
	WrapIterations = 64
)

var (
	// ErrPassphrase reports that no keyslot opened with the passphrase.
	ErrPassphrase = errors.New("luks: no keyslot matches passphrase")
	// ErrNoFreeSlot reports a full keyslot table.
	ErrNoFreeSlot = errors.New("luks: no free keyslot")
	// ErrCorrupt reports a malformed container.
	ErrCorrupt = errors.New("luks: corrupt container")
	// ErrEpochUnknown reports a key epoch with no (remaining) table entry —
	// either never created or destroyed by crypto-erase.
	ErrEpochUnknown = errors.New("luks: unknown or destroyed key epoch")
)

// Keyslot is one passphrase binding.
type Keyslot struct {
	Active     bool   `json:"active"`
	Salt       []byte `json:"salt,omitempty"`
	Iterations int    `json:"iterations,omitempty"`
	Stripes    int    `json:"stripes,omitempty"`
	Area       []byte `json:"area,omitempty"` // encrypted AF-split master key
}

// KeyEpoch is one entry of the versioned master-key table: a random
// 64-byte data key wrapped under the master-key-derived KEK. Check lets
// an unwrap be verified without touching data.
type KeyEpoch struct {
	Epoch   uint32 `json:"epoch"`
	Wrapped []byte `json:"wrapped"`
	Check   []byte `json:"check"`
}

// Container is the on-disk header.
type Container struct {
	MagicField string    `json:"magic"`
	UUID       string    `json:"uuid"`
	Cipher     string    `json:"cipher"` // informational: the data cipher
	DigestSalt []byte    `json:"digest_salt"`
	DigestIter int       `json:"digest_iter"`
	Digest     []byte    `json:"digest"` // PBKDF2(masterKey, DigestSalt)
	Slots      []Keyslot `json:"slots"`

	// The versioned master-key table. WrapSalt feeds the KEK derivation;
	// Current is the epoch new writes must seal under and is always one
	// of Epochs (Unmarshal refuses a container where it is not).
	WrapSalt []byte     `json:"wrap_salt,omitempty"`
	Current  uint32     `json:"current_epoch,omitempty"`
	Epochs   []KeyEpoch `json:"epochs,omitempty"`
}

func randBytes(n int) ([]byte, error) {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		return nil, err
	}
	return b, nil
}

// deriveKey is kdf.PBKDF2, every derivation the container makes. Slot
// and digest iteration counts come from the container, so a count below
// one is ErrCorrupt, not a single round.
func deriveKey(secret, salt []byte, iter, keyLen int) ([]byte, error) {
	key, err := kdf.PBKDF2(secret, salt, iter, keyLen)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return key, nil
}

// slotCipher builds the XTS cipher protecting a keyslot area.
func slotCipher(passphrase, salt []byte, iter int) (*xts.Cipher, error) {
	key, err := deriveKey(passphrase, salt, iter, 64)
	if err != nil {
		return nil, err
	}
	return xts.NewCipher(key)
}

func digestOf(masterKey, salt []byte, iter int) ([]byte, error) {
	return deriveKey(masterKey, salt, iter, 32)
}

// Format creates a container with a fresh random master key bound to the
// passphrase in slot 0, returning both.
func Format(passphrase []byte, cipherName string) (*Container, []byte, error) {
	masterKey, err := randBytes(MasterKeySize)
	if err != nil {
		return nil, nil, err
	}
	uuid, err := randBytes(16)
	if err != nil {
		return nil, nil, err
	}
	dsalt, err := randBytes(32)
	if err != nil {
		return nil, nil, err
	}
	wsalt, err := randBytes(32)
	if err != nil {
		return nil, nil, err
	}
	digest, err := digestOf(masterKey, dsalt, DefaultIterations)
	if err != nil {
		return nil, nil, err
	}
	c := &Container{
		MagicField: Magic,
		UUID:       fmt.Sprintf("%x", uuid),
		Cipher:     cipherName,
		DigestSalt: dsalt,
		DigestIter: DefaultIterations,
		Digest:     digest,
		Slots:      make([]Keyslot, MaxSlots),
		WrapSalt:   wsalt,
	}
	if err := c.fillSlot(0, passphrase, masterKey); err != nil {
		return nil, nil, err
	}
	if _, err := c.AddEpoch(masterKey); err != nil {
		return nil, nil, err
	}
	return c, masterKey, nil
}

// ---- versioned master-key (epoch) table ----

// kek derives the epoch-wrapping key-encryption key from the master key.
func (c *Container) kek(masterKey []byte) (*xts.Cipher, error) {
	kek, err := deriveKey(masterKey, c.WrapSalt, WrapIterations, 64)
	if err != nil {
		return nil, err
	}
	return xts.NewCipher(kek)
}

func epochCheck(c *Container, key []byte) ([]byte, error) {
	return deriveKey(key, c.WrapSalt, WrapIterations, 16)
}

func (c *Container) findEpoch(epoch uint32) *KeyEpoch {
	for i := range c.Epochs {
		if c.Epochs[i].Epoch == epoch {
			return &c.Epochs[i]
		}
	}
	return nil
}

// CurrentEpoch returns the epoch new writes seal under.
func (c *Container) CurrentEpoch() uint32 { return c.Current }

// EpochIDs lists the live (non-destroyed) epochs, oldest first.
func (c *Container) EpochIDs() []uint32 {
	out := make([]uint32, len(c.Epochs))
	for i, e := range c.Epochs {
		out[i] = e.Epoch
	}
	return out
}

// AddEpoch mints the next key epoch: a fresh random 64-byte data key,
// wrapped under the master-key KEK, appended to the table and made
// current. It returns the new epoch id: one past the highest in the
// table, so the first epoch Format mints is 0.
func (c *Container) AddEpoch(masterKey []byte) (uint32, error) {
	var next uint32
	for _, e := range c.Epochs {
		if e.Epoch >= next {
			next = e.Epoch + 1
		}
	}
	key, err := randBytes(MasterKeySize)
	if err != nil {
		return 0, err
	}
	ci, err := c.kek(masterKey)
	if err != nil {
		return 0, err
	}
	wrapped := make([]byte, MasterKeySize)
	if err := ci.Encrypt(wrapped, key, xts.SectorTweak(uint64(next))); err != nil {
		return 0, err
	}
	check, err := epochCheck(c, key)
	if err != nil {
		return 0, err
	}
	c.Epochs = append(c.Epochs, KeyEpoch{Epoch: next, Wrapped: wrapped, Check: check})
	c.Current = next
	return next, nil
}

// RetractEpoch removes a just-minted epoch and restores the previous
// current epoch — the in-memory rollback for a caller whose attempt to
// persist the container after AddEpoch failed. Unlike DestroyEpoch it
// may remove the current epoch, because the mint never became durable.
func (c *Container) RetractEpoch(epoch, prevCurrent uint32) error {
	for i := range c.Epochs {
		if c.Epochs[i].Epoch == epoch {
			clear(c.Epochs[i].Wrapped)
			c.Epochs = append(c.Epochs[:i], c.Epochs[i+1:]...)
			if c.Current == epoch {
				c.Current = prevCurrent
			}
			return nil
		}
	}
	return fmt.Errorf("%w: epoch %d", ErrEpochUnknown, epoch)
}

// EpochKey unwraps the data key for an epoch; an id with no table entry
// is ErrEpochUnknown.
func (c *Container) EpochKey(masterKey []byte, epoch uint32) ([]byte, error) {
	e := c.findEpoch(epoch)
	if e == nil {
		return nil, fmt.Errorf("%w: epoch %d", ErrEpochUnknown, epoch)
	}
	ci, err := c.kek(masterKey)
	if err != nil {
		return nil, err
	}
	key := make([]byte, len(e.Wrapped))
	if err := ci.Decrypt(key, e.Wrapped, xts.SectorTweak(uint64(epoch))); err != nil {
		return nil, err
	}
	check, err := epochCheck(c, key)
	if err != nil {
		return nil, err
	}
	if subtle.ConstantTimeCompare(check, e.Check) != 1 {
		return nil, fmt.Errorf("%w: epoch %d check failed", ErrCorrupt, epoch)
	}
	return key, nil
}

// RemoveEpoch takes an epoch's entry out of the table and returns it
// intact, so a caller that persists the container afterwards can
// Reinstate it if the persist fails — without this two-phase shape, a
// failed persist would leave the erase claimed in memory but absent on
// disk. The current epoch cannot be removed.
func (c *Container) RemoveEpoch(epoch uint32) (KeyEpoch, error) {
	if epoch == c.Current {
		return KeyEpoch{}, fmt.Errorf("luks: cannot destroy current epoch %d", epoch)
	}
	for i := range c.Epochs {
		if c.Epochs[i].Epoch == epoch {
			e := c.Epochs[i]
			c.Epochs = append(c.Epochs[:i], c.Epochs[i+1:]...)
			return e, nil
		}
	}
	return KeyEpoch{}, fmt.Errorf("%w: epoch %d", ErrEpochUnknown, epoch)
}

// ReinstateEpoch restores an entry taken by RemoveEpoch.
func (c *Container) ReinstateEpoch(e KeyEpoch) {
	c.Epochs = append(c.Epochs, e)
}

// DestroyEpoch removes an epoch's wrapped key from the table and scrubs
// it — the fire-and-forget crypto-erase primitive: every block still
// sealed under that epoch becomes unrecoverable. The current epoch
// cannot be destroyed.
func (c *Container) DestroyEpoch(epoch uint32) error {
	e, err := c.RemoveEpoch(epoch)
	if err != nil {
		return err
	}
	clear(e.Wrapped)
	return nil
}

func (c *Container) fillSlot(idx int, passphrase, masterKey []byte) error {
	salt, err := randBytes(32)
	if err != nil {
		return err
	}
	split, err := kdf.AFSplit(masterKey, Stripes)
	if err != nil {
		return err
	}
	ci, err := slotCipher(passphrase, salt, DefaultIterations)
	if err != nil {
		return err
	}
	area := make([]byte, len(split))
	if err := ci.Encrypt(area, split, xts.SectorTweak(uint64(idx))); err != nil {
		return err
	}
	c.Slots[idx] = Keyslot{
		Active:     true,
		Salt:       salt,
		Iterations: DefaultIterations,
		Stripes:    Stripes,
		Area:       area,
	}
	return nil
}

// Unlock recovers the master key with a passphrase, trying every active
// slot and verifying against the digest.
func (c *Container) Unlock(passphrase []byte) ([]byte, error) {
	for idx, slot := range c.Slots {
		if !slot.Active {
			continue
		}
		ci, err := slotCipher(passphrase, slot.Salt, slot.Iterations)
		if err != nil {
			return nil, err
		}
		split := make([]byte, len(slot.Area))
		if err := ci.Decrypt(split, slot.Area, xts.SectorTweak(uint64(idx))); err != nil {
			return nil, err
		}
		if slot.Stripes < 2 || len(split)%slot.Stripes != 0 {
			return nil, ErrCorrupt
		}
		keyLen := len(split) / slot.Stripes
		mk, err := kdf.AFMerge(split, keyLen, slot.Stripes)
		if err != nil {
			return nil, err
		}
		digest, err := digestOf(mk, c.DigestSalt, c.DigestIter)
		if err != nil {
			return nil, err
		}
		if subtle.ConstantTimeCompare(digest, c.Digest) == 1 {
			return mk, nil
		}
	}
	return nil, ErrPassphrase
}

// AddKey binds a new passphrase (authorized by an existing one) to a free
// slot, returning the slot index.
func (c *Container) AddKey(existing, next []byte) (int, error) {
	mk, err := c.Unlock(existing)
	if err != nil {
		return -1, err
	}
	for idx := range c.Slots {
		if !c.Slots[idx].Active {
			if err := c.fillSlot(idx, next, mk); err != nil {
				return -1, err
			}
			return idx, nil
		}
	}
	return -1, ErrNoFreeSlot
}

// RemoveKey deactivates a slot and destroys its key material.
func (c *Container) RemoveKey(idx int) error {
	if idx < 0 || idx >= len(c.Slots) || !c.Slots[idx].Active {
		return fmt.Errorf("luks: slot %d not active", idx)
	}
	c.Slots[idx] = Keyslot{}
	return nil
}

// ActiveSlots lists the active keyslot indexes.
func (c *Container) ActiveSlots() []int {
	var out []int
	for i, s := range c.Slots {
		if s.Active {
			out = append(out, i)
		}
	}
	return out
}

// Marshal serializes the container.
func (c *Container) Marshal() ([]byte, error) {
	return json.Marshal(c)
}

// Unmarshal parses a container and validates its shape: the magic, the
// keyslot bound, and a key-epoch table with a wrap salt and the current
// epoch in it. Anything else is ErrCorrupt.
func Unmarshal(b []byte) (*Container, error) {
	var c Container
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	switch {
	case c.MagicField != Magic:
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	case len(c.Slots) > MaxSlots:
		return nil, fmt.Errorf("%w: %d keyslots", ErrCorrupt, len(c.Slots))
	case len(c.WrapSalt) == 0:
		return nil, fmt.Errorf("%w: no key-epoch wrap salt", ErrCorrupt)
	case c.findEpoch(c.Current) == nil:
		return nil, fmt.Errorf("%w: current epoch %d not in the table", ErrCorrupt, c.Current)
	}
	return &c, nil
}
