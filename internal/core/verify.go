package core

// verify.go: the scrub primitives. VerifyObject is the read-and-check
// half — every present block of one striping object is fetched and
// opened under its recorded epoch, plaintext discarded — and
// RepairObject is the recovery half: re-fetch damaged blocks from each
// replica in turn and re-seal the first copy that still opens. Both are
// object transactions (core.go): they supply a block selector and a
// plaintext source; the fetch, the presence rules, the open and the
// re-seal/commit are the kernel's.
//
// What verification can prove depends on the scheme, which is the
// paper's integrity argument restated as an operational property: only
// authenticated metadata (SchemeGCM's tag) turns ciphertext corruption
// into a detectable event. The length-preserving schemes decrypt
// anything to something, so for them a scrub pass can only prove
// structural health — every block's epoch tag resolves to a live key —
// not content integrity.

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/vtime"
)

// BadBlock is one block that failed verification.
type BadBlock struct {
	Block int64 // object-relative block index
	Err   error // why it failed to open (ErrIntegrity, ErrKeyErased, ...)
}

// VerifyObject checks every present block of one striping object:
// ciphertext and metadata are read exactly as the datapath would read
// them, and each block is opened under its recorded epoch into scratch
// space. It returns the number of blocks checked and the ones that
// failed, in block order. Verification failures are findings, not
// errors — err is reserved for transport/parse trouble that aborted
// the check. It holds the object's exclusive lock, so concurrent
// writes either land before the read or after it; either way every
// checked block is a consistent committed state.
func (e *EncryptedImage) VerifyObject(at vtime.Time, objIdx int64) (checked int, bad []BadBlock, end vtime.Time, err error) {
	if err := e.checkObject("verify", objIdx); err != nil {
		return 0, nil, at, err
	}
	bs, nb := e.opts.BlockSize, e.plan.objBlocks()
	lk := e.locks.of(objIdx)
	lk.Lock()
	defer lk.Unlock()

	f, end, err := e.fetch(at, objIdx, 0, 0, nb, true, primaryOSD)
	if err != nil {
		return 0, nil, at, err
	}
	defer f.release()

	// Open every present block into its own scratch slot; the plaintext
	// is discarded — only the verdict matters, so the visit never fails.
	scratch := getBuf(int(nb * bs))
	defer putBuf(scratch)
	var mu sync.Mutex
	_ = forBlocks(e.workers, nb, func(lo, hi int64) error {
		for b := lo; b < hi; b++ {
			if f.present[b] == 0 {
				continue
			}
			if err := e.openBlock(&f, b, uint64(objIdx*nb+b), scratch[b*bs:(b+1)*bs]); err != nil {
				mu.Lock()
				bad = append(bad, BadBlock{Block: b, Err: err})
				mu.Unlock()
			}
		}
		return nil
	})
	for _, v := range f.present {
		checked += int(v)
	}
	sort.Slice(bad, func(i, j int) bool { return bad[i].Block < bad[j].Block })
	return checked, bad, e.chargeCrypto(end, int64(checked)*bs), nil
}

// RepairObject recovers the given blocks of one striping object from
// replica copies: each replica (primary first — a re-read beats
// transient transfer corruption) is fetched directly, one OSD at a
// time, until a copy opens cleanly, and the recovered plaintext is
// re-sealed under the current epoch through the normal replicated write
// path, which overwrites the damaged copy everywhere. Blocks with no
// intact copy anywhere (or sealed under a destroyed epoch) are left as
// they are. It returns the number of blocks repaired.
func (e *EncryptedImage) RepairObject(at vtime.Time, objIdx int64, blocks []int64) (int, vtime.Time, error) {
	if len(blocks) == 0 {
		return 0, at, nil
	}
	if err := e.checkObject("repair", objIdx); err != nil {
		return 0, at, err
	}
	bs, nb := e.opts.BlockSize, e.plan.objBlocks()
	want := make([]int64, 0, len(blocks))
	for _, b := range blocks {
		if b < 0 || b >= nb {
			return 0, at, fmt.Errorf("core: repair block %d out of range", b)
		}
		want = append(want, b)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	lk := e.locks.of(objIdx)
	lk.Lock()
	defer lk.Unlock()
	epoch := e.ring.currentEpoch()

	// Hunt for intact copies, one replica at a time. recovered[i] marks
	// want[i]'s plaintext as present in plain.
	plain := getBuf(len(want) * int(bs))
	defer putBuf(plain)
	recovered := make([]bool, len(want))
	missing := len(want)
	for _, osd := range e.img.Replicas(objIdx) {
		if missing == 0 {
			break
		}
		f, end, err := e.fetch(at, objIdx, 0, 0, nb, true, osd)
		if err != nil {
			continue // this replica is unreachable or unreadable; try the next
		}
		// Every open attempted on this copy costs a block of cipher work,
		// failed ones (a GCM tag mismatch) included; only a dead epoch is
		// refused before any.
		var attempted int64
		for i, b := range want {
			if recovered[i] || f.present[b] == 0 {
				continue
			}
			err := e.openBlock(&f, b, uint64(objIdx*nb+b), plain[int64(i)*bs:int64(i+1)*bs])
			if !errors.Is(err, ErrKeyErased) {
				attempted++
			}
			if err == nil {
				recovered[i] = true
				missing--
			}
		}
		f.release()
		at = e.chargeCrypto(end, attempted*bs)
	}

	fixed := compactKept(want, recovered, plain, bs)
	if len(fixed) == 0 {
		return 0, at, nil
	}
	end, err := e.resealObject(at, objIdx, fixed, plain, epoch)
	if err != nil {
		return 0, at, err
	}
	return len(fixed), end, nil
}
