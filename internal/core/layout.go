package core

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/rados"
)

// Layout selects where per-sector metadata lives inside the virtual-disk
// mapping — the three alternatives of §3.1 (Fig. 2) plus the baseline.
type Layout int

// Layouts.
const (
	// LayoutNone stores no metadata (the LUKS2 baseline and the
	// deterministic wide-block scheme).
	LayoutNone Layout = iota
	// LayoutUnaligned stores each block's metadata contiguously after the
	// block: data|IV|data|IV|… (Fig. 2a).
	LayoutUnaligned
	// LayoutObjectEnd batches all of an object's metadata after the data
	// region, at the object end (Fig. 2b).
	LayoutObjectEnd
	// LayoutOMAP stores metadata in the per-object key-value database
	// (Fig. 2c).
	LayoutOMAP
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	switch l {
	case LayoutNone:
		return "none"
	case LayoutUnaligned:
		return "unaligned"
	case LayoutObjectEnd:
		return "object-end"
	case LayoutOMAP:
		return "omap"
	default:
		return fmt.Sprintf("layout(%d)", int(l))
	}
}

// ParseLayout is the inverse of String.
func ParseLayout(s string) (Layout, error) {
	for _, l := range []Layout{LayoutNone, LayoutUnaligned, LayoutObjectEnd, LayoutOMAP} {
		if l.String() == s {
			return l, nil
		}
	}
	return 0, fmt.Errorf("core: unknown layout %q", s)
}

// omapIVPrefix namespaces IV entries in the object OMAP.
const omapIVPrefix = "iv."

// omapKeyLen is the encoded size of one OMAP IV key.
const omapKeyLen = len(omapIVPrefix) + 8

func omapIVKey(block int64) []byte {
	k := make([]byte, omapKeyLen)
	omapIVKeyInto(k, block)
	return k
}

// omapIVKeyInto renders the IV key for block into k (omapKeyLen bytes).
func omapIVKeyInto(k []byte, block int64) {
	copy(k, omapIVPrefix)
	binary.BigEndian.PutUint64(k[len(omapIVPrefix):], uint64(block))
}

// planner turns an object-relative block run plus its ciphertext and
// metadata into op vectors, and parses read results back. All offsets are
// in blocks relative to the object start. It is the wire half of the
// object transaction (core.go): one builder for writes and discards
// (writePlan), one for fetches and probes (fetchShape/fetchOps), and one
// parser (parseFetch) that owns every presence rule.
//
// metaLen is the STORED metadata per block: the scheme's IV/tag bytes
// plus the epochLen-byte key-epoch tag, or 0. trackAlloc marks the
// metadata-free configuration (LayoutNone), which keeps presence and
// epoch in the allocation sidecar attribute instead.
type planner struct {
	layout     Layout
	blockSize  int64
	metaLen    int64
	objectSize int64 // plaintext bytes per object (the data region size)
	trackAlloc bool
}

// objBlocks is the number of encryption blocks per object.
func (p *planner) objBlocks() int64 { return p.objectSize / p.blockSize }

// writeOps builds the atomic op vector persisting cipher (nb blocks) and
// metas (nb*metaLen bytes) for blocks [startBlock, startBlock+nb). It is
// the copying convenience used by tests and tools; the IO hot path seals
// directly into a writePlan's wire buffers instead.
func (p *planner) writeOps(startBlock int64, cipher, metas []byte) []rados.Op {
	nb := int64(len(cipher)) / p.blockSize
	w := p.newWritePlan(startBlock, nb)
	for b := int64(0); b < nb; b++ {
		copy(w.cipherDst(b), cipher[b*p.blockSize:(b+1)*p.blockSize])
		if p.metaLen > 0 {
			copy(w.metaDst(b), metas[b*p.metaLen:(b+1)*p.metaLen])
		}
	}
	// Deliberately never released: the caller owns the op buffers.
	return w.ops()
}

// writePlan stages one extent's wire buffers so the cryptor seals
// ciphertext and metadata directly where the RADOS ops will carry them —
// the layout-aware encryption target that removes the encrypt-then-copy
// stride shuffle from the write path. Buffers come from the datapath
// scratch pool; callers release() the plan once the transaction has been
// issued (Operate marshals payloads before returning, so the bytes are
// no longer referenced).
type writePlan struct {
	p     *planner
	start int64 // object-relative first block
	nb    int64
	wire  []byte // data region; stride-interleaved under LayoutUnaligned
	meta  []byte // separate metadata region (object-end, OMAP); nil otherwise
	keys  []byte // OMAP IV key arena (one pooled buffer for all keys)
}

// newWritePlan allocates pooled wire buffers for nb blocks at startBlock.
func (p *planner) newWritePlan(startBlock, nb int64) *writePlan {
	w := &writePlan{p: p, start: startBlock, nb: nb}
	switch p.layout {
	case LayoutUnaligned:
		w.wire = getBuf(int(nb * (p.blockSize + p.metaLen)))
	default:
		w.wire = getBuf(int(nb * p.blockSize))
		if p.metaLen > 0 {
			w.meta = getBuf(int(nb * p.metaLen))
		}
		if p.layout == LayoutOMAP {
			// All of the plan's OMAP keys share one arena: a large OMAP
			// write used to allocate one small key per block here.
			w.keys = getBuf(int(nb) * omapKeyLen)
		}
	}
	return w
}

// cipherDst returns block b's ciphertext destination inside the wire
// buffer. Under LayoutUnaligned the slice's capacity extends over the
// block's own metadata slot so an AEAD seal can append its tag in place
// (the cryptor relocates tag bytes within the slot afterwards).
func (w *writePlan) cipherDst(b int64) []byte {
	bs := w.p.blockSize
	if w.p.layout == LayoutUnaligned {
		stride := bs + w.p.metaLen
		return w.wire[b*stride : b*stride+bs : (b+1)*stride]
	}
	return w.wire[b*bs : (b+1)*bs : (b+1)*bs]
}

// metaDst returns block b's metadata destination (nil for metadata-free
// layouts).
func (w *writePlan) metaDst(b int64) []byte {
	ml := w.p.metaLen
	if ml == 0 {
		return nil
	}
	if w.p.layout == LayoutUnaligned {
		off := b*(w.p.blockSize+ml) + w.p.blockSize
		return w.wire[off : off+ml]
	}
	return w.meta[b*ml : (b+1)*ml]
}

// sealBlock seals src into block b's wire destination under (sealer,
// epoch): a stored slot's tail is the epoch tag, stamped there, and the
// scheme sees only its own prefix.
func (w *writePlan) sealBlock(sealer cryptor, epoch uint32, b int64, blockIdx uint64, src []byte) error {
	meta := w.metaDst(b)
	if len(meta) > 0 {
		sml := len(meta) - epochLen
		binary.LittleEndian.PutUint32(meta[sml:], epoch)
		meta = meta[:sml]
	}
	return sealer.seal(w.cipherDst(b), src, blockIdx, meta)
}

// ops builds the atomic op vector over the staged buffers, zero-copy.
func (w *writePlan) ops() []rados.Op {
	p := w.p
	switch p.layout {
	case LayoutNone:
		return []rados.Op{{Kind: rados.OpWrite, Off: w.start * p.blockSize, Data: w.wire}}

	case LayoutUnaligned:
		stride := p.blockSize + p.metaLen
		return []rados.Op{{Kind: rados.OpWrite, Off: w.start * stride, Data: w.wire}}

	case LayoutObjectEnd:
		return []rados.Op{
			{Kind: rados.OpWrite, Off: w.start * p.blockSize, Data: w.wire},
			{Kind: rados.OpWrite, Off: p.objectSize + w.start*p.metaLen, Data: w.meta},
		}

	case LayoutOMAP:
		pairs := make([]rados.Pair, w.nb)
		for b := int64(0); b < w.nb; b++ {
			k := w.keys[b*int64(omapKeyLen) : (b+1)*int64(omapKeyLen) : (b+1)*int64(omapKeyLen)]
			omapIVKeyInto(k, w.start+b)
			pairs[b] = rados.Pair{
				Key:   k,
				Value: w.meta[b*p.metaLen : (b+1)*p.metaLen],
			}
		}
		return []rados.Op{
			{Kind: rados.OpWrite, Off: w.start * p.blockSize, Data: w.wire},
			{Kind: rados.OpOmapSet, Pairs: pairs},
		}
	}
	panic("core: unknown layout")
}

// release returns the plan's buffers to the scratch pool. Must not be
// called before every Operate using the plan's ops has returned.
func (w *writePlan) release() {
	putBuf(w.wire)
	if w.meta != nil {
		putBuf(w.meta)
	}
	if w.keys != nil {
		putBuf(w.keys)
	}
	w.wire, w.meta, w.keys = nil, nil, nil
}

// objFetch is one object extent as fetched: the pooled buffers a fetch
// fills, owned by value by whoever issued it (the per-IO slice in the
// read path, a local in the maintenance primitives). A presence probe
// leaves cipher and epochs nil; so does every LayoutUnaligned fetch for
// cipher, whose blocks are opened where they lie in raw.
type objFetch struct {
	cipher  []byte // nb ciphertext blocks (layouts with a separate data region)
	metas   []byte // nb stored metadata slots
	present []byte // 0/1 per block
	epochs  []byte // key-epoch tag per block, little-endian uint32
	raw     []byte // the interleaved stream, as stored (LayoutUnaligned only)
}

// newFetch takes from the pool the buffers a fetch of nb blocks fills,
// and returns with them the data read's destination: the interleaved
// stream under LayoutUnaligned (data and metadata at once, opened in
// place, so a probe reads it too), the ciphertext region otherwise.
func (p *planner) newFetch(nb int64, withData bool) (f objFetch, raw []byte) {
	f.metas = getBuf(int(nb * p.metaLen))
	f.present = getBuf(int(nb))
	if p.layout == LayoutUnaligned {
		f.raw = getBuf(int(nb * (p.blockSize + p.metaLen)))
		raw = f.raw
	} else if withData {
		f.cipher = getBuf(int(nb * p.blockSize))
		raw = f.cipher
	}
	if withData {
		f.epochs = getBuf(int(nb * epochLen))
	}
	return f, raw
}

// epoch is fetched block b's key-epoch tag.
func (f *objFetch) epoch(b int64) uint32 {
	return binary.LittleEndian.Uint32(f.epochs[b*epochLen:])
}

// release returns the buffers to the pool; releasing twice (or a fetch
// that never happened) is a no-op.
func (f *objFetch) release() {
	putBuf(f.cipher)
	putBuf(f.metas)
	putBuf(f.present)
	putBuf(f.epochs)
	putBuf(f.raw)
	*f = objFetch{}
}

// fetchShape states, for this layout, which result of a fetch carries
// what: data is the ciphertext read (-1 for a probe), meta the metadata
// source — the allocation sidecar attribute (LayoutNone), the object-end
// region read, the OMAP key range, or under LayoutUnaligned the
// interleaved stream itself, which carries the ciphertext too (a data
// fetch opens it in place) and which a probe must therefore still read
// (the one layout where presence costs a data transfer, another point
// against Fig. 2a). The last of the n results is always the OpStat: the
// object's logical size is a presence signal, so content never has to be.
func (p *planner) fetchShape(withData bool) (data, meta, n int) {
	data = -1
	if withData {
		data = 0
		if p.layout != LayoutUnaligned {
			meta = 1
		}
	}
	return data, meta, meta + 2
}

// fetchOps builds the op vector reading blocks [startBlock,
// startBlock+nb): ciphertext and metadata, or with withData false the
// cheapest vector that still answers "which of them were ever written?".
// raw and metas are destination plumbing for the in-process fast path:
// fetched bytes land straight in the caller's pooled buffers. Over the
// byte codec the destinations are ignored and the server allocates;
// parseFetch handles both outcomes.
func (p *planner) fetchOps(startBlock, nb int64, withData bool, raw, metas []byte) []rados.Op {
	data, meta, n := p.fetchShape(withData)
	ops := make([]rados.Op, n)
	if data >= 0 && data != meta {
		ops[data] = rados.Op{Kind: rados.OpRead, Off: startBlock * p.blockSize, Len: nb * p.blockSize, Dst: raw}
	}
	switch p.layout {
	case LayoutNone:
		ops[meta] = rados.Op{Kind: rados.OpGetAttr, Key: []byte(allocAttr)}
	case LayoutUnaligned:
		stride := p.blockSize + p.metaLen
		ops[meta] = rados.Op{Kind: rados.OpRead, Off: startBlock * stride, Len: nb * stride, Dst: raw}
	case LayoutObjectEnd:
		ops[meta] = rados.Op{Kind: rados.OpRead, Off: p.objectSize + startBlock*p.metaLen, Len: nb * p.metaLen, Dst: metas}
	case LayoutOMAP:
		ops[meta] = rados.Op{Kind: rados.OpOmapGetRange, Key: omapIVKey(startBlock), Key2: omapIVKey(startBlock + nb)}
	}
	ops[n-1] = rados.Op{Kind: rados.OpStat}
	return ops
}

// readOps is fetchOps with data and no destination plumbing (tests and
// tools).
func (p *planner) readOps(startBlock, nb int64) []rados.Op {
	return p.fetchOps(startBlock, nb, true, nil, nil)
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// sameBacking reports whether two slices share a backing array start —
// the Dst fast path, where a read result already IS the destination.
func sameBacking(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// fillFrom lands src in dst: a plain copy normally, a no-op when the
// result already aliases the destination (in-process reads into Dst).
// Any destination tail beyond src is zeroed either way.
func fillFrom(dst, src []byte) {
	if sameBacking(dst, src) {
		clear(dst[len(src):])
		return
	}
	n := copy(dst, src)
	clear(dst[n:])
}

// parseRead extracts ciphertext and metadata from read results and
// reports, per block, whether the block was ever written. It is the
// allocating convenience wrapper around parseFetch that tests use, and
// the one place an unaligned stream is still de-strided.
func (p *planner) parseRead(startBlock, nb int64, res []rados.Result) (cipher, metas []byte, present []bool, err error) {
	bs, stride := p.blockSize, p.blockSize+p.metaLen
	f := objFetch{
		cipher:  make([]byte, nb*bs),
		metas:   make([]byte, nb*p.metaLen),
		present: make([]byte, nb),
		epochs:  make([]byte, nb*epochLen),
	}
	if p.layout == LayoutUnaligned {
		f.raw = make([]byte, nb*stride)
	}
	if err := p.parseFetch(startBlock, nb, true, res, &f); err != nil {
		return nil, nil, nil, err
	}
	if f.raw != nil {
		for b := int64(0); b < nb; b++ {
			copy(f.cipher[b*bs:(b+1)*bs], f.raw[b*stride:])
		}
	}
	present = make([]bool, nb)
	for i, v := range f.present {
		present[i] = v != 0
	}
	return f.cipher, f.metas, present, nil
}

// parseFetch decodes the results of fetchOps into f: per-block presence
// and stored metadata always; with withData also the ciphertext (left
// interleaved in raw under LayoutUnaligned) and each present block's
// key-epoch tag. It is the only place the presence rules
// exist, so a probe and a data fetch cannot disagree:
//
//   - object StatusNotFound       → every block absent (sparse read);
//   - the OpStat logical size     → a block whose stored footprint lies
//     fully beyond the object's logical size was never written;
//   - metadata-bearing layouts    → an all-zero metadata slot inside the
//     logical size marks an interior hole (a real write leaves a random
//     IV there; the odds of a legitimate all-zero IV are ~2^-128);
//   - LayoutOMAP                  → a block is present iff its IV key
//     exists in the object database (exact per-block presence);
//   - LayoutNone                  → a block is present iff its bit is set
//     in the allocation sidecar, which also carries its epoch (exact
//     presence); an object that exists without its sidecar is
//     errNoSidecar, never a guess;
//   - epoch tag                   → the tail of a present block's slot.
//
// Data content is deliberately never sniffed: a written block whose
// ciphertext happens to be all zeros (plaintext Decrypt(0)) is present
// and decrypts normally.
func (p *planner) parseFetch(startBlock, nb int64, withData bool, res []rados.Result, f *objFetch) error {
	bs, ml := p.blockSize, p.metaLen
	metas, present := f.metas[:nb*ml], f.present[:nb]
	clear(present)
	var cipher, epochs []byte
	if withData {
		epochs = f.epochs[:nb*epochLen]
		clear(epochs)
		if p.layout != LayoutUnaligned {
			cipher = f.cipher[:nb*bs]
		}
	}
	data, meta, n := p.fetchShape(withData)
	if len(res) != n {
		return fmt.Errorf("core: %v fetch returned %d results, want %d", p.layout, len(res), n)
	}
	stat, src := res[n-1], res[meta]
	if stat.Status == rados.StatusNotFound {
		// The destinations may hold stale pool contents (an in-process
		// read into Dst never reached the store); make the hole explicit.
		clear(cipher)
		clear(metas)
		return nil
	}
	if err := stat.Status.Err(); err != nil {
		return err
	}
	if withData {
		if err := res[data].Status.Err(); err != nil {
			return err
		}
		if p.layout != LayoutUnaligned {
			fillFrom(cipher, res[data].Data)
		}
	}
	if p.layout == LayoutNone && src.Status == rados.StatusNotFound {
		return errNoSidecar
	}
	if err := src.Status.Err(); err != nil {
		return err
	}

	// fenceBase + (block+1)*fenceStep is where a block's stored footprint
	// ends (no fence under LayoutOMAP, whose keys are exact).
	var fenceBase, fenceStep int64
	switch p.layout {
	case LayoutNone:
		a, err := decodeObjAlloc(src.Data, p.objBlocks())
		if err != nil {
			return err
		}
		for b := int64(0); b < nb; b++ {
			if a.present(startBlock + b) {
				present[b] = 1
				if epochs != nil {
					binary.LittleEndian.PutUint32(epochs[b*epochLen:], a.epoch(startBlock+b))
				}
			}
		}
		return nil

	case LayoutUnaligned:
		// The stream lands in raw (free when the in-process read already
		// filled it) and stays interleaved: openBlock opens every block
		// where it lies. Only the slots are copied out, for the presence
		// and epoch rules below; raw's zeroed tail reads as empty slots.
		stride := bs + ml
		raw := f.raw[:nb*stride]
		fillFrom(raw, src.Data)
		fenceStep = stride
		for b := int64(0); b < nb; b++ {
			copy(metas[b*ml:(b+1)*ml], raw[b*stride+bs:])
		}

	case LayoutObjectEnd:
		fillFrom(metas, src.Data)
		fenceBase, fenceStep = p.objectSize, ml

	case LayoutOMAP:
		clear(metas)
		for _, pair := range src.Pairs {
			if len(pair.Key) != omapKeyLen || !bytes.HasPrefix(pair.Key, []byte(omapIVPrefix)) {
				continue
			}
			block := int64(binary.BigEndian.Uint64(pair.Key[len(omapIVPrefix):])) - startBlock
			if block < 0 || block >= nb {
				continue
			}
			copy(metas[block*ml:(block+1)*ml], pair.Value)
			present[block] = 1
		}
	}

	for b := int64(0); b < nb; b++ {
		if fenceStep > 0 {
			present[b] = boolByte(fenceBase+(startBlock+b+1)*fenceStep <= stat.Size &&
				!(ml > 0 && allZero(metas[b*ml:(b+1)*ml])))
		}
		if present[b] != 0 && epochs != nil && ml > 0 {
			copy(epochs[b*epochLen:(b+1)*epochLen], metas[(b+1)*ml-epochLen:(b+1)*ml])
		}
	}
	return nil
}

// discardPlan stages the crypto-erase of blocks [startBlock,
// startBlock+nb) as a write plan of zeros: the ciphertext region is
// overwritten and the per-block metadata punched (zeroed in place, or
// the OMAP keys deleted), so every presence rule reports a hole
// afterwards and no retained key can recover the data. The caller
// release()s the plan once every Operate has returned. LayoutNone relies
// on the allocation sidecar for presence — the caller appends the updated
// sidecar attribute to the same transaction.
func (p *planner) discardPlan(startBlock, nb int64) (*writePlan, []rados.Op) {
	w := p.newWritePlan(startBlock, nb)
	clear(w.wire)
	clear(w.meta)
	ops := w.ops()
	if p.layout == LayoutOMAP {
		ops[1].Kind = rados.OpOmapDel
		for i := range ops[1].Pairs {
			ops[1].Pairs[i].Value = nil
		}
	}
	return w, ops
}

// SectorCount is the §3.3 analytic model: the minimum number of physical
// 4 KiB device sectors a single IO of ioBytes must touch under each
// layout (the paper's "4KB write needs 2 sectors vs 1; 32KB needs 9 vs 8"
// discussion). OMAP metadata does not consume data-path sectors — its
// cost is in the database — so its count matches the baseline.
func SectorCount(l Layout, ioBytes, blockSize, metaLen int64) int64 {
	if ioBytes <= 0 || blockSize <= 0 {
		return 0
	}
	nb := (ioBytes + blockSize - 1) / blockSize
	dataSectors := nb
	switch l {
	case LayoutNone, LayoutOMAP:
		return dataSectors
	case LayoutObjectEnd:
		// The batched IV region adds ceil(nb*metaLen / sector) sectors.
		return dataSectors + (nb*metaLen+blockSize-1)/blockSize
	case LayoutUnaligned:
		// The interleaved stream occupies ceil(nb*(block+meta)/sector)
		// sectors: §3.3's "a 4KB write needs 2 sectors" / "a 32KB IO
		// typically requires 9 sectors versus 8". (An IO that starts
		// mid-object can straddle one more boundary, but the paper's
		// counts — and this minimum — are for the aligned start.)
		span := nb * (blockSize + metaLen)
		return (span + blockSize - 1) / blockSize
	}
	return dataSectors
}
