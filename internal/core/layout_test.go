package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rados"
)

// fakeStore executes a planner's ops against a flat in-memory object with
// an OMAP map and attributes — a model of one RADOS object for
// layout-only testing. It tracks the logical size the way the blobstore
// does (high-water mark of write ends), which parseRead uses as its
// presence signal.
type fakeStore struct {
	data  []byte
	size  int64
	omap  map[string][]byte
	attrs map[string][]byte
}

func newFakeStore(capacity int64) *fakeStore {
	return &fakeStore{data: make([]byte, capacity), omap: map[string][]byte{}, attrs: map[string][]byte{}}
}

func (f *fakeStore) apply(ops []rados.Op) []rados.Result {
	out := make([]rados.Result, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case rados.OpWrite:
			copy(f.data[op.Off:], op.Data)
			if end := op.Off + int64(len(op.Data)); end > f.size {
				f.size = end
			}
			out[i] = rados.Result{Status: rados.StatusOK}
		case rados.OpOmapSet:
			for _, p := range op.Pairs {
				f.omap[string(p.Key)] = append([]byte(nil), p.Value...)
			}
			out[i] = rados.Result{Status: rados.StatusOK}
		case rados.OpRead:
			out[i] = rados.Result{Status: rados.StatusOK, Data: append([]byte(nil), f.data[op.Off:op.Off+op.Len]...)}
		case rados.OpSetAttr:
			f.attrs[string(op.Key)] = append([]byte(nil), op.Data...)
			out[i] = rados.Result{Status: rados.StatusOK}
		case rados.OpGetAttr:
			v, ok := f.attrs[string(op.Key)]
			if !ok {
				out[i] = rados.Result{Status: rados.StatusNotFound}
				continue
			}
			out[i] = rados.Result{Status: rados.StatusOK, Data: v}
		case rados.OpStat:
			out[i] = rados.Result{Status: rados.StatusOK, Size: f.size}
		case rados.OpOmapGetRange:
			var pairs []rados.Pair
			for k, v := range f.omap {
				if k >= string(op.Key) && (len(op.Key2) == 0 || k < string(op.Key2)) {
					pairs = append(pairs, rados.Pair{Key: []byte(k), Value: v})
				}
			}
			out[i] = rados.Result{Status: rados.StatusOK, Pairs: pairs}
		default:
			out[i] = rados.Result{Status: rados.StatusInvalid}
		}
	}
	return out
}

// Property: for every layout, writeOps followed by readOps+parseRead
// recovers exactly the ciphertext and metadata that were written, for
// arbitrary block runs — the layout math is lossless and position-stable.
func TestPlannerRoundTripProperty(t *testing.T) {
	const objectSize = 1 << 20 // 256 blocks
	layouts := []struct {
		layout  Layout
		metaLen int64
	}{
		{LayoutNone, 0},
		{LayoutUnaligned, 16},
		{LayoutObjectEnd, 16},
		{LayoutOMAP, 16},
		{LayoutUnaligned, 28},
		{LayoutObjectEnd, 28},
		{LayoutOMAP, 28},
	}
	for _, lc := range layouts {
		p := &planner{layout: lc.layout, blockSize: 4096, metaLen: lc.metaLen, objectSize: objectSize, trackAlloc: lc.metaLen == 0}
		store := newFakeStore(objectSize + objectSize/4096*lc.metaLen + 4096)
		written := map[int64][2][]byte{} // block -> (cipher, meta)
		alloc := newObjAlloc(p.objBlocks())

		f := func(start16 uint8, n8 uint8, seed int64) bool {
			start := int64(start16) % 250
			nb := int64(n8)%6 + 1
			if start+nb > 256 {
				nb = 256 - start
			}
			rng := rand.New(rand.NewSource(seed))
			cipher := make([]byte, nb*4096)
			rng.Read(cipher)
			metas := make([]byte, nb*lc.metaLen)
			rng.Read(metas)

			ops := p.writeOps(start, cipher, metas)
			if p.trackAlloc {
				// The sidecar rides in the same transaction, as resealObject
				// appends it.
				for b := start; b < start+nb; b++ {
					alloc.set(b, 0)
				}
				ops = append(ops, sidecarOp(alloc))
			}
			store.apply(ops)
			for b := int64(0); b < nb; b++ {
				written[start+b] = [2][]byte{
					append([]byte(nil), cipher[b*4096:(b+1)*4096]...),
					append([]byte(nil), metas[b*lc.metaLen:(b+1)*lc.metaLen]...),
				}
			}

			// Read back a window that includes the write plus neighbors.
			rs := start - 2
			if rs < 0 {
				rs = 0
			}
			rn := nb + 4
			if rs+rn > 256 {
				rn = 256 - rs
			}
			res := store.apply(p.readOps(rs, rn))
			gotCipher, gotMeta, present, err := p.parseRead(rs, rn, res)
			if err != nil {
				return false
			}
			for b := int64(0); b < rn; b++ {
				w, ok := written[rs+b]
				if !ok {
					continue // never written: content unspecified (zeros)
				}
				if !present[b] {
					return false // a written block must read as present
				}
				if !bytes.Equal(gotCipher[b*4096:(b+1)*4096], w[0]) {
					return false
				}
				if !bytes.Equal(gotMeta[b*lc.metaLen:(b+1)*lc.metaLen], w[1]) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
			t.Fatalf("layout %v meta %d: %v", lc.layout, lc.metaLen, err)
		}
	}
}

// Property: SectorCount is monotone in IO size and never below baseline.
func TestSectorCountMonotoneProperty(t *testing.T) {
	f := func(kb16 uint16) bool {
		io := (int64(kb16)%4096 + 1) << 10
		base := SectorCount(LayoutNone, io, 4096, 16)
		for _, l := range []Layout{LayoutUnaligned, LayoutObjectEnd, LayoutOMAP} {
			c := SectorCount(l, io, 4096, 16)
			if c < base {
				return false
			}
			// Monotone: a larger IO never touches fewer sectors.
			if SectorCount(l, io+4096, 4096, 16) < c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSectorCountPaperFigures pins the §3.3 in-text numbers for every
// layout: "in a 4KB write/read, a minimum of two physical disk sectors
// need to be accessed (one for the data and one for the IV) versus one in
// the baseline", and "a 32KB IO typically requires 9 sectors to be
// accessed versus 8". The unaligned layout used to double-count the
// stride-boundary sector (3 and 10); these pins guard the fix.
func TestSectorCountPaperFigures(t *testing.T) {
	cases := []struct {
		layout Layout
		ioKB   int64
		want   int64
	}{
		{LayoutNone, 4, 1},
		{LayoutNone, 32, 8},
		{LayoutUnaligned, 4, 2},
		{LayoutUnaligned, 32, 9},
		{LayoutObjectEnd, 4, 2},
		{LayoutObjectEnd, 32, 9},
		{LayoutOMAP, 4, 1},
		{LayoutOMAP, 32, 8},
	}
	for _, c := range cases {
		if got := SectorCount(c.layout, c.ioKB<<10, 4096, 16); got != c.want {
			t.Errorf("SectorCount(%v, %dK) = %d, want %d", c.layout, c.ioKB, got, c.want)
		}
	}
}

func TestOmapIVKeyOrdering(t *testing.T) {
	// Keys must sort numerically so range scans return contiguous blocks.
	prev := omapIVKey(0)
	for b := int64(1); b < 2000; b += 37 {
		k := omapIVKey(b)
		if bytes.Compare(prev, k) >= 0 {
			t.Fatalf("ordering broken at block %d", b)
		}
		prev = k
	}
}

// renderOps prints an op vector field by field — kind, Off, Len,
// len(Data), keys, pair keys with value lengths, and which caller buffer
// a read lands in — one string per op (one result per op: the vector's
// length is the result arity).
func renderOps(ops []rados.Op, raw, metas []byte) []string {
	out := make([]string, len(ops))
	for i, op := range ops {
		s := fmt.Sprintf("%v off=%d len=%d data=%d", op.Kind, op.Off, op.Len, len(op.Data))
		if op.Key != nil {
			s += fmt.Sprintf(" key=%q", op.Key)
		}
		if op.Key2 != nil {
			s += fmt.Sprintf(" key2=%q", op.Key2)
		}
		for _, pr := range op.Pairs {
			s += fmt.Sprintf(" %q:%d", pr.Key, len(pr.Value))
		}
		switch {
		case sameBacking(op.Dst, raw):
			s += " dst=raw"
		case sameBacking(op.Dst, metas):
			s += " dst=metas"
		}
		out[i] = s
	}
	return out
}

// TestOpVectorsGolden pins the wire: the literal op vectors every layout
// issued for a read, a presence probe, a write plan and a discard of
// blocks [3, 8) before the fetch builders were unified (4 KiB blocks,
// 4 MiB objects, 16-byte IV + epoch tag). A changed vector changes what
// every deployed image's OSDs are asked, and the benchmark's
// requests-per-op and device-bytes metrics with it.
func TestOpVectorsGolden(t *testing.T) {
	const (
		ivKeys = ` "iv.\x00\x00\x00\x00\x00\x00\x00\x03":20 "iv.\x00\x00\x00\x00\x00\x00\x00\x04":20` +
			` "iv.\x00\x00\x00\x00\x00\x00\x00\x05":20 "iv.\x00\x00\x00\x00\x00\x00\x00\x06":20` +
			` "iv.\x00\x00\x00\x00\x00\x00\x00\a":20`
		ivRange = ` key="iv.\x00\x00\x00\x00\x00\x00\x00\x03" key2="iv.\x00\x00\x00\x00\x00\x00\x00\b"`
	)
	golden := []struct {
		layout                      Layout
		metaLen                     int64
		read, probe, write, discard []string
	}{
		{LayoutNone, 0,
			[]string{"read off=12288 len=20480 data=0 dst=raw", `getattr off=0 len=0 data=0 key="core.alloc"`, "stat off=0 len=0 data=0"},
			[]string{`getattr off=0 len=0 data=0 key="core.alloc"`, "stat off=0 len=0 data=0"},
			[]string{"write off=12288 len=0 data=20480"},
			[]string{"write off=12288 len=0 data=20480"}},
		{LayoutUnaligned, 20,
			[]string{"read off=12348 len=20580 data=0 dst=raw", "stat off=0 len=0 data=0"},
			[]string{"read off=12348 len=20580 data=0 dst=raw", "stat off=0 len=0 data=0"},
			[]string{"write off=12348 len=0 data=20580"},
			[]string{"write off=12348 len=0 data=20580"}},
		{LayoutObjectEnd, 20,
			[]string{"read off=12288 len=20480 data=0 dst=raw", "read off=4194364 len=100 data=0 dst=metas", "stat off=0 len=0 data=0"},
			[]string{"read off=4194364 len=100 data=0 dst=metas", "stat off=0 len=0 data=0"},
			[]string{"write off=12288 len=0 data=20480", "write off=4194364 len=0 data=100"},
			[]string{"write off=12288 len=0 data=20480", "write off=4194364 len=0 data=100"}},
		{LayoutOMAP, 20,
			[]string{"read off=12288 len=20480 data=0 dst=raw", "omap-get-range off=0 len=0 data=0" + ivRange, "stat off=0 len=0 data=0"},
			[]string{"omap-get-range off=0 len=0 data=0" + ivRange, "stat off=0 len=0 data=0"},
			[]string{"write off=12288 len=0 data=20480", "omap-set off=0 len=0 data=0" + ivKeys},
			[]string{"write off=12288 len=0 data=20480", "omap-del off=0 len=0 data=0" + strings.ReplaceAll(ivKeys, ":20", ":0")}},
	}
	for _, g := range golden {
		p := &planner{layout: g.layout, blockSize: 4096, metaLen: g.metaLen, objectSize: 4 << 20,
			trackAlloc: g.metaLen == 0}
		raw, metas := make([]byte, 5*(4096+g.metaLen)), make([]byte, 5*max(g.metaLen, 1))
		w := p.newWritePlan(3, 5)
		d, discard := p.discardPlan(3, 5)
		for _, c := range []struct {
			name      string
			got, want []string
		}{
			{"read", renderOps(p.fetchOps(3, 5, true, raw, metas), raw, metas), g.read},
			{"probe", renderOps(p.fetchOps(3, 5, false, raw, metas), raw, metas), g.probe},
			{"write", renderOps(w.ops(), nil, nil), g.write},
			{"discard", renderOps(discard, nil, nil), g.discard},
		} {
			if !slices.Equal(c.got, c.want) {
				t.Errorf("%v %s ops:\n got %q\nwant %q", g.layout, c.name, c.got, c.want)
			}
		}
		for _, op := range discard {
			if !allZero(op.Data) {
				t.Errorf("%v discard writes non-zero bytes", g.layout)
			}
		}
		w.release()
		d.release()
	}
}
