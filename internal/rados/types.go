// Package rados implements a miniature RADOS: replicated object storage
// with atomic multi-op transactions, OMAP, attributes and self-managed
// snapshots, served by OSD daemons over the msgr transport. It is the
// substrate substitution for the paper's Ceph cluster (DESIGN.md §2): the
// experiments need RADOS' structural path — client → primary OSD →
// replicas → per-disk object stores — and its transaction atomicity,
// both of which are real here.
package rados

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/telemetry"
	"repro/internal/vtime"
)

// OpKind enumerates object operations.
type OpKind uint8

// Operation kinds. Writes (everything except OpRead, OpStat, OpGetAttr,
// OpOmapGetRange) mutate and are replicated.
const (
	OpRead OpKind = iota + 1
	OpWrite
	OpTruncate
	OpDelete
	OpStat
	OpOmapSet
	OpOmapDel
	OpOmapGetRange
	OpGetAttr
	OpSetAttr
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpTruncate:
		return "truncate"
	case OpDelete:
		return "delete"
	case OpStat:
		return "stat"
	case OpOmapSet:
		return "omap-set"
	case OpOmapDel:
		return "omap-del"
	case OpOmapGetRange:
		return "omap-get-range"
	case OpGetAttr:
		return "getattr"
	case OpSetAttr:
		return "setattr"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Mutates reports whether the op kind changes object state.
func (k OpKind) Mutates() bool {
	switch k {
	case OpRead, OpStat, OpGetAttr, OpOmapGetRange:
		return false
	}
	return true
}

// Pair is a key-value pair for OMAP and attribute operations.
type Pair struct {
	Key   []byte
	Value []byte
}

// Op is a single object operation inside a request. Field use by kind:
//
//	OpRead:         Off, Len
//	OpWrite:        Off, Data
//	OpTruncate:     Off (the new size)
//	OpDelete:       —
//	OpStat:         —
//	OpOmapSet:      Pairs
//	OpOmapDel:      Pairs (keys only)
//	OpOmapGetRange: Key (lo), Key2 (hi, empty = end), Len (limit, 0 = all)
//	OpGetAttr:      Key
//	OpSetAttr:      Key, Data
type Op struct {
	Kind  OpKind
	Off   int64
	Len   int64
	Key   []byte
	Key2  []byte
	Data  []byte
	Pairs []Pair

	// Dst, when non-nil on an OpRead with len(Dst) == Len, is the
	// caller-owned destination buffer for the in-process fast path: the
	// OSD reads straight into it and the result's Data aliases it, so a
	// fetched block lands in the client's (typically pooled) buffer with
	// zero intermediate copies. It is client-local plumbing — never
	// marshaled — so reads that cross the byte codec allocate at the
	// server exactly as before. Callers providing Dst must treat its
	// contents as unspecified unless the op's result status is OK.
	Dst []byte
}

// Status is a per-op result code.
type Status int32

// Result statuses.
const (
	StatusOK Status = iota
	StatusNotFound
	StatusInvalid
	StatusNoSpace
	StatusError
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "not-found"
	case StatusInvalid:
		return "invalid"
	case StatusNoSpace:
		return "no-space"
	default:
		return "error"
	}
}

// Err converts a non-OK status to an error.
func (s Status) Err() error {
	if s == StatusOK {
		return nil
	}
	switch s {
	case StatusNotFound:
		return ErrNotFound
	case StatusInvalid:
		return ErrInvalid
	case StatusNoSpace:
		return ErrNoSpace
	default:
		return errors.New("rados: operation failed")
	}
}

// Sentinel errors mapped from statuses.
var (
	ErrNotFound = errors.New("rados: object not found")
	ErrInvalid  = errors.New("rados: invalid operation")
	ErrNoSpace  = errors.New("rados: out of space")
)

// Result is the outcome of one op.
type Result struct {
	Status Status
	Data   []byte
	Pairs  []Pair
	Size   int64
}

// SnapContext accompanies writes: Seq is the most recent snapshot id of
// the image; a write to an object whose last write predates Seq triggers
// clone-on-write. The zero SnapContext means "no snapshots".
type SnapContext struct {
	Seq uint64
}

// Request is one client→OSD (or primary→replica) message.
type Request struct {
	Pool    string
	Object  string
	SnapID  uint64 // read source: 0 = head, else snapshot id
	SnapSeq uint64 // write snap context
	TraceID uint64 // wire trace context: 0 = untraced
	Replica bool   // internal: apply locally, do not re-replicate
	Ops     []Op

	// Span, when non-nil, is the telemetry trace for this request. Like
	// Op.Dst it is client-local plumbing — never marshaled, absent from
	// WireLen — and a span admits one writer at a time, so the
	// replication fan-out clears it on forwards (replicas run on their
	// own goroutines). The trace *context* travels anyway: TraceID is a
	// real header field on both wire forms, servers answer traced
	// requests with their serve hops in Reply.Hops, and the client (or
	// the forwarding primary) merges those back into the span — so
	// replica serves and byte-codec crossings stitch into one timeline.
	Span *telemetry.Span

	// AttrClass is the request's attribution class (an attr op index),
	// precomputed by the client so the transport can attribute wire time
	// without rescanning the op vector. Client-local plumbing like Span:
	// never marshaled, absent from WireLen, and preserved by the
	// replication fan-out's struct copy.
	AttrClass int
}

// TraceSpan exposes the request's span through msgr.SpanCarrier, so the
// transport can record its hops without importing this package.
func (r *Request) TraceSpan() *telemetry.Span { return r.Span }

// AttrOp exposes the request's attribution class through
// msgr.AttrCarrier, so the transport can feed the wire phase of the
// always-on attribution histograms without importing this package.
func (r *Request) AttrOp() int { return r.AttrClass }

// Reply carries one Result per request op, plus the server-side trace
// hops (the OSD's serve timing and, on a primary's reply, the merged
// replica hops and the replication fan-out). Hops is empty on untraced
// requests unless the serve crossed the slow-op threshold — OSDs
// self-promote over-threshold serves so the tail is always captured —
// so tracing costs wire bytes only on sampled or slow ops; both wire
// forms carry it identically, so WireLen stays a pure function of
// message content.
type Reply struct {
	Results []Result
	Hops    []telemetry.Hop
}

// ---- wire encoding ----
//
// Messages cross connections as typed structs (roundTrip in client.go);
// the byte codec below is the reference encoding whose size WireLen
// reports and the cost model charges (DESIGN.md "One transport, one
// reference encoding"). It has two producers:
//
//   - Marshal/Unmarshal produce and parse the flat little-endian
//     encoding — the form the in-process byte loopback carries and the
//     fuzz targets pin. Unmarshal is zero-copy: decoded Key/Data/Pair
//     slices alias the input buffer, which the caller must therefore
//     treat as immutable and unpooled for the lifetime of the decoded
//     message.
//   - MarshalV packs every fixed field and small payload into a
//     caller-provided (typically pooled) header buffer and references —
//     not copies — large payloads, yielding a segment list whose
//     concatenation is byte-identical to Marshal.

// ErrWire reports a malformed message.
var ErrWire = errors.New("rados: malformed message")

// segRefCutoff is the smallest payload MarshalV references instead of
// copying into the header segment. Below it (OMAP keys, IVs, tags) the
// copy is cheaper than the extra segments it would take to carry the
// length prefix and the payload separately.
const segRefCutoff = 256

type wireReader struct {
	buf []byte
	off int
	err error
}

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = ErrWire
	}
}

func (r *wireReader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail()
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *wireReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *wireReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *wireReader) i64() int64 { return int64(r.u64()) }

// bytes returns the next length-prefixed field as a view into the input
// buffer — zero-copy; see the package wire-form notes on input ownership.
func (r *wireReader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	v := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

func (r *wireReader) str() string { return string(r.bytes()) }

// pairs decodes a pair vector. Keys and values alias the input buffer
// (zero-copy), so a reply's OMAP pairs cost one []Pair allocation total
// regardless of pair count — the per-block IV reads of the omap layout
// used to pay two copies per pair here.
func (r *wireReader) pairs() []Pair {
	n := int(r.u32())
	// Every pair needs at least its two length prefixes, which bounds a
	// hostile count before the []Pair allocation.
	if r.err != nil || n < 0 || n > (len(r.buf)-r.off)/8 {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	ps := make([]Pair, n)
	for i := 0; i < n; i++ {
		ps[i].Key = r.bytes()
		ps[i].Value = r.bytes()
		if r.err != nil {
			return nil
		}
	}
	return ps
}

// pairsWireLen is the encoded size of a pair vector.
func pairsWireLen(ps []Pair) int {
	n := 4
	for _, p := range ps {
		n += 8 + len(p.Key) + len(p.Value)
	}
	return n
}

// WireLen reports the exact byte-codec encoding size of the request —
// len(q.Marshal()) without marshaling. The typed in-process transport
// charges it to the network cost model so both wire forms cost the same
// virtual time.
func (q *Request) WireLen() int {
	n := 4 + len(q.Pool) + 4 + len(q.Object) + 8 + 8 + 8 + 1 + 4
	for _, op := range q.Ops {
		n += 1 + 8 + 8 + 4 + len(op.Key) + 4 + len(op.Key2) + 4 + len(op.Data) + pairsWireLen(op.Pairs)
	}
	return n
}

// WireLen reports the exact byte-codec encoding size of the reply.
func (p *Reply) WireLen() int {
	n := 4
	for _, res := range p.Results {
		n += 4 + 8 + 4 + len(res.Data) + pairsWireLen(res.Pairs)
	}
	n += 4
	for _, h := range p.Hops {
		n += 4 + len(h.Name) + 8 + 8
	}
	return n
}

// segWriter builds the scatter-gather encoding: fixed fields and small
// payloads accumulate in hdr (caller-provided, typically pooled), while
// payloads of at least segRefCutoff bytes become reference segments.
// Flushed header runs stay valid even when a later append reallocates
// hdr: their bytes are already written and never touched again. With
// inlineAll set, every payload is copied into hdr instead — the flat
// Marshal form, encoded in exactly one WireLen-sized buffer.
type segWriter struct {
	hdr       []byte
	segs      [][]byte
	runStart  int
	inlineAll bool
}

func (w *segWriter) flushRun() {
	if len(w.hdr) > w.runStart {
		w.segs = append(w.segs, w.hdr[w.runStart:len(w.hdr):len(w.hdr)])
		w.runStart = len(w.hdr)
	}
}

func (w *segWriter) u8(v uint8)   { w.hdr = append(w.hdr, v) }
func (w *segWriter) u32(v uint32) { w.hdr = binary.LittleEndian.AppendUint32(w.hdr, v) }
func (w *segWriter) u64(v uint64) { w.hdr = binary.LittleEndian.AppendUint64(w.hdr, v) }
func (w *segWriter) i64(v int64)  { w.u64(uint64(v)) }

func (w *segWriter) bytes(b []byte) {
	w.u32(uint32(len(b)))
	if !w.inlineAll && len(b) >= segRefCutoff {
		w.flushRun()
		w.segs = append(w.segs, b)
		return
	}
	w.hdr = append(w.hdr, b...)
}

func (w *segWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.hdr = append(w.hdr, s...)
}

func (w *segWriter) pairs(ps []Pair) {
	w.u32(uint32(len(ps)))
	for _, p := range ps {
		w.bytes(p.Key)
		w.bytes(p.Value)
	}
}

func marshalRequestInto(q *Request, w *segWriter) {
	w.str(q.Pool)
	w.str(q.Object)
	w.u64(q.SnapID)
	w.u64(q.SnapSeq)
	w.u64(q.TraceID)
	if q.Replica {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u32(uint32(len(q.Ops)))
	for i := range q.Ops {
		op := &q.Ops[i]
		w.u8(uint8(op.Kind))
		w.i64(op.Off)
		w.i64(op.Len)
		w.bytes(op.Key)
		w.bytes(op.Key2)
		w.bytes(op.Data)
		w.pairs(op.Pairs)
	}
	w.flushRun()
}

func marshalReplyInto(p *Reply, w *segWriter) {
	w.u32(uint32(len(p.Results)))
	for i := range p.Results {
		res := &p.Results[i]
		w.u32(uint32(res.Status))
		w.i64(res.Size)
		w.bytes(res.Data)
		w.pairs(res.Pairs)
	}
	w.u32(uint32(len(p.Hops)))
	for i := range p.Hops {
		h := &p.Hops[i]
		w.str(h.Name)
		w.i64(int64(h.Start))
		w.i64(int64(h.End))
	}
	w.flushRun()
}

// MarshalV encodes the request as a scatter-gather segment list whose
// concatenation is byte-identical to Marshal. hdr is the header scratch
// buffer (pass a pooled slice; its contents are overwritten) and is
// returned grown so the caller can recycle it once the transport call
// has completed. Payload segments reference the request's own slices —
// nothing payload-sized is copied.
func (q *Request) MarshalV(hdr []byte) (segs [][]byte, hdrOut []byte) {
	w := segWriter{hdr: hdr[:0]}
	marshalRequestInto(q, &w)
	return w.segs, w.hdr
}

// Marshal serializes a request with the flat byte codec: one exact
// WireLen-sized allocation, everything inline.
func (q *Request) Marshal() []byte {
	w := segWriter{hdr: make([]byte, 0, q.WireLen()), inlineAll: true}
	marshalRequestInto(q, &w)
	return w.hdr
}

// MarshalV encodes the reply as a scatter-gather segment list; see
// Request.MarshalV for the contract.
func (p *Reply) MarshalV(hdr []byte) (segs [][]byte, hdrOut []byte) {
	w := segWriter{hdr: hdr[:0]}
	marshalReplyInto(p, &w)
	return w.segs, w.hdr
}

// Marshal serializes a reply with the flat byte codec: one exact
// WireLen-sized allocation, everything inline.
func (p *Reply) Marshal() []byte {
	w := segWriter{hdr: make([]byte, 0, p.WireLen()), inlineAll: true}
	marshalReplyInto(p, &w)
	return w.hdr
}

// UnmarshalRequest parses a request. The returned request aliases b:
// Key/Key2/Data and pair slices point into it, so the caller must keep b
// immutable (and out of any buffer pool) for the lifetime of the result.
func UnmarshalRequest(b []byte) (*Request, error) {
	r := &wireReader{buf: b}
	q := &Request{
		Pool:    r.str(),
		Object:  r.str(),
		SnapID:  r.u64(),
		SnapSeq: r.u64(),
		TraceID: r.u64(),
		Replica: r.u8() == 1,
	}
	n := int(r.u32())
	// Every op occupies at least its fixed fields plus four empty
	// vectors, which bounds a hostile count before the ops allocation.
	if r.err != nil || n < 0 || n > (len(b)-r.off)/33 {
		return nil, ErrWire
	}
	q.Ops = make([]Op, 0, n)
	for i := 0; i < n; i++ {
		op := Op{
			Kind:  OpKind(r.u8()),
			Off:   r.i64(),
			Len:   r.i64(),
			Key:   r.bytes(),
			Key2:  r.bytes(),
			Data:  r.bytes(),
			Pairs: r.pairs(),
		}
		if r.err != nil {
			return nil, r.err
		}
		q.Ops = append(q.Ops, op)
	}
	if r.off != len(b) {
		return nil, ErrWire
	}
	return q, r.err
}

// UnmarshalReply parses a reply. Like UnmarshalRequest, the result
// aliases b.
func UnmarshalReply(b []byte) (*Reply, error) {
	r := &wireReader{buf: b}
	n := int(r.u32())
	// Fixed fields plus two empty vectors bound a hostile result count.
	if r.err != nil || n < 0 || n > (len(b)-r.off)/20 {
		return nil, ErrWire
	}
	p := &Reply{Results: make([]Result, 0, n)}
	for i := 0; i < n; i++ {
		res := Result{
			Status: Status(r.u32()),
			Size:   r.i64(),
			Data:   r.bytes(),
			Pairs:  r.pairs(),
		}
		if r.err != nil {
			return nil, r.err
		}
		p.Results = append(p.Results, res)
	}
	nh := int(r.u32())
	// Fixed times plus an empty name bound a hostile hop count. Hop
	// names cross the codec as owned strings (str copies), so they never
	// alias b.
	if r.err != nil || nh < 0 || nh > (len(b)-r.off)/20 {
		return nil, ErrWire
	}
	for i := 0; i < nh; i++ {
		h := telemetry.Hop{
			Name:  r.str(),
			Start: vtime.Time(r.i64()),
			End:   vtime.Time(r.i64()),
		}
		if r.err != nil {
			return nil, r.err
		}
		p.Hops = append(p.Hops, h)
	}
	if r.off != len(b) {
		return nil, ErrWire
	}
	return p, r.err
}
