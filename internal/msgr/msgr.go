// Package msgr is the messenger between RADOS clients and OSDs: framed
// request/response with virtual timestamps carried alongside payloads.
//
// There is one transport, in-process, and it models a network path the
// way the paper's testbed behaves: a per-stream link (the ~13 Gb/s iperf
// figure from §3.2) feeding a shared NIC (100 Gb/s), plus propagation
// latency, all charged to vtime resources. A request crosses it either
// as a typed message (CallTyped — what every production caller uses) or
// as bytes (Call — the loopback that keeps the byte codec honest as the
// reference encoding); both run the same admit/complete halves, so cost
// model, fault injection and accounting exist once.
package msgr

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/telemetry/attr"
	"repro/internal/vtime"
)

// Dispatch accounting: typed (zero-marshal fast path) vs byte-codec
// calls, and the wire bytes each form charged. Handles are resolved at
// init; the call paths record with atomic adds only (see METRICS.md).
var (
	mCallsVec = telemetry.NewCounterVec("msgr_calls_total",
		"messenger round trips by wire form", "path")
	mBytesVec = telemetry.NewCounterVec("msgr_bytes_total",
		"request+reply wire bytes charged, by wire form", "path")
	mCallsTyped = mCallsVec.With("typed")
	mCallsBytes = mCallsVec.With("bytes")
	mBytesTyped = mBytesVec.With("typed")
	mBytesBytes = mBytesVec.With("bytes")
	// mOutstanding is the why-signal for wire backpressure: round trips
	// currently in flight across all connections (health's
	// msgr-outstanding-high rule watches it).
	mOutstanding = telemetry.NewGauge("msgr_outstanding_requests",
		"messenger round trips currently in flight")
)

// Handler services one request. The at argument is the request's virtual
// arrival time at the server; the returned time is when the reply payload
// is ready to transmit.
type Handler func(at vtime.Time, req []byte) (resp []byte, done vtime.Time, err error)

// Msg is a typed wire message. WireLen reports the exact byte-codec
// encoding size, so a transport that never marshals the message (the
// in-process fast path) can charge the cost model identically to one
// that does.
type Msg interface{ WireLen() int }

// TypedHandler services one request without the byte codec: the request
// arrives as the client's typed message, and the reply returns the same
// way. The handler must copy anything it persists before returning — the
// caller owns the request's payload buffers and may recycle them as soon
// as the call completes.
type TypedHandler func(at vtime.Time, req Msg) (resp Msg, done vtime.Time, err error)

// Conn is a client's connection to one server.
type Conn interface {
	// Call sends a request at virtual time at and returns the reply and
	// its virtual delivery time.
	Call(at vtime.Time, req []byte) (resp []byte, end vtime.Time, err error)
	Close() error
}

// TypedConn is the in-process fast path: requests and replies cross the
// connection as typed messages, skipping the marshal/unmarshal round
// trip entirely while still being charged their full wire size. Conns
// advertise it only when their server registered a TypedHandler, so a
// successful type assertion is a usable fast path.
type TypedConn interface {
	Conn
	CallTyped(at vtime.Time, req Msg) (resp Msg, end vtime.Time, err error)
}

// SpanCarrier is implemented by typed messages that carry a telemetry
// trace span (rados.Request). The typed transport records its transmit
// hops on the span; byte-codec messages carry no span and cross the
// wire untraced. A nil span from a carrier is fine — every span method
// is nil-safe.
type SpanCarrier interface{ TraceSpan() *telemetry.Span }

// AttrCarrier is implemented by typed messages that know their
// attribution class (rados.Request). The transport attributes the
// message's wire transit time to that class's wire phase; byte-codec
// calls carry no class and attribute to "other" — a documented
// compromise, since the byte form is the compatibility oracle, not the
// hot path.
type AttrCarrier interface{ AttrOp() int }

// ErrClosed reports use of a closed connection.
var ErrClosed = errors.New("msgr: connection closed")

// JoinSegs flattens a scatter-gather segment list into one contiguous
// buffer — how a MarshalV encoding becomes the flat form Call carries
// and the codec oracles compare against.
func JoinSegs(segs [][]byte) []byte {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	out := make([]byte, 0, total)
	for _, s := range segs {
		out = append(out, s...)
	}
	return out
}

// LinkCost models one direction of a network path.
type LinkCost struct {
	// Latency is the propagation delay per message.
	Latency time.Duration
	// StreamPerByte is the per-byte cost of this connection's stream
	// (13 Gb/s in the paper's measurement).
	StreamPerByte float64
	// NIC is the shared endpoint resource all streams of one host
	// contend on; a nil NIC is free.
	NIC *vtime.Resource
	// NICPerByte is the per-byte cost on the shared NIC (100 Gb/s links).
	NICPerByte float64
}

// DefaultLinkCost mirrors the paper's environment: 100 Gb/s NICs with
// ~13 Gb/s achieved per stream and tens of microseconds of latency.
func DefaultLinkCost(nic *vtime.Resource) LinkCost {
	return LinkCost{
		Latency:       30 * time.Microsecond,
		StreamPerByte: vtime.PerByteOfBandwidth(13e9 / 8),
		NIC:           nic,
		NICPerByte:    vtime.PerByteOfBandwidth(100e9 / 8),
	}
}

// transmit charges one message in one direction and returns its delivery
// time.
func (lc LinkCost) transmit(at vtime.Time, stream *vtime.Resource, n int) vtime.Time {
	end := stream.Use(at, vtime.Duration(float64(n)*lc.StreamPerByte))
	end = lc.NIC.Use(end, vtime.Duration(float64(n)*lc.NICPerByte))
	return end.Add(lc.Latency)
}

// InProcServer dispatches requests to a handler with per-connection
// stream resources.
type InProcServer struct {
	handler Handler
	typed   TypedHandler
	mu      sync.Mutex
	closed  bool

	// faults, when armed, injects network-level failures (dropped,
	// delayed and duplicated replies, connection resets, crash windows)
	// on every connection to this server, from a deterministic plan.
	faults atomic.Pointer[fault.Injector]
}

// NewInProcServer wraps a handler.
func NewInProcServer(h Handler) *InProcServer {
	return &InProcServer{handler: h}
}

// SetTypedHandler registers the typed fast-path handler. Connections
// created after this call implement TypedConn. Register before wiring
// connections; the byte handler stays as the codec-compatibility path.
func (s *InProcServer) SetTypedHandler(th TypedHandler) {
	s.typed = th
}

// SetFaults arms (or, with nil, disarms) plan-driven fault injection on
// every connection to this server. An injected OSD crash is a crash
// window in the injector's config: calls arriving inside the window
// fail with fault.ErrOSDDown, and calls after it succeed again — a
// crash/restart cycle with the server's state intact (the in-process
// store is the OSD's durable disk, which a real restart would recover).
func (s *InProcServer) SetFaults(in *fault.Injector) { s.faults.Store(in) }

// injectBefore applies the faults that strike before the handler runs.
func (s *InProcServer) injectBefore(arrive vtime.Time) error {
	in := s.faults.Load()
	if in.Down(arrive) {
		return fmt.Errorf("msgr: %w", fault.ErrOSDDown)
	}
	if in.HitAt(arrive, fault.ConnReset) {
		// The request is lost on the wire: the server never saw it.
		return fmt.Errorf("msgr: %w", fault.ErrConnReset)
	}
	return nil
}

// injectAfter applies the faults that strike a reply. dropped=true
// means the handler ran (its effects are durable) but the client must
// see a failure — the ack-loss case idempotent protocols exist for.
func (s *InProcServer) injectAfter(done vtime.Time) (dropped bool, delayedDone vtime.Time, dup bool) {
	in := s.faults.Load()
	if in.HitAt(done, fault.DropReply) {
		return true, done, false
	}
	if in.HitAt(done, fault.DelayReply) {
		done = done.Add(in.Delay())
	}
	return false, done, in.HitAt(done, fault.DupReply)
}

// Close stops accepting calls.
func (s *InProcServer) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

type inProcConn struct {
	srv      *InProcServer
	reqCost  LinkCost
	respCost LinkCost
	reqLink  *vtime.Resource
	respLink *vtime.Resource

	mu     sync.Mutex
	closed bool
}

// Connect creates a connection whose two directions are modeled by the
// given costs. Each connection gets its own stream resources (one TCP
// stream's worth of bandwidth), sharing any NIC resources inside the
// costs. When the server has a typed handler, the returned Conn also
// implements TypedConn.
func (s *InProcServer) Connect(name string, reqCost, respCost LinkCost) Conn {
	c := &inProcConn{
		srv:      s,
		reqCost:  reqCost,
		respCost: respCost,
		reqLink:  vtime.NewResource(name + "/req"),
		respLink: vtime.NewResource(name + "/resp"),
	}
	if s.typed != nil {
		return &inProcTypedConn{inProcConn: c}
	}
	return c
}

// checkOpen reports ErrClosed when either endpoint has shut down.
func (c *inProcConn) checkOpen() error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	c.srv.mu.Lock()
	srvClosed := c.srv.closed
	c.srv.mu.Unlock()
	if srvClosed {
		return ErrClosed
	}
	return nil
}

// exchange is what differs between the two wire forms of one round trip:
// which counters it feeds, the attribution class and span it reports to
// (byte-codec messages carry neither — class "other", nil span), and the
// request's wire size. Passed by value, so it costs the call no allocation.
type exchange struct {
	calls, bytes *telemetry.Counter
	cls          int
	sp           *telemetry.Span
	reqLen       int
}

// admit is the request half of a round trip: refuse a closed endpoint,
// count the call, charge the request's transmission and apply the faults
// that strike before the handler runs. On success the call holds one
// mOutstanding slot, which the caller releases when it returns.
func (c *inProcConn) admit(at vtime.Time, x exchange) (arrive vtime.Time, err error) {
	if err := c.checkOpen(); err != nil {
		return at, err
	}
	x.calls.Inc()
	mOutstanding.Add(1)
	arrive = c.reqCost.transmit(at, c.reqLink, x.reqLen)
	x.sp.Hop("msgr:req", at, arrive)
	if err := c.srv.injectBefore(arrive); err != nil {
		mOutstanding.Add(-1)
		return arrive, err
	}
	return arrive, nil
}

// complete is the reply half: the faults that strike a reply, the
// response's transmission (twice when duplicated), byte accounting and
// the wire phase of the attribution histograms.
func (c *inProcConn) complete(at, arrive, done vtime.Time, respLen int, x exchange) (end vtime.Time, err error) {
	dropped, done, dup := c.srv.injectAfter(done)
	if dropped {
		return done, fmt.Errorf("msgr: %w", fault.ErrReplyDropped)
	}
	end = c.respCost.transmit(done, c.respLink, respLen)
	if dup {
		// The duplicate occupies the wire again; the caller never sees it.
		end = c.respCost.transmit(end, c.respLink, respLen)
	}
	x.sp.Hop("msgr:resp", done, end)
	x.bytes.Add(int64(x.reqLen + respLen))
	attr.Observe(x.cls, attr.PhaseWire, arrive.Sub(at)+end.Sub(done))
	return end, nil
}

// Call carries the request as bytes to the server's byte handler — the
// loopback the byte codec is exercised through.
func (c *inProcConn) Call(at vtime.Time, req []byte) ([]byte, vtime.Time, error) {
	x := exchange{calls: mCallsBytes, bytes: mBytesBytes, cls: attr.OpOther, reqLen: len(req)}
	arrive, err := c.admit(at, x)
	if err != nil {
		return nil, arrive, err
	}
	defer mOutstanding.Add(-1)
	resp, done, err := c.srv.handler(arrive, req)
	if err != nil {
		return nil, arrive, fmt.Errorf("msgr: remote: %w", err)
	}
	end, err := c.complete(at, arrive, done, len(resp), x)
	if err != nil {
		return nil, end, err
	}
	return resp, end, nil
}

// inProcTypedConn is an inProcConn whose server accepts typed dispatch.
type inProcTypedConn struct {
	*inProcConn
}

// CallTyped hands the typed request straight to the server's handler —
// no marshal, no unmarshal — while charging both directions their exact
// byte-codec wire size, so the virtual-time outcome is identical to the
// byte path.
func (c *inProcTypedConn) CallTyped(at vtime.Time, req Msg) (Msg, vtime.Time, error) {
	x := exchange{calls: mCallsTyped, bytes: mBytesTyped, cls: attr.OpOther, reqLen: req.WireLen()}
	if carrier, ok := req.(SpanCarrier); ok {
		x.sp = carrier.TraceSpan()
	}
	if carrier, ok := req.(AttrCarrier); ok {
		x.cls = carrier.AttrOp()
	}
	arrive, err := c.admit(at, x)
	if err != nil {
		return nil, arrive, err
	}
	defer mOutstanding.Add(-1)
	resp, done, err := c.srv.typed(arrive, req)
	if err != nil {
		return nil, arrive, fmt.Errorf("msgr: remote: %w", err)
	}
	end, err := c.complete(at, arrive, done, resp.WireLen(), x)
	if err != nil {
		return nil, end, err
	}
	return resp, end, nil
}

func (c *inProcConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}
