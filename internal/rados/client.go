package rados

import (
	"fmt"
	"slices"

	"repro/internal/bufpool"
	"repro/internal/msgr"
	"repro/internal/telemetry"
	"repro/internal/telemetry/attr"
	"repro/internal/vtime"
)

// wireHdrHint sizes the pooled header-scratch buffer for scatter-gather
// marshals; a typical request's fixed fields and small payloads fit in
// one 4 KiB pool class.
const wireHdrHint = 4096

// Client issues object operations to the cluster, routing each request to
// the primary OSD of the object's placement group (libRADOS' role).
type Client struct {
	cmap  *ClusterMap
	conns map[int]msgr.Conn
}

// Operate sends one atomic request (all ops target the same object) and
// returns the per-op results and the virtual completion time.
//
// Mutating requests carry the snap context; read requests may address a
// snapshot via snapID.
//
// On a typed connection op payloads travel by reference from the
// caller's buffers to the OSD and back, with zero marshal copies (see
// roundTrip). The caller may recycle its op payload buffers as soon as
// Operate returns: the OSD copies what it persists before replying.
func (c *Client) Operate(at vtime.Time, pool, object string, snapc SnapContext, snapID uint64, ops []Op) ([]Result, vtime.Time, error) {
	return c.operate(at, c.cmap.PrimaryFor(pool, object), pool, object, snapc, snapID, ops, false)
}

// OperateOn issues one request directly at a specific OSD, bypassing
// primary routing — the scrub/repair surface. A replica read fetches
// one OSD's local copy of an object so a repairer can hunt for an
// intact replica when the primary's copy fails verification; a direct
// mutating request is applied to that OSD alone (it is marked Replica
// so the target does not re-replicate), which is how tests plant
// corruption on a single copy. The OSD must hold a copy of the object
// (be in ReplicasFor's set) for the result to be meaningful.
func (c *Client) OperateOn(at vtime.Time, osd int, pool, object string, snapc SnapContext, snapID uint64, ops []Op) ([]Result, vtime.Time, error) {
	return c.operate(at, osd, pool, object, snapc, snapID, ops, true)
}

// ReplicasFor returns the OSDs holding an object's replicas, primary
// first — the iteration domain for OperateOn-based repair. The slice is
// the caller's copy; changing it does not move placement.
func (c *Client) ReplicasFor(pool, object string) []int {
	return slices.Clone(c.cmap.OSDsFor(c.cmap.PG(pool, object)))
}

func (c *Client) operate(at vtime.Time, osd int, pool, object string, snapc SnapContext, snapID uint64, ops []Op, direct bool) ([]Result, vtime.Time, error) {
	if len(ops) == 0 {
		mClientErrors.Inc()
		return nil, at, fmt.Errorf("rados: empty request")
	}
	conn, ok := c.conns[osd]
	if !ok {
		mClientErrors.Inc()
		return nil, at, fmt.Errorf("rados: no connection to osd%d", osd)
	}
	// Direct mutations must not fan out again: the caller addressed one
	// copy on purpose.
	replica := false
	if direct {
		for _, op := range ops {
			if op.Kind.Mutates() {
				replica = true
				break
			}
		}
	}
	mClientRequests.Inc()
	mClientBytes.Add(countOps(ops, &mClientOps))
	cls := attrClassOf(ops)
	sp := telemetry.Ops.Start(ops[0].Kind.String(), object, int64(len(ops[0].Data))+ops[0].Len, at)
	req := &Request{
		Pool:      pool,
		Object:    object,
		SnapID:    snapID,
		SnapSeq:   snapc.Seq,
		Ops:       ops,
		Replica:   replica,
		Span:      sp,
		AttrClass: cls,
	}

	reply, end, err := roundTrip(conn, at, req)
	if err == nil && len(reply.Results) != len(ops) {
		err = fmt.Errorf("rados: %d results for %d ops", len(reply.Results), len(ops))
	}
	if err != nil {
		// end is how far the exchange got (the request's arrival for a
		// reset or a down OSD, the handler's completion for a dropped
		// reply), so the span closes after its own transmit hops.
		mClientErrors.Inc()
		sp.Finish(end)
		return nil, end, err
	}
	mClientLat.Observe(end.Sub(at))
	attr.ObserveOp(cls, end.Sub(at))
	sp.Finish(end)
	return reply.Results, end, nil
}

// roundTrip is the one place a request crosses a connection — the
// client's operate and every per-peer forward of OSD.replicate go
// through it. Transport selection is by capability: a typed connection
// carries request and reply as structs; anything else gets the reference
// byte encoding, scatter-gather marshaled into a pooled header, joined,
// and fully decoded on the way back. On failure the returned time is the
// one the transport reported, never earlier than at.
func roundTrip(conn msgr.Conn, at vtime.Time, req *Request) (*Reply, vtime.Time, error) {
	if tc, ok := conn.(msgr.TypedConn); ok {
		resp, end, err := tc.CallTyped(at, req)
		if err != nil {
			return nil, end, err
		}
		reply, ok := resp.(*Reply)
		if !ok {
			return nil, end, fmt.Errorf("rados: unexpected typed reply %T", resp)
		}
		return reply, end, nil
	}
	// Marshal phase: the byte codec is vtime-free in the cost model (the
	// scatter-gather encode copies no payloads), so the observation
	// records the crossing with zero duration — the attribution table
	// shows the phase exists and costs nothing, rather than omitting it.
	attr.Observe(req.AttrClass, attr.PhaseMarshal, 0)
	segs, hdr := req.MarshalV(bufpool.Get(wireHdrHint))
	payload, end, err := conn.Call(at, msgr.JoinSegs(segs))
	bufpool.Put(hdr)
	if err != nil {
		return nil, end, err
	}
	// A reply that does not decode still completed the call: keep end.
	reply, err := UnmarshalReply(payload)
	return reply, end, err
}

// attrClassOf buckets a request's op vector into an attribution class:
// any mutating op makes it a write, else any data read makes it a read,
// else it is metadata/other traffic.
func attrClassOf(ops []Op) int {
	hasRead := false
	for _, op := range ops {
		if op.Kind.Mutates() {
			return attr.OpWrite
		}
		if op.Kind == OpRead {
			hasRead = true
		}
	}
	if hasRead {
		return attr.OpRead
	}
	return attr.OpOther
}

// Write is a convenience wrapper for a single data write.
func (c *Client) Write(at vtime.Time, pool, object string, snapc SnapContext, off int64, data []byte) (vtime.Time, error) {
	res, end, err := c.Operate(at, pool, object, snapc, 0, []Op{{Kind: OpWrite, Off: off, Data: data}})
	if err != nil {
		return at, err
	}
	return end, res[0].Status.Err()
}

// Read is a convenience wrapper for a single read from the object head.
func (c *Client) Read(at vtime.Time, pool, object string, off, length int64) ([]byte, vtime.Time, error) {
	return c.ReadSnap(at, pool, object, 0, off, length)
}

// ReadSnap reads from a snapshot (snapID 0 addresses the head).
func (c *Client) ReadSnap(at vtime.Time, pool, object string, snapID uint64, off, length int64) ([]byte, vtime.Time, error) {
	res, end, err := c.Operate(at, pool, object, SnapContext{}, snapID, []Op{{Kind: OpRead, Off: off, Len: length}})
	if err != nil {
		return nil, at, err
	}
	if err := res[0].Status.Err(); err != nil {
		return nil, end, err
	}
	return res[0].Data, end, nil
}

// Delete removes an object.
func (c *Client) Delete(at vtime.Time, pool, object string) (vtime.Time, error) {
	res, end, err := c.Operate(at, pool, object, SnapContext{}, 0, []Op{{Kind: OpDelete}})
	if err != nil {
		return at, err
	}
	return end, res[0].Status.Err()
}

// Stat returns an object's logical size.
func (c *Client) Stat(at vtime.Time, pool, object string) (int64, vtime.Time, error) {
	res, end, err := c.Operate(at, pool, object, SnapContext{}, 0, []Op{{Kind: OpStat}})
	if err != nil {
		return 0, at, err
	}
	if err := res[0].Status.Err(); err != nil {
		return 0, end, err
	}
	return res[0].Size, end, nil
}

// Close closes all OSD connections.
func (c *Client) Close() {
	for _, conn := range c.conns {
		conn.Close()
	}
}
