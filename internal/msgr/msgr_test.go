package msgr

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/vtime"
)

func echoHandler(at vtime.Time, req []byte) ([]byte, vtime.Time, error) {
	return append([]byte("echo:"), req...), at.Add(10 * time.Microsecond), nil
}

func TestInProcCall(t *testing.T) {
	srv := NewInProcServer(echoHandler)
	defer srv.Close()
	lc := LinkCost{Latency: 5 * time.Microsecond, StreamPerByte: 1}
	conn := srv.Connect("c0", lc, lc)
	defer conn.Close()

	resp, end, err := conn.Call(0, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, []byte("echo:hello")) {
		t.Fatalf("resp %q", resp)
	}
	// Request: 5 bytes * 1ns + 5µs latency; handler 10µs; response:
	// 10 bytes * 1ns + 5µs latency.
	want := vtime.Time(5 + 5000 + 10000 + 10 + 5000)
	if end != want {
		t.Fatalf("end = %d want %d", end, want)
	}
}

func TestInProcSharedNICContention(t *testing.T) {
	nic := vtime.NewResource("client-nic")
	srv := NewInProcServer(echoHandler)
	defer srv.Close()
	lc := LinkCost{StreamPerByte: 0, NIC: nic, NICPerByte: 10}
	free := LinkCost{}
	c1 := srv.Connect("c1", lc, free)
	c2 := srv.Connect("c2", lc, free)

	// Two 1000-byte requests at t=0 contend on the NIC: completions at
	// 10µs and 20µs (each costs 10µs of NIC time) plus 10µs handler each.
	_, end1, err := c1.Call(0, make([]byte, 1000))
	if err != nil {
		t.Fatal(err)
	}
	_, end2, err := c2.Call(0, make([]byte, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if end1 != vtime.Time(20*time.Microsecond) {
		t.Fatalf("end1 = %v", end1)
	}
	if end2 != vtime.Time(30*time.Microsecond) {
		t.Fatalf("end2 = %v (should queue behind first on NIC)", end2)
	}
}

// wireMsg is a minimal typed message for transport tests.
type wireMsg struct {
	body []byte
}

func (m *wireMsg) WireLen() int { return len(m.body) }

func TestInProcTypedDispatch(t *testing.T) {
	srv := NewInProcServer(echoHandler)
	defer srv.Close()
	srv.SetTypedHandler(func(at vtime.Time, req Msg) (Msg, vtime.Time, error) {
		in := req.(*wireMsg)
		return &wireMsg{body: append([]byte("echo:"), in.body...)}, at.Add(10 * time.Microsecond), nil
	})
	lc := LinkCost{Latency: 5 * time.Microsecond, StreamPerByte: 1}
	conn := srv.Connect("typed", lc, lc)
	defer conn.Close()

	tc, ok := conn.(TypedConn)
	if !ok {
		t.Fatal("server with typed handler must hand out TypedConns")
	}
	resp, end, err := tc.CallTyped(0, &wireMsg{body: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(*wireMsg).body; !bytes.Equal(got, []byte("echo:hello")) {
		t.Fatalf("typed resp %q", got)
	}
	// Identical cost shape to TestInProcCall: 5B request, 10B reply.
	want := vtime.Time(5 + 5000 + 10000 + 10 + 5000)
	if end != want {
		t.Fatalf("typed end = %d want %d", end, want)
	}

	// The byte path must still work on the same connection (oracle).
	respB, endB, err := conn.Call(0, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(respB, []byte("echo:hello")) {
		t.Fatalf("byte resp on typed conn: %q", respB)
	}
	if endB <= 0 {
		t.Fatal("byte path lost virtual time")
	}
}

func TestInProcUntypedServerHasNoTypedConn(t *testing.T) {
	srv := NewInProcServer(echoHandler)
	defer srv.Close()
	conn := srv.Connect("plain", LinkCost{}, LinkCost{})
	if _, ok := conn.(TypedConn); ok {
		t.Fatal("server without typed handler must not advertise TypedConn")
	}
}

func TestInProcTypedClosed(t *testing.T) {
	srv := NewInProcServer(echoHandler)
	srv.SetTypedHandler(func(at vtime.Time, req Msg) (Msg, vtime.Time, error) {
		return req, at, nil
	})
	conn := srv.Connect("c", LinkCost{}, LinkCost{}).(TypedConn)
	srv.Close()
	if _, _, err := conn.CallTyped(0, &wireMsg{}); err == nil {
		t.Fatal("closed server accepted typed call")
	}
}

func TestInProcClosed(t *testing.T) {
	srv := NewInProcServer(echoHandler)
	conn := srv.Connect("c", LinkCost{}, LinkCost{})
	conn.Close()
	if _, _, err := conn.Call(0, nil); err == nil {
		t.Fatal("closed conn accepted call")
	}
	conn2 := srv.Connect("c2", LinkCost{}, LinkCost{})
	srv.Close()
	if _, _, err := conn2.Call(0, nil); err == nil {
		t.Fatal("closed server accepted call")
	}
}

func TestInProcHandlerError(t *testing.T) {
	srv := NewInProcServer(func(at vtime.Time, req []byte) ([]byte, vtime.Time, error) {
		return nil, at, fmt.Errorf("boom")
	})
	defer srv.Close()
	conn := srv.Connect("c", LinkCost{}, LinkCost{})
	if _, _, err := conn.Call(0, []byte("x")); err == nil {
		t.Fatal("handler error not propagated")
	}
}

func TestDefaultLinkCostShape(t *testing.T) {
	nic := vtime.NewResource("nic")
	lc := DefaultLinkCost(nic)
	if lc.Latency <= 0 || lc.StreamPerByte <= lc.NICPerByte {
		t.Fatalf("implausible default: %+v", lc)
	}
}
