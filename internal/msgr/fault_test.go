package msgr

// fault_test.go: each network-level fault primitive in isolation,
// against a trivial echo server, armed at probability 1 so a single
// call demonstrates the behavior. The injection points live in the one
// admit/complete body Call and CallTyped share, so every primitive runs
// over both wire forms from one table.

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/vtime"
)

// echoServer echoes on both wire forms and counts the requests its
// handlers actually saw.
func echoServer() (srv *InProcServer, handled *int) {
	handled = new(int)
	srv = NewInProcServer(func(at vtime.Time, req []byte) ([]byte, vtime.Time, error) {
		*handled++
		return append([]byte(nil), req...), at, nil
	})
	srv.SetTypedHandler(func(at vtime.Time, req Msg) (Msg, vtime.Time, error) {
		*handled++
		return req, at, nil
	})
	return srv, handled
}

func alwaysCfg(k fault.Kind) fault.Config {
	return fault.Config{Prob: map[fault.Kind]float64{k: 1}}
}

// wireForms is the table every fault test ranges over: one echo round
// trip of body through the connection, by each form.
var wireForms = []struct {
	name string
	call func(c Conn, at vtime.Time, body []byte) ([]byte, vtime.Time, error)
}{
	{"bytes", func(c Conn, at vtime.Time, body []byte) ([]byte, vtime.Time, error) {
		return c.Call(at, body)
	}},
	{"typed", func(c Conn, at vtime.Time, body []byte) ([]byte, vtime.Time, error) {
		resp, end, err := c.(TypedConn).CallTyped(at, &wireMsg{body: body})
		if err != nil {
			return nil, end, err
		}
		return resp.(*wireMsg).body, end, nil
	}},
}

func TestFaultDropReply(t *testing.T) {
	for _, f := range wireForms {
		t.Run(f.name, func(t *testing.T) {
			srv, handled := echoServer()
			c := srv.Connect("t", LinkCost{Latency: time.Microsecond}, LinkCost{})
			srv.SetFaults(fault.NewPlan(1, alwaysCfg(fault.DropReply)).Injector("s"))
			_, end, err := f.call(c, 0, []byte("hello"))
			if !errors.Is(err, fault.ErrReplyDropped) || !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("dropped reply error = %v, want ErrReplyDropped wrapping ErrInjected", err)
			}
			// The defining property of a dropped reply: the server DID the work.
			if *handled != 1 {
				t.Fatalf("handler ran %d times, want 1 (drop-reply loses the ack, not the request)", *handled)
			}
			// ... and the failure reports the time the handler finished.
			if end != vtime.Time(time.Microsecond) {
				t.Fatalf("dropped reply reported time %d, want the handler's done (1µs)", end)
			}
			// Disarmed, the same call succeeds.
			srv.SetFaults(nil)
			resp, _, err := f.call(c, 0, []byte("hello"))
			if err != nil || !bytes.Equal(resp, []byte("hello")) {
				t.Fatalf("clean call after disarm: resp=%q err=%v", resp, err)
			}
		})
	}
}

func TestFaultConnReset(t *testing.T) {
	for _, f := range wireForms {
		t.Run(f.name, func(t *testing.T) {
			srv, handled := echoServer()
			c := srv.Connect("t", LinkCost{Latency: time.Microsecond}, LinkCost{})
			srv.SetFaults(fault.NewPlan(2, alwaysCfg(fault.ConnReset)).Injector("s"))
			_, end, err := f.call(c, 0, []byte("x"))
			if !errors.Is(err, fault.ErrConnReset) {
				t.Fatalf("reset error = %v, want ErrConnReset", err)
			}
			// The defining property of a reset: the request never arrived.
			if *handled != 0 {
				t.Fatalf("handler ran %d times, want 0 (reset loses the request)", *handled)
			}
			if end != vtime.Time(time.Microsecond) {
				t.Fatalf("reset reported time %d, want the request's arrival (1µs)", end)
			}
		})
	}
}

func TestFaultDelayReply(t *testing.T) {
	for _, f := range wireForms {
		t.Run(f.name, func(t *testing.T) {
			srv, _ := echoServer()
			c := srv.Connect("t", LinkCost{}, LinkCost{})
			_, base, err := f.call(c, 0, []byte("m"))
			if err != nil {
				t.Fatal(err)
			}
			cfg := alwaysCfg(fault.DelayReply)
			cfg.Delay = 7 * time.Millisecond
			srv.SetFaults(fault.NewPlan(3, cfg).Injector("s"))
			_, slow, err := f.call(c, 0, []byte("m"))
			if err != nil {
				t.Fatal(err)
			}
			if d := slow.Sub(base); d < 7*time.Millisecond {
				t.Fatalf("delayed reply added %v, want >= 7ms", d)
			}
		})
	}
}

func TestFaultDupReply(t *testing.T) {
	// With a real per-byte stream cost, the duplicate occupies the
	// response link a second time, so the delivery time of a duplicated
	// reply is measurably later — and the payload still arrives intact.
	cost := LinkCost{StreamPerByte: vtime.PerByteOfBandwidth(1e6)} // 1 MB/s: 1 µs/byte
	for _, f := range wireForms {
		t.Run(f.name, func(t *testing.T) {
			srv, _ := echoServer()
			c := srv.Connect("t", LinkCost{}, cost)
			payload := make([]byte, 1000)
			_, base, err := f.call(c, 0, payload)
			if err != nil {
				t.Fatal(err)
			}
			srv.SetFaults(fault.NewPlan(4, alwaysCfg(fault.DupReply)).Injector("s"))
			resp, end, err := f.call(c, base, payload)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resp, payload) {
				t.Fatal("duplicated reply corrupted the payload")
			}
			if got, want := end.Sub(base), 2*time.Millisecond; got < want {
				t.Fatalf("dup reply charged %v of wire time, want >= %v (two transmissions)", got, want)
			}
		})
	}
}

func TestFaultCrashRestartWindow(t *testing.T) {
	for _, f := range wireForms {
		t.Run(f.name, func(t *testing.T) {
			srv, _ := echoServer()
			c := srv.Connect("t", LinkCost{}, LinkCost{})
			srv.SetFaults(fault.NewPlan(5, fault.Config{
				Down: []fault.Window{{From: 1000, To: 2000}},
			}).Injector("s"))

			if _, _, err := f.call(c, 0, []byte("before")); err != nil {
				t.Fatalf("call before crash window failed: %v", err)
			}
			_, _, err := f.call(c, 1500, []byte("during"))
			if !errors.Is(err, fault.ErrOSDDown) {
				t.Fatalf("call inside crash window: err = %v, want ErrOSDDown", err)
			}
			// After the window the OSD has restarted: same server, state intact.
			if _, _, err := f.call(c, 3000, []byte("after")); err != nil {
				t.Fatalf("call after restart failed: %v", err)
			}
		})
	}
}
