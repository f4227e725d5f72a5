package bufpool

import (
	"runtime"
	"runtime/debug"
	"testing"
)

func TestClassSizes(t *testing.T) {
	cases := []struct {
		n, class int
	}{
		{1, 0}, {4096, 0}, {4097, 1}, {8192, 1}, {1 << 24, numClasses - 1},
	}
	for _, c := range cases {
		if got := class(c.n); got != c.class {
			t.Errorf("class(%d) = %d, want %d", c.n, got, c.class)
		}
	}
	if class(1<<24+1) != -1 {
		t.Error("oversize request should not be pooled")
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	b := Get(5000)
	if len(b) != 5000 || cap(b) != 8192 {
		t.Fatalf("len=%d cap=%d", len(b), cap(b))
	}
	Put(b)
	// Oversize buffers fall back to exact allocation and are not pooled.
	big := Get(1<<24 + 1)
	if len(big) != 1<<24+1 {
		t.Fatalf("oversize len=%d", len(big))
	}
	Put(big) // must not panic or poison the pool
}

func TestGetZero(t *testing.T) {
	b := Get(4096)
	for i := range b {
		b[i] = 0xAA
	}
	Put(b)
	z := GetZero(4096)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("byte %d = %x after GetZero", i, v)
		}
	}
}

func TestPutForeignBuffer(t *testing.T) {
	// A buffer with a non-class capacity must be dropped, not pooled.
	odd := make([]byte, 5000)
	Put(odd)
	got := Get(5000)
	if len(got) != 5000 || cap(got) != 8192 {
		t.Fatalf("foreign buffer leaked into pool: len=%d cap=%d", len(got), cap(got))
	}
}

// TestGetPutAllocsZero: the pool holds each buffer as its element
// pointer, so a warmed Get and Put allocate nothing — not even the box a
// *[]byte pool entry cost on every Put. One P keeps the round trip on
// one pool shard.
func TestGetPutAllocsZero(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if (s.Key == "-race" && s.Value == "true") || (s.Key == "-tags" && s.Value != "") {
				t.Skipf("instrumented build (%s=%s) allocates differently", s.Key, s.Value)
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, n := range []int{1, 4096, 5000, 1 << 20} {
		Put(Get(n))
		if got := testing.AllocsPerRun(100, func() { Put(Get(n)) }); got != 0 {
			t.Errorf("Get(%d)+Put: %.0f allocs, want 0", n, got)
		}
	}
}
