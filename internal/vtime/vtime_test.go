package vtime

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestResourceSerializes(t *testing.T) {
	r := NewResource("disk")
	// Two ops arriving at time 0 must serialize: completions 10 and 20.
	end1 := r.Use(0, 10)
	end2 := r.Use(0, 10)
	if end1 != 10 || end2 != 20 {
		t.Fatalf("got ends %d,%d want 10,20", end1, end2)
	}
	// An op arriving after the backlog drains starts at its arrival time.
	end3 := r.Use(100, 5)
	if end3 != 105 {
		t.Fatalf("got end %d want 105", end3)
	}
	ops, busy := r.Stats()
	if ops != 3 || busy != 25 {
		t.Fatalf("stats = %d,%v want 3,25ns", ops, busy)
	}
}

func TestResourceNilIsFree(t *testing.T) {
	var r *Resource
	if end := r.Use(42, time.Hour); end != 42 {
		t.Fatalf("nil resource should be free, got end %d", end)
	}
	if r.Name() != "<free>" {
		t.Fatalf("nil name = %q", r.Name())
	}
	if ops, busy := r.Stats(); ops != 0 || busy != 0 {
		t.Fatal("nil resource should have zero stats")
	}
	r.Reset() // must not panic
}

func TestResourceNegativeDurationClamped(t *testing.T) {
	r := NewResource("x")
	if end := r.Use(7, -5); end != 7 {
		t.Fatalf("negative duration should clamp to 0, end=%d", end)
	}
}

// Capacity conservation: no matter how ops interleave across goroutines,
// the busy time accumulated equals the sum of service durations, and the
// final busyUntil is at least that sum when all arrive at time 0.
func TestResourceCapacityConservation(t *testing.T) {
	r := NewResource("disk")
	const workers = 8
	const perWorker = 200
	const d = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Use(0, d)
			}
		}()
	}
	wg.Wait()
	ops, busy := r.Stats()
	if ops != workers*perWorker {
		t.Fatalf("ops = %d", ops)
	}
	want := Duration(workers * perWorker * d)
	if busy != want {
		t.Fatalf("busy = %v want %v", busy, want)
	}
	if r.BusyUntil() != Time(want) {
		t.Fatalf("busyUntil = %d want %d", r.BusyUntil(), want)
	}
}

func TestMultiResourceParallelism(t *testing.T) {
	m := NewMultiResource("nic", 4)
	// Four ops at time 0 run in parallel.
	for i := 0; i < 4; i++ {
		if end := m.Use(0, 10); end != 10 {
			t.Fatalf("op %d end = %d want 10", i, end)
		}
	}
	// The fifth queues behind one of them.
	if end := m.Use(0, 10); end != 20 {
		t.Fatalf("fifth op end = %d want 20", end)
	}
}

func TestMultiResourceNil(t *testing.T) {
	var m *MultiResource
	if end := m.Use(5, time.Minute); end != 5 {
		t.Fatal("nil multi-resource should be free")
	}
	m.Reset()
}

func TestMultiResourcePanicsOnZeroServers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMultiResource("bad", 0)
}

func TestJoin(t *testing.T) {
	if end, err := Join(7, 0, nil); end != 7 || err != nil {
		t.Fatalf("empty join = %d,%v want 7,nil", end, err)
	}

	// Latest end wins; fn sees 0..n-1 in order on this goroutine.
	ends := []Time{30, 90, 50}
	var seen []int
	end, err := Join(10, len(ends), func(i int) (Time, error) {
		seen = append(seen, i)
		return ends[i], nil
	})
	if end != 90 || err != nil {
		t.Fatalf("join = %d,%v want 90,nil", end, err)
	}
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 1 || seen[2] != 2 {
		t.Fatalf("legs ran as %v, want [0 1 2]", seen)
	}

	// A failed leg does not stop the others; the join reports the
	// arrival time and the first error.
	first, second := errors.New("first"), errors.New("second")
	seen = seen[:0]
	end, err = Join(10, 4, func(i int) (Time, error) {
		seen = append(seen, i)
		switch i {
		case 1:
			return 40, first
		case 2:
			return 10, second
		}
		return 99, nil
	})
	if end != 10 || err != first {
		t.Fatalf("failed join = %d,%v want 10,%v", end, err, first)
	}
	if len(seen) != 4 {
		t.Fatalf("only legs %v attempted after a failure", seen)
	}
}

func TestLinearCost(t *testing.T) {
	c := LinearCost{Fixed: 100, PerByte: 0.5}
	if got := c.Of(0); got != 100 {
		t.Fatalf("Of(0) = %v", got)
	}
	if got := c.Of(1000); got != 600 {
		t.Fatalf("Of(1000) = %v want 600ns", got)
	}
}

func TestPerByteOfBandwidth(t *testing.T) {
	// 1 GB/s => 1 ns/byte.
	if got := PerByteOfBandwidth(1e9); got != 1.0 {
		t.Fatalf("1GB/s = %v ns/byte", got)
	}
	// 2 GB/s => 0.5 ns/byte; sub-nanosecond precision must survive.
	if got := PerByteOfBandwidth(2e9); got != 0.5 {
		t.Fatalf("2GB/s = %v ns/byte", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero bandwidth")
		}
	}()
	PerByteOfBandwidth(0)
}

func TestMaxHelpers(t *testing.T) {
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Fatal("Max broken")
	}
	if MaxAll() != 0 {
		t.Fatal("MaxAll() should be 0")
	}
	if MaxAll(1, 9, 4) != 9 {
		t.Fatal("MaxAll broken")
	}
}

// Property: Use is monotone — an op never completes before it arrives nor
// before the previous completion on the same resource.
func TestResourceMonotoneProperty(t *testing.T) {
	r := NewResource("p")
	var lastEnd Time
	f := func(arrive uint32, dur uint16) bool {
		at := Time(arrive)
		end := r.Use(at, Duration(dur))
		ok := end >= at && end >= lastEnd && end == Max(at, lastEnd).Add(Duration(dur))
		lastEnd = end
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: time arithmetic round-trips.
func TestTimeArithmeticProperty(t *testing.T) {
	f := func(a int32, d int32) bool {
		t0 := Time(a)
		dd := Duration(d)
		return t0.Add(dd).Sub(t0) == dd
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
