package blobstore

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/simdisk"
)

// TestSectorCacheModel runs a seeded mix of put, get and invalidate over
// ranges of 1–600 sectors, at a capacity small enough that puts evict,
// and checks the cache after every step against a model: the same
// sectors with the same contents in the same LRU order, and a group
// count for exactly the groups that hold cached sectors.
func TestSectorCacheModel(t *testing.T) {
	const capacity = 200
	c := newSectorCache(capacity)
	var order []int64 // model LRU order, most recent first
	data := map[int64]byte{}
	touch := func(s int64) {
		if i := slices.Index(order, s); i >= 0 {
			order = slices.Delete(order, i, i+1)
		}
		order = slices.Insert(order, 0, s)
	}
	evicted, dropped := 0, 0
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 3000; step++ {
		first := rng.Int63n(4 * 600)
		n := 1 + rng.Int63n(600)
		if rng.Intn(3) > 0 {
			n = 1 + rng.Int63n(8) // small spans keep the cache populated
		}
		switch op := rng.Intn(3); op {
		case 0: // put
			for s := first; s < first+n; s++ {
				b := byte(rng.Intn(255) + 1)
				c.put(s, bytes.Repeat([]byte{b}, simdisk.SectorSize))
				if _, ok := data[s]; !ok && len(order) >= capacity {
					victim := order[len(order)-1]
					order = order[:len(order)-1]
					delete(data, victim)
					evicted++
				}
				data[s] = b
				touch(s)
			}
		case 1: // get
			for s := first; s < first+n; s++ {
				got, ok := c.get(s)
				b, want := data[s]
				if ok != want {
					t.Fatalf("step %d: get(%d) hit=%v, model %v", step, s, ok, want)
				}
				if ok {
					if !bytes.Equal(got, bytes.Repeat([]byte{b}, simdisk.SectorSize)) {
						t.Fatalf("step %d: get(%d) contents differ from the model", step, s)
					}
					touch(s)
				}
			}
		case 2: // invalidate
			c.invalidate(first, n)
			for s := first; s < first+n; s++ {
				if _, ok := data[s]; ok {
					delete(data, s)
					dropped++
					order = slices.DeleteFunc(order, func(x int64) bool { return x == s })
				}
			}
		}
		checkCacheModel(t, step, c, order, data)
	}
	if evicted == 0 || dropped == 0 {
		t.Fatalf("the mix never exercised eviction (%d) or invalidation (%d)", evicted, dropped)
	}
	t.Logf("%d evictions, %d sectors invalidated", evicted, dropped)
}

func checkCacheModel(t *testing.T, step int, c *sectorCache, order []int64, data map[int64]byte) {
	t.Helper()
	if c.len() != len(data) || len(c.items) != len(order) {
		t.Fatalf("step %d: len %d (%d listed), model %d", step, c.len(), len(c.items), len(data))
	}
	var lru []int64
	for n := c.head; n != nil; n = n.next {
		lru = append(lru, n.sector)
		if n.data[0] != data[n.sector] || c.items[n.sector] != n {
			t.Fatalf("step %d: sector %d is not the model's", step, n.sector)
		}
	}
	if !slices.Equal(lru, order) {
		t.Fatalf("step %d: LRU order %v, model %v", step, lru, order)
	}
	if len(order) > 0 && c.tail.sector != order[len(order)-1] {
		t.Fatalf("step %d: LRU victim %d, model %d", step, c.tail.sector, order[len(order)-1])
	}
	groups := map[int64]int32{}
	for s := range data {
		groups[s/groupSectors]++
	}
	for g, k := range c.groups {
		if k == 0 {
			t.Fatalf("step %d: group %d kept with a count of zero", step, g)
		}
		if groups[g] != k {
			t.Fatalf("step %d: group %d counts %d, holds %d", step, g, k, groups[g])
		}
	}
	if len(c.groups) != len(groups) {
		t.Fatalf("step %d: %d groups counted, %d hold sectors", step, len(c.groups), len(groups))
	}
}
