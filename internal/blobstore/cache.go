package blobstore

import "repro/internal/simdisk"

// sectorCache is a small LRU cache of sector contents keyed by absolute
// sector number. It stands in for the OSD page cache: the sectors that
// matter are the hot metadata sectors (IV tails, unaligned boundaries)
// that sub-sector writes keep touching.
//
// groups counts the cached sectors of every 64-sector group that holds
// any, so invalidate skips the groups of a bulk span that hold none
// without probing their sectors one by one.
type sectorCache struct {
	cap    int
	items  map[int64]*cacheNode
	groups map[int64]int32 // sector/groupSectors -> cached sectors in it, never 0
	head   *cacheNode      // most recent
	tail   *cacheNode      // least recent
}

// groupSectors is the width of one group that sectorCache.groups counts.
const groupSectors = 64

type cacheNode struct {
	sector     int64
	data       []byte
	prev, next *cacheNode
}

func newSectorCache(capacity int) *sectorCache {
	if capacity < 1 {
		capacity = 1
	}
	return &sectorCache{cap: capacity, items: make(map[int64]*cacheNode, capacity), groups: make(map[int64]int32)}
}

func (c *sectorCache) unlink(n *cacheNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *sectorCache) pushFront(n *cacheNode) {
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

// get returns the cached contents of sector, refreshing its recency.
func (c *sectorCache) get(sector int64) ([]byte, bool) {
	n, ok := c.items[sector]
	if !ok {
		return nil, false
	}
	if c.head != n {
		c.unlink(n)
		c.pushFront(n)
	}
	return n.data, true
}

// put inserts or refreshes sector contents (copied), evicting the least
// recently used entry when full.
func (c *sectorCache) put(sector int64, data []byte) {
	if n, ok := c.items[sector]; ok {
		copy(n.data, data)
		if c.head != n {
			c.unlink(n)
			c.pushFront(n)
		}
		return
	}
	if len(c.items) >= c.cap {
		c.remove(c.tail)
	}
	n := &cacheNode{sector: sector, data: append(make([]byte, 0, simdisk.SectorSize), data...)}
	c.items[sector] = n
	c.groups[sector/groupSectors]++
	c.pushFront(n)
}

// remove drops a cached node.
func (c *sectorCache) remove(n *cacheNode) {
	c.unlink(n)
	delete(c.items, n.sector)
	g := n.sector / groupSectors
	if k := c.groups[g]; k > 1 {
		c.groups[g] = k - 1
	} else {
		delete(c.groups, g)
	}
}

// invalidate drops n sectors starting at sector. Only the groups that
// hold cached sectors are probed, and each only until its count is
// spent.
func (c *sectorCache) invalidate(sector, n int64) {
	for s, end := sector, sector+n; s < end; {
		g := s / groupSectors
		next := min((g+1)*groupSectors, end)
		for left := c.groups[g]; left > 0 && s < next; s++ {
			if node, ok := c.items[s]; ok {
				c.remove(node)
				left--
			}
		}
		s = next
	}
}

// len reports the number of cached sectors.
func (c *sectorCache) len() int { return len(c.items) }
