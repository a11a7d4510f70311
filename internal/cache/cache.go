// Package cache implements a set-associative, LRU, write-allocate cache
// model with prefetch-fill support and the statistics the DIALGA
// coordinator consumes (hits, misses, useless-prefetch evictions).
//
// Lines carry an arrival timestamp so that a demand access to a line
// whose prefetch is still in flight stalls only for the remaining time —
// this is how late prefetches deliver partial benefit, the effect behind
// the paper's small-block observations (Obs. 4).
package cache

import (
	"fmt"

	"dialga/internal/mem"
)

type line struct {
	tag      uint64
	lru      uint64
	arrival  float64 // ns timestamp when data is present
	valid    bool
	prefetch bool // filled by a prefetch and not yet demand-accessed
}

// Stats aggregates cache event counts.
type Stats struct {
	Hits             uint64
	Misses           uint64
	PrefetchFills    uint64
	UselessPrefetch  uint64 // prefetched lines evicted before any demand hit
	LatePrefetchHits uint64 // demand hits on in-flight prefetched lines
}

// Cache is one level of a set-associative cache. It is not safe for
// concurrent use; the engine serializes accesses.
type Cache struct {
	sets    int
	ways    int
	setMask uint64
	lines   []line
	tick    uint64
	stats   Stats
}

// New constructs a cache level of the given total size and associativity.
// Size must be a multiple of ways*64 and the set count must be a power
// of two (true for all real L1/L2 geometries; the LLC's 11-way 24.75 MB
// geometry is mapped onto the nearest power-of-two set count).
func New(size, ways int) *Cache {
	if size <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache: invalid geometry size=%d ways=%d", size, ways))
	}
	sets := size / (ways * mem.CachelineSize)
	if sets == 0 {
		sets = 1
	}
	// Round down to a power of two so set indexing is a mask.
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	sets = p
	return &Cache{
		sets:    sets,
		ways:    ways,
		setMask: uint64(sets - 1),
		lines:   make([]line, sets*ways),
	}
}

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) set(tag uint64) []line {
	s := int(tag & c.setMask)
	return c.lines[s*c.ways : (s+1)*c.ways]
}

// Lookup performs a demand access for the cacheline containing addr at
// time now. It returns whether the line was present and, if so, the
// time at which its data is available (>= now only for in-flight
// prefetches). A hit refreshes LRU state and clears the prefetch mark.
func (c *Cache) Lookup(addr mem.Addr, now float64) (hit bool, readyAt float64) {
	tag := addr.Line()
	set := c.set(tag)
	c.tick++
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			l.lru = c.tick
			if l.prefetch {
				l.prefetch = false
				if l.arrival > now {
					c.stats.LatePrefetchHits++
				}
			}
			c.stats.Hits++
			if l.arrival > now {
				return true, l.arrival
			}
			return true, now
		}
	}
	c.stats.Misses++
	return false, now
}

// Contains reports whether the line is present (or in flight) without
// touching LRU or statistics. Used by prefetchers to filter requests.
func (c *Cache) Contains(addr mem.Addr) bool {
	tag := addr.Line()
	set := c.set(tag)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Insert fills the cacheline containing addr, with data arriving at
// time arrival. prefetched marks the fill as speculative. It returns
// true if the fill evicted a prefetched line that was never used
// (the PMU 0xf2 "useless hardware prefetch" analogue).
func (c *Cache) Insert(addr mem.Addr, arrival float64, prefetched bool) (evictedUseless bool) {
	tag := addr.Line()
	set := c.set(tag)
	c.tick++
	victim := -1
	var oldest uint64 = ^uint64(0)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == tag {
			// Refill of an existing (possibly in-flight) line.
			l.arrival = arrival
			if !prefetched {
				l.prefetch = false
			}
			l.lru = c.tick
			return false
		}
		if !l.valid {
			victim = i
			oldest = 0
		} else if l.lru < oldest {
			victim = i
			oldest = l.lru
		}
	}
	v := &set[victim]
	evictedUseless = v.valid && v.prefetch
	if evictedUseless {
		c.stats.UselessPrefetch++
	}
	*v = line{tag: tag, lru: c.tick, arrival: arrival, valid: true, prefetch: prefetched}
	if prefetched {
		c.stats.PrefetchFills++
	}
	return evictedUseless
}
