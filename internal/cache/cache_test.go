package cache

import (
	"testing"

	"dialga/internal/mem"
)

func TestMissThenHit(t *testing.T) {
	c := New(32<<10, 8)
	addr := mem.Addr(0x1000)
	hit, _ := c.Lookup(addr, 0)
	if hit {
		t.Fatal("cold cache should miss")
	}
	c.Insert(addr, 100, false)
	hit, ready := c.Lookup(addr, 200)
	if !hit || ready != 200 {
		t.Fatalf("expected hit ready-now, got hit=%v ready=%v", hit, ready)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSameLineDifferentOffsets(t *testing.T) {
	c := New(32<<10, 8)
	c.Insert(mem.Addr(0x1000), 0, false)
	hit, _ := c.Lookup(mem.Addr(0x1030), 10) // same 64B line
	if !hit {
		t.Fatal("offset within line should hit")
	}
	hit, _ = c.Lookup(mem.Addr(0x1040), 10) // next line
	if hit {
		t.Fatal("next line should miss")
	}
}

func TestInFlightPrefetchStall(t *testing.T) {
	c := New(1<<20, 16)
	addr := mem.Addr(0x2000)
	c.Insert(addr, 500, true) // prefetch arriving at t=500
	hit, ready := c.Lookup(addr, 100)
	if !hit || ready != 500 {
		t.Fatalf("in-flight prefetch: hit=%v ready=%v, want hit at 500", hit, ready)
	}
	if c.Stats().LatePrefetchHits != 1 {
		t.Fatal("late prefetch hit not counted")
	}
	// After arrival, ready is now.
	hit, ready = c.Lookup(addr, 600)
	if !hit || ready != 600 {
		t.Fatalf("arrived line: hit=%v ready=%v", hit, ready)
	}
}

func TestUselessPrefetchEviction(t *testing.T) {
	// Tiny direct-mapped-ish cache: 1 set equivalent via size = ways*64.
	c := New(2*64, 2) // 1 set, 2 ways
	c.Insert(mem.Addr(0), 0, true)
	c.Insert(mem.Addr(64), 0, true)
	if ev := c.Insert(mem.Addr(128), 0, false); !ev {
		t.Fatal("evicting an unused prefetched line must report useless")
	}
	if c.Stats().UselessPrefetch != 1 {
		t.Fatal("useless prefetch not counted")
	}
	// A demand-hit prefetched line is no longer useless when evicted.
	c = New(2*64, 2)
	c.Insert(mem.Addr(0), 0, true)
	c.Lookup(mem.Addr(0), 1) // use it
	c.Insert(mem.Addr(64), 0, false)
	if ev := c.Insert(mem.Addr(128), 0, false); ev {
		t.Fatal("used prefetched line wrongly reported useless")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2*64, 2) // 1 set, 2 ways
	c.Insert(mem.Addr(0), 0, false)
	c.Insert(mem.Addr(64), 0, false)
	c.Lookup(mem.Addr(0), 1) // refresh line 0
	c.Insert(mem.Addr(128), 0, false)
	if !c.Contains(mem.Addr(0)) {
		t.Fatal("recently used line evicted")
	}
	if c.Contains(mem.Addr(64)) {
		t.Fatal("LRU line not evicted")
	}
}

func TestContainsDoesNotDisturb(t *testing.T) {
	c := New(2*64, 2)
	c.Insert(mem.Addr(0), 0, true)
	before := c.Stats()
	if !c.Contains(mem.Addr(0)) {
		t.Fatal("Contains false for present line")
	}
	if c.Contains(mem.Addr(64)) {
		t.Fatal("Contains true for absent line")
	}
	if c.Stats() != before {
		t.Fatal("Contains changed statistics")
	}
	// The line must still count as prefetched-unused on eviction.
	c.Insert(mem.Addr(64), 0, false)
	if ev := c.Insert(mem.Addr(128), 0, false); !ev {
		t.Fatal("Contains cleared the prefetch mark")
	}
}

func TestRefillExistingLine(t *testing.T) {
	c := New(2*64, 2)
	c.Insert(mem.Addr(0), 900, true)
	// Demand refill of the same line updates arrival and clears the mark.
	c.Insert(mem.Addr(0), 50, false)
	hit, ready := c.Lookup(mem.Addr(0), 60)
	if !hit || ready != 60 {
		t.Fatalf("refilled line: hit=%v ready=%v", hit, ready)
	}
	c.Insert(mem.Addr(64), 0, false)
	if ev := c.Insert(mem.Addr(128), 0, false); ev {
		t.Fatal("demand-refilled line still marked prefetched")
	}
}

func TestNonPowerOfTwoGeometry(t *testing.T) {
	// 11-way LLC-like geometry: sets round down to a power of two.
	c := New(24*(1<<20)+768<<10, 11)
	// Must behave as a cache: insert/lookup roundtrip over many sets.
	for i := 0; i < 10000; i++ {
		c.Insert(mem.Addr(i*64), 0, false)
	}
	hits := 0
	for i := 0; i < 10000; i++ {
		if h, _ := c.Lookup(mem.Addr(i*64), 1); h {
			hits++
		}
	}
	if hits != 10000 {
		t.Fatalf("LLC-sized cache lost lines under capacity: %d/10000 hits", hits)
	}
}
