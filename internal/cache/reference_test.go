package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dialga/internal/mem"
)

// refCache is a naive reference implementation of a set-associative LRU
// cache: per-set slices ordered by recency.
type refCache struct {
	sets int
	ways int
	data []([]uint64) // per set, MRU first
}

func newRef(sets, ways int) *refCache {
	return &refCache{sets: sets, ways: ways, data: make([][]uint64, sets)}
}

func (r *refCache) setOf(tag uint64) int { return int(tag % uint64(r.sets)) }

func (r *refCache) lookup(tag uint64) bool {
	s := r.setOf(tag)
	for i, t := range r.data[s] {
		if t == tag {
			// Move to MRU.
			copy(r.data[s][1:i+1], r.data[s][:i])
			r.data[s][0] = tag
			return true
		}
	}
	return false
}

func (r *refCache) insert(tag uint64) {
	s := r.setOf(tag)
	for i, t := range r.data[s] {
		if t == tag {
			copy(r.data[s][1:i+1], r.data[s][:i])
			r.data[s][0] = tag
			return
		}
	}
	if len(r.data[s]) >= r.ways {
		r.data[s] = r.data[s][:r.ways-1]
	}
	r.data[s] = append([]uint64{tag}, r.data[s]...)
}

// Property: the cache's hit/miss sequence matches the reference model
// under a demand-only access pattern (lookup; insert on miss).
func TestQuickMatchesReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const ways = 4
		const sets = 8
		c := New(sets*ways*mem.CachelineSize, ways)
		ref := newRef(sets, ways)
		for i := 0; i < 3000; i++ {
			line := uint64(r.Intn(sets * ways * 3))
			addr := mem.Addr(line * mem.CachelineSize)
			hit, _ := c.Lookup(addr, float64(i))
			refHit := ref.lookup(line)
			if hit != refHit {
				t.Logf("seed %d step %d line %d: cache=%v ref=%v", seed, i, line, hit, refHit)
				return false
			}
			if !hit {
				c.Insert(addr, float64(i), false)
				ref.insert(line)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: hits + misses equals lookups, and prefetch fills never
// exceed inserts.
func TestQuickStatsConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New(16*mem.CachelineSize, 2)
		lookups := 0
		inserts := uint64(0)
		prefetchIns := uint64(0)
		for i := 0; i < 1000; i++ {
			addr := mem.Addr(r.Intn(64) * mem.CachelineSize)
			switch r.Intn(3) {
			case 0:
				c.Lookup(addr, float64(i))
				lookups++
			case 1:
				c.Insert(addr, float64(i), false)
				inserts++
			case 2:
				if !c.Contains(addr) {
					c.Insert(addr, float64(i), true)
					prefetchIns++
				}
			}
		}
		st := c.Stats()
		if st.Hits+st.Misses != uint64(lookups) {
			return false
		}
		if st.PrefetchFills > prefetchIns {
			return false
		}
		return st.UselessPrefetch <= st.PrefetchFills
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
