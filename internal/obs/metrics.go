package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing series. The zero value is
// ready to use; all methods are safe on a nil *Counter (no-ops), so
// uninstrumented code paths cost one branch.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// atomicFloat is a float64 updated with atomic bit operations; Add is
// a CAS loop (contention on these is one update per stripe, not per
// byte, so the loop virtually never retries).
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) add(d float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Gauge is a float64 series that can go up and down (an EWMA, a
// deadline, a breaker state). The zero value is ready; all methods are
// safe on a nil *Gauge.
type Gauge struct {
	v atomicFloat
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v.store(v)
	}
}

// Add adjusts the gauge by d (negative to decrease).
func (g *Gauge) Add(d float64) {
	if g != nil {
		g.v.add(d)
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.load()
}

// Histogram is a fixed-bucket distribution with explicit inclusive
// upper bounds plus an overflow (+Inf) bucket: an observation v lands
// in the first bucket whose bound is >= v. Updates are two atomic adds
// and one CAS; all methods are safe on a nil *Histogram.
type Histogram struct {
	bounds []float64       // finite inclusive upper bounds, ascending
	counts []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	sum    atomicFloat
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bound >= v: exact-bound observations stay with their
	// bucket's peers in (prev, bound] instead of spilling upward.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Snapshot copies the per-bucket counts (one per finite bound, then the
// overflow bucket) along with the running sum and total
// observation count. The three values are each atomically read but not
// mutually consistent under concurrent writes; totals catch up once
// writers pause, which is the same contract stream.Stats has always
// had.
func (h *Histogram) Snapshot() (counts []uint64, sum float64, count uint64) {
	if h == nil {
		return nil, 0, 0
	}
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.sum.load(), h.count.Load()
}
