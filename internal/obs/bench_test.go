package obs

import (
	"sync/atomic"
	"testing"
)

// The registry's promise to the stream hot path is "one atomic op per
// update, same as the raw counters it replaced". These benchmarks pin
// that: BenchmarkObsCounterAdd vs BenchmarkObsRawAtomicAdd is the
// per-update overhead the CI BENCH_obs artifact tracks (the end-to-end
// bound is <2% on BenchmarkStreamEncode at the repository root).

func BenchmarkObsRawAtomicAdd(b *testing.B) {
	var v atomic.Uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Add(1)
	}
}

func BenchmarkObsCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkObsGaugeSet(b *testing.B) {
	g := NewRegistry().Gauge("bench", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkObsHistogramObserve(b *testing.B) {
	bounds := make([]float64, 26)
	for i := range bounds {
		bounds[i] = float64(uint64(1) << i)
	}
	h := NewRegistry().Histogram("bench_us", "", bounds)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 1023))
	}
}

func BenchmarkObsNilCounterAdd(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}
