package obs

import (
	"fmt"
	"io"
	"sync"
	"testing"
)

// TestRegistryConcurrent hammers registration, updates, and Expose
// from many goroutines at once. Under -race this proves the whole
// surface is data-race free; in any mode it checks the final totals
// are exact (no lost updates).
func TestRegistryConcurrent(t *testing.T) {
	iters := 2000
	if raceEnabled {
		iters = 400
	}
	r := NewRegistry()
	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Re-register every iteration: lookup must be safe and
				// always return the same series.
				r.Counter("c_total", "h").Inc()
				r.Gauge("g", "h", Label{"w", fmt.Sprint(g)}).Set(float64(i))
				r.Histogram("h_us", "h", []float64{1, 4, 16}).Observe(float64(i % 20))
				if i%64 == 0 {
					if err := r.Expose(io.Discard); err != nil {
						t.Errorf("Expose: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("c_total", "h").Value(); got != uint64(workers*iters) {
		t.Fatalf("counter = %d, want %d (lost updates)", got, workers*iters)
	}
	_, _, count := r.Histogram("h_us", "h", []float64{1, 4, 16}).Snapshot()
	if count != uint64(workers*iters) {
		t.Fatalf("histogram count = %d, want %d", count, workers*iters)
	}
}
