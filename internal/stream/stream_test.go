package stream

import (
	"runtime"
	"testing"
	"time"
)

func TestOptionsDefaults(t *testing.T) {
	g, err := Options{Codec: mustRS(t, 8, 4)}.geometry()
	if err != nil {
		t.Fatal(err)
	}
	if g.stripeSize != DefaultStripeSize {
		t.Fatalf("stripeSize = %d, want %d", g.stripeSize, DefaultStripeSize)
	}
	if g.shardSize != DefaultStripeSize/8 {
		t.Fatalf("shardSize = %d, want %d", g.shardSize, DefaultStripeSize/8)
	}
	if g.workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("workers = %d, want GOMAXPROCS", g.workers)
	}
}

func TestOptionsStripeRounding(t *testing.T) {
	// StripeSize 1000 with k=3 rounds up to shards of 334 bytes.
	g, err := Options{Codec: mustRS(t, 3, 2), StripeSize: 1000}.geometry()
	if err != nil {
		t.Fatal(err)
	}
	if g.shardSize != 334 || g.stripeSize != 1002 {
		t.Fatalf("got shard %d stripe %d, want 334/1002", g.shardSize, g.stripeSize)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := (Options{}).geometry(); err == nil {
		t.Fatal("nil codec accepted")
	}
	code := mustRS(t, 4, 2)
	for _, o := range []Options{
		{Codec: code, StripeSize: -1},
		{Codec: code, Workers: -1},
		{Codec: code, Checksum: ChecksumCRC32C + 1}, // CRC-32C is the only trailer
		// Refused by shardio.Options.Validate, at construction time.
		{Codec: code, HedgeAfter: -1},
		{Codec: code, Readahead: -1},
	} {
		if _, err := o.geometry(); err == nil {
			t.Fatalf("invalid options %+v accepted", o)
		}
	}
	if _, err := NewEncoder(Options{}); err == nil {
		t.Fatal("NewEncoder accepted nil codec")
	}
	if _, err := NewDecoder(Options{}); err == nil {
		t.Fatal("NewDecoder accepted nil codec")
	}
}

func TestLatencyHistogram(t *testing.T) {
	c := newCounters(nil, "test")
	c.observe(500 * time.Nanosecond) // bucket 0
	c.observe(3 * time.Microsecond)  // (2µs,4µs] -> bucket 2
	c.observe(3 * time.Microsecond)
	c.observe(10 * time.Millisecond) // 10000µs -> bucket 14
	h := c.snapshot().Latency
	if h.Total() != 4 {
		t.Fatalf("Total = %d, want 4", h.Total())
	}
	if h.Counts[0] != 1 || h.Counts[2] != 2 || h.Counts[14] != 1 {
		t.Fatalf("bucket counts wrong: %v", h.Counts)
	}
	if lo, hi := h.Bucket(2); lo != 2*time.Microsecond || hi != 4*time.Microsecond {
		t.Fatalf("Bucket(2) = [%v,%v), want [2µs,4µs)", lo, hi)
	}
	// Quantiles are monotone and bracket the observations.
	if q := h.Quantile(0); q > time.Microsecond {
		t.Fatalf("Quantile(0) = %v, want <= 1µs", q)
	}
	if q := h.Quantile(1); q < 10*time.Millisecond {
		t.Fatalf("Quantile(1) = %v, want >= 10ms", q)
	}
	if h.Quantile(0.5) > h.Quantile(0.9) {
		t.Fatal("quantiles not monotone")
	}
	// Overflow clamps into the last bucket instead of panicking.
	c.observe(10 * time.Hour)
	if c.snapshot().Latency.Counts[latencyBuckets-1] != 1 {
		t.Fatal("overflow observation not clamped to last bucket")
	}
	var empty LatencyHistogram
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
}

func TestBufPool(t *testing.T) {
	p := newBufPool(64)
	b := p.get()
	if len(b) != 64 {
		t.Fatalf("got %d-byte buffer, want 64", len(b))
	}
	p.put(b)
	p.put(make([]byte, 3)) // undersized backing array must be dropped
	if got := p.get(); len(got) != 64 {
		t.Fatalf("pool returned %d-byte buffer after foreign put", len(got))
	}
}

// TestBufPoolRecyclesShortTail is the regression test for the pool
// leak: put() used to drop any buffer whose len differed from the pool
// size, so a reslice — the natural shape of a short final stripe —
// leaked its backing array and cost a fresh allocation every cycle.
// put() must accept any buffer with sufficient capacity and restore
// the canonical length.
func TestBufPoolRecyclesShortTail(t *testing.T) {
	if raceEnabled {
		// Race instrumentation makes sync.Pool.Put randomly drop items,
		// so the buffer-identity and alloc assertions below are flaky.
		t.Skip("sync.Pool drops randomly under the race detector")
	}
	p := newBufPool(64)
	b := p.get()
	p.put(b[:10]) // tail-stripe-shaped reslice
	got := p.get()
	if len(got) != 64 {
		t.Fatalf("got %d-byte buffer after short put, want 64", len(got))
	}
	if &got[0] != &b[0] {
		t.Fatal("short-tail buffer was dropped instead of recycled")
	}
	p.put(got)

	// Steady state stays allocation-free even when every cycle hands
	// back a trimmed view.
	allocs := testing.AllocsPerRun(200, func() {
		b := p.get()
		p.put(b[:1])
	})
	if allocs != 0 {
		t.Fatalf("short-tail pool cycle allocates %v objects per run, want 0", allocs)
	}
}
