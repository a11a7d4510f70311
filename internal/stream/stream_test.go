package stream

import (
	"runtime"
	"testing"
	"time"

	"dialga/internal/shardio"
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

// TestBufPool: a lent stripe is one allocator buffer of k+m blocks
// with their trailers; Release hands it back, the next stripe reuses
// it whole, and an undersized foreign buffer never comes out as one.
func TestBufPool(t *testing.T) {
	e, err := NewEncoder(Options{Codec: mustRS(t, 4, 2), StripeSize: 4 * 1000})
	if err != nil {
		t.Fatal(err)
	}
	size := 6 * e.g.blockSize
	s := e.lend()
	if len(s.buf) != size {
		t.Fatalf("got %d-byte stripe buffer, want %d", len(s.buf), size)
	}
	first := &s.buf[0]
	s.Release()
	shardio.PutBuffer(make([]byte, 3)) // a foreign, undersized buffer
	s = e.lend()
	if len(s.buf) != size || &s.buf[0] != first {
		t.Fatal("the released stripe buffer was not lent again whole")
	}
	s.Release()
}

// TestBufPoolRecyclesShortTail: the decoder hands its blocks back
// resliced — to [:0] while filling, to a short final block at the
// tail. Each must come back whole from the allocator instead of
// leaking its backing array, and the cycle must not allocate.
func TestBufPoolRecyclesShortTail(t *testing.T) {
	g, err := Options{Codec: mustRS(t, 4, 2), StripeSize: 4 * 1000}.geometry()
	if err != nil {
		t.Fatal(err)
	}
	b := shardio.GetBuffer(g.blockSize)
	shardio.PutBuffer(b[:10]) // tail-block-shaped reslice
	got := shardio.GetBuffer(g.blockSize)
	if len(got) != g.blockSize {
		t.Fatalf("got %d-byte block after short put, want %d", len(got), g.blockSize)
	}
	if &got[0] != &b[0] {
		t.Fatal("short-tail block was dropped instead of recycled")
	}
	shardio.PutBuffer(got[:0])
	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	allocs := testing.AllocsPerRun(200, func() {
		shardio.PutBuffer(shardio.GetBuffer(g.blockSize)[:1])
	})
	if allocs != 0 {
		t.Fatalf("short-tail block cycle allocates %v objects per run, want 0", allocs)
	}
}
