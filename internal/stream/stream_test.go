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
		// Refused at construction time, not when a read starts.
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

// TestLatencyHistogram reads stripe latencies back from the pipeline's
// stream_stripe_latency_us series, in microseconds.
func TestLatencyHistogram(t *testing.T) {
	c := newCounters(nil, "test")
	if _, _, n := c.lat.Snapshot(); n != 0 {
		t.Fatal("empty histogram has observations")
	}
	c.observe(500 * time.Nanosecond) // bucket 0
	c.observe(3 * time.Microsecond)  // (2µs,4µs] -> bucket 2
	c.observe(3 * time.Microsecond)
	c.observe(10 * time.Millisecond) // 10000µs -> bucket 14
	counts, _, total := c.lat.Snapshot()
	if total != 4 {
		t.Fatalf("observations = %d, want 4", total)
	}
	if counts[0] != 1 || counts[2] != 2 || counts[14] != 1 {
		t.Fatalf("bucket counts wrong: %v", counts)
	}
	// Bucket 2 is (2, 4]µs: each bound stays with the bucket below it.
	c.observe(2 * time.Microsecond)
	c.observe(4 * time.Microsecond)
	if counts, _, _ := c.lat.Snapshot(); counts[1] != 1 || counts[2] != 3 {
		t.Fatalf("2µs and 4µs: bucket counts %v, want one more in buckets 1 and 2", counts)
	}
	// The buckets bracket the observations: the fastest in the bucket
	// at or under 1µs, the slowest in (8192, 16384]µs and none above.
	counts, _, _ = c.lat.Snapshot()
	if b := latencyBoundsUS(); b[0] != 1 || b[13] != 8192 || b[14] != 16384 || counts[0] == 0 {
		t.Fatalf("bounds %v, bucket 0 = %d", b, counts[0])
	}
	for i, n := range counts[15:] {
		if n != 0 {
			t.Fatalf("bucket %d holds %d, above the slowest observation's", 15+i, n)
		}
	}
	// Overflow clamps into the last bucket instead of panicking.
	c.observe(10 * time.Hour)
	if counts, _, _ := c.lat.Snapshot(); counts[latencyBuckets-1] != 1 {
		t.Fatal("overflow observation not clamped to last bucket")
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
	putBuffer(make([]byte, 3)) // a foreign, undersized buffer
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
	b := getBuffer(g.blockSize)
	putBuffer(b[:10]) // tail-block-shaped reslice
	got := getBuffer(g.blockSize)
	if len(got) != g.blockSize {
		t.Fatalf("got %d-byte block after short put, want %d", len(got), g.blockSize)
	}
	if &got[0] != &b[0] {
		t.Fatal("short-tail block was dropped instead of recycled")
	}
	putBuffer(got[:0])
	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	allocs := testing.AllocsPerRun(200, func() {
		putBuffer(getBuffer(g.blockSize)[:1])
	})
	if allocs != 0 {
		t.Fatalf("short-tail block cycle allocates %v objects per run, want 0", allocs)
	}
}
