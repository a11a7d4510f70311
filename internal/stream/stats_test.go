package stream

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"dialga/internal/fault"
	"dialga/internal/obs"
)

// TestStatsConcurrentWithHealingDecode hammers Stats() from several
// goroutines while a decode is actively demoting and healing corrupt
// blocks. Run under -race this proves the counter snapshot path is
// safe against the producer/worker goroutines; in any mode it checks
// that observed counters are monotonic and land on the exact totals.
func TestStatsConcurrentWithHealingDecode(t *testing.T) {
	stripes := 400
	if raceEnabled {
		stripes = 120 // instrumentation makes each stripe pricier
	}
	code := mustRS(t, 4, 2)
	opts := Options{Codec: code, StripeSize: 4 * 64, Workers: 4}
	payload := randBytes(t, stripes*4*64, 99)
	shards := encodeAll(t, opts, payload)

	dec, err := NewDecoder(opts)
	if err != nil {
		t.Fatal(err)
	}
	blockSize := dec.g.blockSize
	// Corrupt one block of shard 1 in every stripe: every stripe heals.
	var plan fault.Plan
	for s := 0; s < stripes; s++ {
		plan.Ops = append(plan.Ops, fault.Op{Kind: fault.BitFlip, Off: int64(s * blockSize), Bit: 3})
	}
	readers := make([]io.Reader, len(shards))
	for i, s := range shards {
		readers[i] = bytes.NewReader(s)
	}
	readers[1] = fault.NewReader(bytes.NewReader(shards[1]), plan)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last Stats
			for {
				st := dec.Stats()
				if st.ShardsCorrupted < last.ShardsCorrupted ||
					st.StripesHealed < last.StripesHealed ||
					st.Stripes < last.Stripes ||
					st.BytesOut < last.BytesOut {
					t.Error("Stats went backwards during decode")
					return
				}
				last = st
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}

	var out bytes.Buffer
	err = dec.Decode(context.Background(), readers, &out, int64(len(payload)))
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("healing decode under concurrent Stats() corrupted the payload")
	}
	st := dec.Stats()
	if st.ShardsCorrupted != uint64(stripes) || st.StripesHealed != uint64(stripes) {
		t.Fatalf("healed %d blocks / %d stripes, want %d / %d",
			st.ShardsCorrupted, st.StripesHealed, stripes, stripes)
	}
}

// TestLatencyBucketEdges pins the histogram's bucket boundaries:
// inclusive upper bounds, so an exact power-of-two latency lands with
// its peers at the top of its bucket rather than at the bottom of the
// next one (the bits.Len64-based histogram got this edge wrong).
func TestLatencyBucketEdges(t *testing.T) {
	us := time.Microsecond
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{us, 0},                   // exactly 2^0µs: top of bucket 0
		{us + time.Nanosecond, 1}, // just past the bound
		{2 * us, 1},               // exactly 2^1µs: top of bucket 1
		{2*us + time.Nanosecond, 2},
		{(1<<10 - 1) * us, 10}, // 2^10-1 inside (2^9, 2^10]
		{(1 << 10) * us, 10},   // exactly 2^10µs
		{(1<<10 + 1) * us, 11},
		{(1 << 25) * us, 25},   // top finite bound
		{(1<<25 + 1) * us, 26}, // first overflow value
		{10 * time.Hour, 26},   // deep overflow
	}
	for _, tc := range cases {
		c := newCounters(nil, "edges")
		c.observe(tc.d)
		h := c.snapshot().Latency
		for i, n := range h.Counts {
			want := uint64(0)
			if i == tc.bucket {
				want = 1
			}
			if n != want {
				t.Errorf("observe(%v): bucket %d count = %d, want %d", tc.d, i, n, want)
			}
		}
	}
}

// TestLatencyHistogramBounds checks Bounds() alignment with Counts:
// 27 entries, powers of two up to 2^25µs, and an overflow sentinel.
func TestLatencyHistogramBounds(t *testing.T) {
	var h LatencyHistogram
	bounds := h.Bounds()
	if len(bounds) != latencyBuckets {
		t.Fatalf("len(Bounds()) = %d, want %d", len(bounds), latencyBuckets)
	}
	for i := 0; i < latencyBuckets-1; i++ {
		if want := time.Duration(1<<i) * time.Microsecond; bounds[i] != want {
			t.Fatalf("Bounds()[%d] = %v, want %v", i, bounds[i], want)
		}
	}
	if bounds[latencyBuckets-1] != time.Duration(math.MaxInt64) {
		t.Fatalf("overflow bound = %v, want max duration", bounds[latencyBuckets-1])
	}
	for i := range bounds {
		if _, hi := h.Bucket(i); hi != bounds[i] {
			t.Fatalf("Bucket(%d) hi = %v, but Bounds()[%d] = %v", i, hi, i, bounds[i])
		}
	}
}

// TestStatsAndExposeConcurrentWithDecode hammers both snapshot paths —
// Stats() and the registry's Prometheus exposition — from separate
// goroutines while a hedge-capable decode mutates every series
// underneath them. Run under -race (see race_on_test.go) this is the
// registry-vs-pipeline race test; in any mode it checks the exposition
// stays parseable and the final counters land exactly.
func TestStatsAndExposeConcurrentWithDecode(t *testing.T) {
	stripes := 300
	if raceEnabled {
		stripes = 100
	}
	code := mustRS(t, 4, 2)
	reg := obs.NewRegistry()
	opts := Options{
		Codec: code, StripeSize: 4 * 64, Workers: 4,
		Metrics: reg,
	}
	payload := randBytes(t, stripes*4*64, 7)
	shards := encodeAll(t, Options{Codec: code, StripeSize: 4 * 64, Workers: 4}, payload)

	dec, err := NewDecoder(opts)
	if err != nil {
		t.Fatal(err)
	}
	readers := make([]io.Reader, len(shards))
	for i, s := range shards {
		readers[i] = bytes.NewReader(s)
	}
	readers[2] = nil // reconstruction keeps the decode-side series moving

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_ = dec.Stats()
				var buf bytes.Buffer
				if err := reg.Expose(&buf); err != nil {
					t.Error(err)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}

	var out bytes.Buffer
	err = dec.Decode(context.Background(), readers, &out, int64(len(payload)))
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("decode under concurrent exposition corrupted the payload")
	}
	st := dec.Stats()
	if st.Stripes != uint64(stripes) {
		t.Fatalf("Stripes = %d, want %d", st.Stripes, stripes)
	}
	var text bytes.Buffer
	if err := reg.Expose(&text); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("stream_stripes_total{pipeline=%q} %d", "decode", stripes)
	if !strings.Contains(text.String(), want) {
		t.Fatalf("exposition missing %q:\n%s", want, text.String())
	}
}
