package stream

import (
	"bytes"
	"context"
	"io"
	"testing"

	"dialga/internal/obs"
)

// benchPayloadMB is the per-iteration payload for pipeline benchmarks.
const benchPayloadMB = 8

func BenchmarkPipelineEncode(b *testing.B) {
	code := mustRS(b, 8, 4)
	payload := randBytes(b, benchPayloadMB<<20, 1)
	for _, workers := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "workers=1", 2: "workers=2", 4: "workers=4"}[workers], func(b *testing.B) {
			enc, err := NewEncoder(Options{Codec: code, StripeSize: 1 << 20, Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			writers := make([]io.Writer, enc.Shards())
			for i := range writers {
				writers[i] = io.Discard
			}
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := enc.Encode(context.Background(), bytes.NewReader(payload), writers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPipelineDecodeDegraded(b *testing.B) {
	code := mustRS(b, 8, 4)
	opts := Options{Codec: code, StripeSize: 1 << 20}
	payload := randBytes(b, benchPayloadMB<<20, 2)
	shards := encodeAll(b, opts, payload)
	shards[0] = nil // force reconstruction on every stripe
	shards[3] = nil
	dec, err := NewDecoder(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readers := make([]io.Reader, len(shards))
		for j, s := range shards {
			if s != nil {
				readers[j] = bytes.NewReader(s)
			}
		}
		if err := dec.Decode(context.Background(), readers, io.Discard, int64(len(payload))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamEncode is the instrumentation-overhead benchmark: the
// same encode pipeline with metrics detached (each pipeline's private
// registry) and attached (one shared registry). CI's bench-obs job
// records both and checks the attached variant stays within a few
// percent.
func BenchmarkStreamEncode(b *testing.B) {
	code := mustRS(b, 8, 4)
	payload := randBytes(b, benchPayloadMB<<20, 3)
	run := func(b *testing.B, opts Options) {
		enc, err := NewEncoder(opts)
		if err != nil {
			b.Fatal(err)
		}
		writers := make([]io.Writer, enc.Shards())
		for i := range writers {
			writers[i] = io.Discard
		}
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(context.Background(), bytes.NewReader(payload), writers); err != nil {
				b.Fatal(err)
			}
		}
	}
	base := Options{Codec: code, StripeSize: 1 << 20, Workers: 4}
	b.Run("stripe=1024KiB/obs=off", func(b *testing.B) { run(b, base) })
	b.Run("stripe=1024KiB/obs=on", func(b *testing.B) {
		opts := base
		opts.Metrics = obs.NewRegistry()
		run(b, opts)
	})
}
