package stream

import (
	"bytes"
	"context"
	"io"
	"testing"

	"dialga/internal/fault"
)

// FuzzStreamRoundTrip throws arbitrary payloads and seeded fault
// plans at the checksummed pipeline. The invariant is absolute: the
// decoder either returns an error or returns exactly the encoded
// payload — corrupted, truncated, or flaky shard streams must never
// surface as wrong bytes, and the pristine stream must always decode.
func FuzzStreamRoundTrip(f *testing.F) {
	f.Add([]byte(nil), uint64(0))
	f.Add([]byte("dialga"), uint64(1))
	f.Add(bytes.Repeat([]byte{0xa5}, 4096), uint64(7))
	f.Add(bytes.Repeat([]byte("stripe!"), 613), uint64(1<<40))

	f.Fuzz(func(t *testing.T, payload []byte, seed uint64) {
		if len(payload) > 1<<16 {
			payload = payload[:1<<16]
		}
		k := 2 + int(seed%5)      // 2..6
		m := 1 + int((seed>>3)%3) // 1..3
		shardSize := 16 << (seed >> 6 % 3)
		opts := Options{Codec: mustRS(t, k, m), StripeSize: k * shardSize,
			Workers: 2}
		shards := encodeAll(t, opts, payload)

		// Pristine decode must always round-trip.
		got := decodeAll(t, opts, shards, int64(len(payload)))
		if !bytes.Equal(got, payload) {
			t.Fatalf("pristine round trip mismatch: k=%d m=%d shard=%d len=%d", k, m, shardSize, len(payload))
		}

		// Chaos decode: derive a deterministic fault plan per shard
		// from the seed and let it hit an arbitrary number of shards —
		// beyond the parity budget is fair game.
		dec, err := NewDecoder(opts)
		if err != nil {
			t.Fatal(err)
		}
		streamLen := int64(len(shards[0]))
		readers := make([]io.Reader, k+m)
		for i, s := range shards {
			sub := seed*0x9e3779b97f4a7c15 + uint64(i)
			if sub%4 == 0 || streamLen == 0 {
				readers[i] = bytes.NewReader(s) // clean shard
				continue
			}
			plan := fault.Generate(sub, streamLen, 1+int(sub>>8%4))
			readers[i] = fault.NewReader(bytes.NewReader(s), plan)
		}
		var out bytes.Buffer
		if err := dec.Decode(context.Background(), readers, &out, int64(len(payload))); err == nil {
			if !bytes.Equal(out.Bytes(), payload) {
				t.Fatalf("faulted decode returned success with wrong bytes: k=%d m=%d seed=%d", k, m, seed)
			}
		} else if got := out.Bytes(); !bytes.Equal(got, payload[:len(got)]) {
			t.Fatalf("faulted decode emitted non-prefix bytes before failing: k=%d m=%d seed=%d", k, m, seed)
		}
	})
}
