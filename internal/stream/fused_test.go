package stream

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"dialga/internal/shardio"
)

// TestFusedTrailersByteIdentical pins the fused sweep's contract: every
// block an encoded stripe lends (Stripe.Block) holds what the two-pass
// computation gives — rs.Encode's parity, then gf.CRC32C over the block
// for its trailer — for full stripes, a padded ragged tail, and exact
// multiples of the stripe.
func TestFusedTrailersByteIdentical(t *testing.T) {
	const k, m, stripe = 10, 4, 40 << 10
	code := mustRS(t, k, m)
	for _, tc := range []struct {
		name string
		size int
	}{
		{"crc multi-stripe", 3*stripe + 12345},
		{"crc single short stripe", 777},
		{"crc exact stripes", 2 * stripe},
	} {
		t.Run(tc.name, func(t *testing.T) {
			input := randBytes(t, tc.size, int64(tc.size))
			enc, err := NewEncoder(Options{Codec: code, StripeSize: stripe})
			if err != nil {
				t.Fatal(err)
			}
			want := referenceEncode(t, code, enc.StripeSize(), input)
			shardSize, blockSize := enc.ShardSize(), enc.BlockSize()
			s := 0
			err = enc.EncodeStripes(context.Background(), bytes.NewReader(input), func(st *Stripe) error {
				defer st.Release()
				for i := range want {
					ref := want[i][s*blockSize : (s+1)*blockSize]
					payload, trailer := st.Block(i)
					if !bytes.Equal(payload, ref[:shardSize]) {
						return fmt.Errorf("stripe %d shard %d: payload differs from rs.Encode's", s, i)
					}
					if !bytes.Equal(trailer, ref[shardSize:]) {
						return fmt.Errorf("stripe %d shard %d: trailer %x, gf.CRC32C says %x", s, i, trailer, ref[shardSize:])
					}
				}
				s++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if s*blockSize != len(want[0]) {
				t.Fatalf("%d stripes lent, want %d", s, len(want[0])/blockSize)
			}
		})
	}
}

// TestFusedRoundTrip: shards written by the fused encoder decode, and
// self-heal a corrupt block, back to the payload.
func TestFusedRoundTrip(t *testing.T) {
	const k, m, stripe = 6, 3, 12 << 10
	code := mustRS(t, k, m)
	payload := randBytes(t, 2*stripe+4321, 77)
	opts := Options{Codec: code, StripeSize: stripe}
	shards := encodeAll(t, opts, payload)

	shards[3][100] ^= 0xff // corrupt a data block: trailer must catch it
	got := decodeAll(t, opts, shards, int64(len(payload)))
	if !bytes.Equal(got, payload) {
		t.Fatal("fused-encoded shards did not decode back to the payload")
	}
}

// TestEncodeStripeAllocs: the encoder worker body must not allocate
// once the codec is warm ("fused"), and the stripe it leaves behind is the
// two-pass reference — rs.Encode's parity and a gf.CRC32C trailer per
// block — which the test computes itself ("two-pass").
func TestEncodeStripeAllocs(t *testing.T) {
	const k, m, stripe = 10, 4, 64 << 10
	code := mustRS(t, k, m)
	enc, err := NewEncoder(Options{Codec: code, StripeSize: stripe})
	if err != nil {
		t.Fatal(err)
	}
	input := randBytes(t, enc.g.stripeSize, 5)
	j := jobs.get()
	j.enc = enc.lend()
	copy(j.enc.data, input)
	if err := enc.encodeStripe(j); err != nil { // warm codec plan
		t.Fatal(err)
	}
	t.Run("fused", func(t *testing.T) {
		if raceEnabled {
			t.Skip("race-detector instrumentation allocates")
		}
		if a := testing.AllocsPerRun(20, func() {
			if err := enc.encodeStripe(j); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("encodeStripe allocates %.1f per stripe, want 0", a)
		}
	})
	t.Run("two-pass", func(t *testing.T) {
		want := referenceEncode(t, code, enc.StripeSize(), input)
		for i := range want {
			payload, trailer := j.enc.Block(i)
			if got := append(append([]byte(nil), payload...), trailer...); !bytes.Equal(got, want[i]) {
				t.Fatalf("shard %d: the worker's block differs from rs.Encode + gf.CRC32C", i)
			}
		}
	})
}

// TestProcessStripeAllocs: the decoder worker body must not allocate
// in steady state — neither for a healthy stripe nor for a hedged one
// that reconstructs a missing data shard into a spare from the
// allocator.
func TestProcessStripeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const k, m, stripe = 10, 4, 64 << 10
	code := mustRS(t, k, m)
	enc, err := NewEncoder(Options{Codec: code, StripeSize: stripe})
	if err != nil {
		t.Fatal(err)
	}
	payload := randBytes(t, stripe, 11)
	shards := encodeAll(t, Options{Codec: code, StripeSize: stripe}, payload)

	dec, err := NewDecoder(Options{Codec: code, StripeSize: stripe})
	if err != nil {
		t.Fatal(err)
	}
	blockSize := enc.BlockSize()
	// Build the stripe/job the gather loop would hand the worker. A
	// zero-value shardio.Stripe backs it: Release is a no-op, and the
	// worker reconstructs around the slow shard as for any hedge.
	st := &shardio.Stripe{States: make([]shardio.ShardState, k+m)}
	slowShard := 2 // hedged straggler: nil block, reconstructed around
	prep := func(j *job) {
		j.blocks = sliceN(j.blocks, k+m)
		for i := range j.blocks {
			if i == slowShard {
				st.States[i] = shardio.StateSlow
				continue
			}
			st.States[i] = shardio.StateOK
			j.blocks[i] = shards[i][:blockSize]
		}
		j.stripe = st
	}
	j := jobs.get()
	prep(j)
	if err := dec.processStripe(j); err != nil { // warm decode-plan cache + spares
		t.Fatal(err)
	}
	for _, i := range j.eras {
		shardio.PutBuffer(j.blocks[i])
	}
	j.eras = j.eras[:0]
	if a := testing.AllocsPerRun(20, func() {
		prep(j)
		if err := dec.processStripe(j); err != nil {
			t.Fatal(err)
		}
		for _, i := range j.eras {
			shardio.PutBuffer(j.blocks[i])
		}
		j.eras = j.eras[:0]
	}); a != 0 {
		t.Errorf("hedged processStripe allocates %.1f per stripe, want 0", a)
	}
	if !bytes.Equal(j.blocks[slowShard], payload[slowShard*enc.ShardSize():(slowShard+1)*enc.ShardSize()]) {
		t.Fatal("reconstructed block has wrong bytes")
	}

	// Healthy stripe: all blocks present, verify-only.
	healthy := jobs.get()
	prepAll := func(j *job) {
		j.blocks = sliceN(j.blocks, k+m)
		for i := range j.blocks {
			st.States[i] = shardio.StateOK
			j.blocks[i] = shards[i][:blockSize]
		}
		j.stripe = st
	}
	prepAll(healthy)
	if err := dec.processStripe(healthy); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() {
		prepAll(healthy)
		if err := dec.processStripe(healthy); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("healthy processStripe allocates %.1f per stripe, want 0", a)
	}
}
