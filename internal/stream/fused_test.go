package stream

import (
	"bytes"
	"testing"

	"dialga/internal/shardio"
)

// twoPass hides a codec's EncodeSumInto, so the encoder selects the
// two-pass path (encode, then a CRC sweep per block): the reference
// the fused sweep is compared against.
type twoPass struct{ Codec }

// TestFusedTrailersByteIdentical pins the core fused-path contract:
// the single-pass encode+CRC sweep must emit exactly the shard bytes
// — payload and trailers — the two-pass path emits, for full stripes,
// a padded ragged tail, and both checksum settings.
func TestFusedTrailersByteIdentical(t *testing.T) {
	const k, m, stripe = 10, 4, 40 << 10
	code := mustRS(t, k, m)
	for _, tc := range []struct {
		name string
		size int
		sum  Checksum
	}{
		{"crc multi-stripe", 3*stripe + 12345, ChecksumCRC32C},
		{"crc single short stripe", 777, ChecksumCRC32C},
		{"crc exact stripes", 2 * stripe, ChecksumCRC32C},
		{"no checksum", 2*stripe + 9, ChecksumNone},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload := randBytes(t, tc.size, int64(tc.size))
			base := Options{Codec: code, StripeSize: stripe, Checksum: tc.sum}

			fusedOpts := base
			fused := encodeAll(t, fusedOpts, payload)

			plainOpts := base
			plainOpts.Codec = twoPass{code}
			plain := encodeAll(t, plainOpts, payload)

			for i := range fused {
				if !bytes.Equal(fused[i], plain[i]) {
					t.Fatalf("shard %d: fused output differs from two-pass output", i)
				}
			}

			enc, err := NewEncoder(fusedOpts)
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.sum == ChecksumCRC32C; enc.Fused() != want {
				t.Fatalf("Fused() = %v, want %v (checksum %v)", enc.Fused(), want, tc.sum)
			}
			encPlain, err := NewEncoder(plainOpts)
			if err != nil {
				t.Fatal(err)
			}
			if encPlain.Fused() {
				t.Fatal("encoder over a codec without EncodeSumInto still reports the fused path")
			}
		})
	}
}

// TestFusedRoundTrip: shards written by the fused encoder decode (and
// self-heal a corrupt block) exactly like two-pass shards.
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

// TestEncodeStripeAllocs: the encoder worker body — fused or two-pass
// — must not allocate once pools are warm.
func TestEncodeStripeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const k, m, stripe = 10, 4, 64 << 10
	code := mustRS(t, k, m)
	for _, tc := range []struct {
		name  string
		codec Codec
	}{{"fused", code}, {"two-pass", twoPass{code}}} {
		t.Run(tc.name, func(t *testing.T) {
			enc, err := NewEncoder(Options{Codec: tc.codec, StripeSize: stripe})
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.name == "fused"; enc.Fused() != want {
				t.Fatalf("Fused() = %v, want %v", enc.Fused(), want)
			}
			j := enc.jobs.get()
			j.enc = enc.lend()
			copy(j.enc.data, randBytes(t, enc.g.stripeSize, 5))
			j.n = enc.g.stripeSize
			if err := enc.encodeStripe(j); err != nil { // warm codec plan
				t.Fatal(err)
			}
			if a := testing.AllocsPerRun(20, func() {
				if err := enc.encodeStripe(j); err != nil {
					t.Fatal(err)
				}
			}); a != 0 {
				t.Errorf("encodeStripe allocates %.1f per stripe, want 0", a)
			}
		})
	}
}

// TestProcessStripeAllocs: the decoder worker body must not allocate
// in steady state — neither for a healthy stripe nor for a hedged one
// that reconstructs a missing data shard through the spare-buffer
// pool.
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
	// zero-value shardio.Stripe backs it: TakeLate and Release are
	// no-ops, which is exactly the "no late block arrived" case.
	st := &shardio.Stripe{
		States:     make([]shardio.ShardState, k+m),
		Transients: make([]uint64, k+m),
	}
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
		j.demoted = 0
	}
	j := dec.jobs.get()
	prep(j)
	if err := dec.processStripe(j); err != nil { // warm decode-plan cache + spares
		t.Fatal(err)
	}
	for _, i := range j.eras {
		dec.spare.put(j.blocks[i])
	}
	j.eras = j.eras[:0]
	if a := testing.AllocsPerRun(20, func() {
		prep(j)
		if err := dec.processStripe(j); err != nil {
			t.Fatal(err)
		}
		for _, i := range j.eras {
			dec.spare.put(j.blocks[i])
		}
		j.eras = j.eras[:0]
	}); a != 0 {
		t.Errorf("hedged processStripe allocates %.1f per stripe, want 0", a)
	}
	if !bytes.Equal(j.blocks[slowShard], payload[slowShard*enc.ShardSize():(slowShard+1)*enc.ShardSize()]) {
		t.Fatal("reconstructed block has wrong bytes")
	}

	// Healthy stripe: all blocks present, verify-only.
	healthy := dec.jobs.get()
	prepAll := func(j *job) {
		j.blocks = sliceN(j.blocks, k+m)
		for i := range j.blocks {
			st.States[i] = shardio.StateOK
			j.blocks[i] = shards[i][:blockSize]
		}
		j.stripe = st
		j.demoted = 0
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
