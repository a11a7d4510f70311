package stream

import (
	"bytes"
	"context"
	"io"
	"testing"
)

// decodeRange runs DecodeRange over block-windowed slices of the
// shard streams — the same windows a remote block fetch would return:
// each reader starts at the first block of the stripe containing off
// and holds exactly the blocks the window covers.
func decodeRange(t testing.TB, opts Options, shards [][]byte, size, off, length int64) []byte {
	t.Helper()
	dec, err := NewDecoder(opts)
	if err != nil {
		t.Fatal(err)
	}
	stripe := int64(dec.g.stripeSize)
	block := int64(dec.g.blockSize)
	first := off / stripe
	end := off + length
	if length < 0 || end > size {
		end = size
	}
	last := (end + stripe - 1) / stripe
	if last <= first {
		last = first + 1
	}
	readers := make([]io.Reader, len(shards))
	for i, s := range shards {
		if s == nil {
			continue
		}
		lo, hi := first*block, last*block
		if hi > int64(len(s)) {
			hi = int64(len(s))
		}
		readers[i] = bytes.NewReader(s[lo:hi])
	}
	var out bytes.Buffer
	if err := dec.DecodeRange(context.Background(), readers, &out, size, off, length, nil); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestDecodeRangeMatchesSlices is the core range-read property: for
// any window, DecodeRange over block-windowed shard readers yields
// exactly payload[off:off+length], including ragged-tail and
// clamped-length windows.
func TestDecodeRangeMatchesSlices(t *testing.T) {
	code := mustRS(t, 4, 2)
	opts := Options{Codec: code, StripeSize: 1000, Workers: 2}
	size := int64(4*1000 + 123) // five stripes, ragged tail
	payload := randBytes(t, int(size), 77)
	shards := encodeAll(t, opts, payload)

	cases := []struct {
		name        string
		off, length int64
	}{
		{"start", 0, 10},
		{"full-object", 0, size},
		{"mid-stripe", 450, 200},
		{"stripe-aligned", 1000, 1000},
		{"cross-stripe", 900, 1200},
		{"three-stripes", 500, 3000},
		{"tail-partial-stripe", 4000, 123},
		{"into-ragged-tail", 3990, 50},
		{"last-byte", size - 1, 1},
		{"open-ended", 2500, -1},
		{"length-clamped", 3500, 1 << 20},
		{"zero-length", 1500, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := decodeRange(t, opts, shards, size, tc.off, tc.length)
			end := tc.off + tc.length
			if tc.length < 0 || end > size {
				end = size
			}
			want := payload[tc.off:end]
			if !bytes.Equal(got, want) {
				t.Fatalf("off=%d length=%d: got %d bytes, want %d (mismatch)",
					tc.off, tc.length, len(got), len(want))
			}
		})
	}
}

// TestDecodeRangeReconstructs proves a window decodes through missing
// shards: with m shards gone, every block of the window is rebuilt
// from the survivors and the bytes still match the payload slice.
func TestDecodeRangeReconstructs(t *testing.T) {
	code := mustRS(t, 4, 2)
	opts := Options{Codec: code, StripeSize: 1000, Workers: 2}
	size := int64(6*1000 + 500)
	payload := randBytes(t, int(size), 13)
	shards := encodeAll(t, opts, payload)
	shards[1], shards[4] = nil, nil // one data, one parity shard lost

	got := decodeRange(t, opts, shards, size, 2345, 2000)
	if want := payload[2345 : 2345+2000]; !bytes.Equal(got, want) {
		t.Fatalf("degraded range decode mismatch: got %d bytes, want %d", len(got), len(want))
	}
}

// TestDecodeRangeFullEqualsDecode pins the degenerate window: off 0,
// length size over full shard streams must behave exactly like Decode.
func TestDecodeRangeFullEqualsDecode(t *testing.T) {
	code := mustRS(t, 3, 2)
	opts := Options{Codec: code, StripeSize: 600, Workers: 2}
	for _, n := range []int64{0, 1, 599, 600, 601, 3*600 + 17} {
		payload := randBytes(t, int(n), n+5)
		shards := encodeAll(t, opts, payload)
		got := decodeRange(t, opts, shards, n, 0, n)
		if !bytes.Equal(got, payload) {
			t.Fatalf("n=%d: full-window DecodeRange != payload", n)
		}
	}
}

// TestDecodeRangeBadOffset rejects windows starting outside the
// stream instead of quietly decoding garbage.
func TestDecodeRangeBadOffset(t *testing.T) {
	code := mustRS(t, 3, 2)
	opts := Options{Codec: code, StripeSize: 600, Workers: 1}
	payload := randBytes(t, 1200, 3)
	shards := encodeAll(t, opts, payload)
	dec, err := NewDecoder(opts)
	if err != nil {
		t.Fatal(err)
	}
	readers := make([]io.Reader, len(shards))
	for i, s := range shards {
		readers[i] = bytes.NewReader(s)
	}
	for _, off := range []int64{-1, 1201} {
		if err := dec.DecodeRange(context.Background(), readers, io.Discard, 1200, off, 10, nil); err == nil {
			t.Fatalf("off=%d: want error, got nil", off)
		}
	}
}
