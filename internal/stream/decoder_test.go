package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"
)

// decodeAll runs the streaming decoder over the given shard byte
// streams (nil entries = missing shards) and returns the recovered
// payload.
func decodeAll(t testing.TB, opts Options, shards [][]byte, size int64) []byte {
	t.Helper()
	dec, err := NewDecoder(opts)
	if err != nil {
		t.Fatal(err)
	}
	readers := make([]io.Reader, len(shards))
	for i, s := range shards {
		if s != nil {
			readers[i] = bytes.NewReader(s)
		}
	}
	var out bytes.Buffer
	if err := dec.Decode(context.Background(), readers, &out, size); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestDecoderRoundtripAllShards(t *testing.T) {
	code := mustRS(t, 5, 3)
	opts := Options{Codec: code, StripeSize: 1000, Workers: 3}
	for _, n := range []int{0, 1, 999, 1000, 1001, 5*1000 + 123} {
		payload := randBytes(t, n, int64(n)+99)
		shards := encodeAll(t, opts, payload)
		got := decodeAll(t, opts, shards, int64(n))
		if !bytes.Equal(got, payload) {
			t.Fatalf("n=%d: roundtrip mismatch", n)
		}
	}
}

func TestDecoderExactlyKShards(t *testing.T) {
	code := mustRS(t, 4, 2)
	opts := Options{Codec: code, StripeSize: 4096, Workers: 2}
	payload := randBytes(t, 3<<16, 5)
	shards := encodeAll(t, opts, payload)
	// Feed exactly k of k+m streams: drop one data and one parity.
	shards[1] = nil
	shards[5] = nil
	dec, err := NewDecoder(opts)
	if err != nil {
		t.Fatal(err)
	}
	readers := make([]io.Reader, len(shards))
	for i, s := range shards {
		if s != nil {
			readers[i] = bytes.NewReader(s)
		}
	}
	var out bytes.Buffer
	if err := dec.Decode(context.Background(), readers, &out, int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("roundtrip mismatch with exactly k shards")
	}
	st := dec.Stats()
	if st.Reconstructed != st.Stripes || st.Stripes == 0 {
		t.Fatalf("Reconstructed = %d, want every one of %d stripes", st.Reconstructed, st.Stripes)
	}
}

func TestDecoderTooManyMissing(t *testing.T) {
	opts := Options{Codec: mustRS(t, 4, 2), StripeSize: 1024}
	payload := randBytes(t, 10000, 6)
	shards := encodeAll(t, opts, payload)
	shards[0], shards[2], shards[4] = nil, nil, nil // 3 > m=2
	dec, err := NewDecoder(opts)
	if err != nil {
		t.Fatal(err)
	}
	readers := make([]io.Reader, len(shards))
	for i, s := range shards {
		if s != nil {
			readers[i] = bytes.NewReader(s)
		}
	}
	if err := dec.Decode(context.Background(), readers, io.Discard, int64(len(payload))); err == nil {
		t.Fatal("decode succeeded with more than m missing shards")
	}
}

// erraticReader fails with err after serving n bytes.
type erraticReader struct {
	data []byte
	n    int
	err  error
}

func (r *erraticReader) Read(p []byte) (int, error) {
	if r.n >= len(r.data) || r.n < 0 {
		return 0, r.err
	}
	want := len(p)
	if r.n+want > len(r.data) {
		want = len(r.data) - r.n
	}
	copy(p, r.data[r.n:r.n+want])
	r.n += want
	if r.n >= len(r.data) {
		r.n = -1
		return want, r.err
	}
	return want, nil
}

// TestDecoderMidStreamReaderFailure kills two shard readers partway
// through the stream; decode must retire them and keep going.
func TestDecoderMidStreamReaderFailure(t *testing.T) {
	code := mustRS(t, 6, 3)
	opts := Options{Codec: code, StripeSize: 6 * 512, Workers: 4}
	payload := randBytes(t, 40*6*512+77, 8)
	shards := encodeAll(t, opts, payload)
	readers := make([]io.Reader, len(shards))
	for i, s := range shards {
		readers[i] = bytes.NewReader(s)
	}
	// Shard 2 errors halfway; shard 7 goes ragged-short (clean EOF
	// while its peers still have data).
	readers[2] = &erraticReader{data: shards[2][:len(shards[2])/2], err: errors.New("nvme dropped off the bus")}
	readers[7] = bytes.NewReader(shards[7][:len(shards[7])/3])

	dec, err := NewDecoder(opts)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := dec.Decode(context.Background(), readers, &out, int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("payload corrupted after mid-stream shard failures")
	}
	st := dec.Stats()
	if st.ShardFailures != 2 {
		t.Fatalf("ShardFailures = %d, want 2", st.ShardFailures)
	}
	if st.Reconstructed == 0 {
		t.Fatal("expected reconstructed stripes")
	}
}

func TestDecoderFailuresExceedParityMidStream(t *testing.T) {
	code := mustRS(t, 4, 2)
	opts := Options{Codec: code, StripeSize: 4 * 256, Workers: 2}
	payload := randBytes(t, 20*4*256, 10)
	shards := encodeAll(t, opts, payload)
	readers := make([]io.Reader, len(shards))
	for i, s := range shards {
		readers[i] = bytes.NewReader(s)
	}
	boom := errors.New("bus error")
	for _, i := range []int{0, 3, 5} { // 3 dead > m=2
		readers[i] = &erraticReader{data: shards[i][:len(shards[i])/2], err: boom}
	}
	dec, err := NewDecoder(opts)
	if err != nil {
		t.Fatal(err)
	}
	err = dec.Decode(context.Background(), readers, io.Discard, int64(len(payload)))
	if err == nil {
		t.Fatal("decode succeeded with failures exceeding parity")
	}
}

func TestDecoderPrematureEnd(t *testing.T) {
	opts := Options{Codec: mustRS(t, 4, 2), StripeSize: 1024}
	payload := randBytes(t, 8000, 12)
	shards := encodeAll(t, opts, payload)
	for i := range shards {
		shards[i] = shards[i][:len(shards[i])/2] // truncate every shard
	}
	dec, err := NewDecoder(opts)
	if err != nil {
		t.Fatal(err)
	}
	readers := make([]io.Reader, len(shards))
	for i, s := range shards {
		readers[i] = bytes.NewReader(s)
	}
	if err := dec.Decode(context.Background(), readers, io.Discard, int64(len(payload))); err == nil {
		t.Fatal("decode succeeded on truncated shards with a declared size")
	}
}

// TestDecoderUnknownSize decodes with size < 0: the stream ends at
// shard EOF and includes the encoder's tail padding.
func TestDecoderUnknownSize(t *testing.T) {
	code := mustRS(t, 4, 2)
	opts := Options{Codec: code, StripeSize: 1024, Workers: 2}
	payload := randBytes(t, 3000, 13) // pads to 3 stripes = 3072 bytes
	shards := encodeAll(t, opts, payload)
	got := decodeAll(t, opts, shards, -1)
	if len(got) != 3072 {
		t.Fatalf("got %d bytes, want 3072 (payload + padding)", len(got))
	}
	if !bytes.Equal(got[:3000], payload) {
		t.Fatal("payload prefix corrupted")
	}
	for _, b := range got[3000:] {
		if b != 0 {
			t.Fatal("padding not zero")
		}
	}
}

func TestDecoderCancellationMidStream(t *testing.T) {
	opts := Options{Codec: mustRS(t, 4, 2), StripeSize: 1024, Workers: 2}
	dec, err := NewDecoder(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	// Four good stripes, then every shard stalls until cancelled.
	shards := encodeAll(t, opts, randBytes(t, 4*1024, 14))
	readers := make([]io.Reader, dec.g.k+dec.g.m)
	for i := range readers {
		readers[i] = io.MultiReader(bytes.NewReader(shards[i]), &blockingReader{ctx: ctx})
	}
	done := make(chan error, 1)
	go func() {
		done <- dec.Decode(ctx, readers, io.Discard, -1)
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("Decode returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Decode did not return after cancellation")
	}
}

// TestDecodeBringsSparesOnEvidence: a read given exactly k shards takes
// a spare only at a stripe that comes up short — a dead shard, a
// corrupt block — one per piece of evidence and named for it, while a
// healthy read takes none; the bytes are exact either way.
func TestDecodeBringsSparesOnEvidence(t *testing.T) {
	const k, m, shardSize, stripes = 4, 2, 256, 6
	const blockSize = shardSize + crcSize
	opts := Options{Codec: mustRS(t, k, m), StripeSize: k * shardSize, Workers: 2}
	payload := randBytes(t, stripes*k*shardSize-33, 41)
	size := int64(len(payload))
	shards := encodeAll(t, opts, payload)
	corrupt := func(i, stripe int) io.Reader {
		b := append([]byte(nil), shards[i]...)
		b[stripe*blockSize+5] ^= 1
		return bytes.NewReader(b)
	}
	for _, tc := range []struct {
		name   string
		damage map[int]io.Reader
		want   string // the spares opened, in order
	}{
		{"healthy", nil, "[]"},
		{"corrupt block", map[int]io.Reader{1: corrupt(1, 2)}, "[2 corrupt]"},
		{"dead shard and corrupt block", map[int]io.Reader{
			0: bytes.NewReader(shards[0][:3*blockSize+7]),
			2: corrupt(2, 3),
		}, "[3 dead 3 corrupt]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dec, err := NewDecoder(opts)
			if err != nil {
				t.Fatal(err)
			}
			readers := make([]io.Reader, k+m)
			for i := 0; i < k; i++ {
				readers[i] = bytes.NewReader(shards[i])
			}
			for i, r := range tc.damage {
				readers[i] = r
			}
			next := k
			calls := []string{}
			spare := func(_ context.Context, block int64, reason string) (int, io.Reader, error) {
				calls = append(calls, fmt.Sprintf("%d %s", block, reason))
				next++
				return next - 1, bytes.NewReader(shards[next-1][block*blockSize:]), nil
			}
			var out bytes.Buffer
			if err := dec.DecodeRange(context.Background(), readers, &out, size, 0, size, spare); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), payload) {
				t.Fatal("decoded bytes differ from the payload")
			}
			if got := fmt.Sprint(calls); got != tc.want {
				t.Fatalf("spares opened %s, want %s", got, tc.want)
			}
		})
	}
}

func TestDecoderValidation(t *testing.T) {
	dec, err := NewDecoder(Options{Codec: mustRS(t, 4, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(context.Background(), make([]io.Reader, 3), io.Discard, 0); err == nil {
		t.Fatal("wrong reader count accepted")
	}
	// Only 3 of 6 readers present (< k=4).
	readers := make([]io.Reader, 6)
	for i := 0; i < 3; i++ {
		readers[i] = bytes.NewReader(nil)
	}
	if err := dec.Decode(context.Background(), readers, io.Discard, 0); err == nil {
		t.Fatal("too few present readers accepted")
	}
}
