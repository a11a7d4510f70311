package stream

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"dialga/internal/gf"
	"dialga/internal/rs"
)

func randBytes(t testing.TB, n int, seed int64) []byte {
	t.Helper()
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func mustRS(t testing.TB, k, m int) *rs.Code {
	t.Helper()
	c, err := rs.New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// encodeAll runs the streaming encoder over payload and returns the
// k+m shard byte streams.
func encodeAll(t testing.TB, opts Options, payload []byte) [][]byte {
	t.Helper()
	enc, err := NewEncoder(opts)
	if err != nil {
		t.Fatal(err)
	}
	bufs := make([]bytes.Buffer, enc.Shards())
	writers := make([]io.Writer, enc.Shards())
	for i := range bufs {
		writers[i] = &bufs[i]
	}
	if err := enc.Encode(context.Background(), bytes.NewReader(payload), writers); err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(bufs))
	for i := range bufs {
		out[i] = append([]byte{}, bufs[i].Bytes()...) // non-nil even when empty
	}
	return out
}

// referenceEncode produces the expected shard streams without the
// pipeline: stripe by stripe, the single-threaded whole-buffer
// rs.Encode, then gf.CRC32C over each block for the trailer behind it —
// the two-pass computation the encoder's fused sweep must reproduce. It
// uses rs.SplitCopy so the reference path never aliases (and never
// mutates) the payload under test.
func referenceEncode(t testing.TB, code *rs.Code, stripeSize int, payload []byte) [][]byte {
	t.Helper()
	out := make([][]byte, code.K()+code.M())
	for off := 0; off < len(payload); off += stripeSize {
		stripe := make([]byte, stripeSize)
		copy(stripe, payload[off:min(off+stripeSize, len(payload))])
		data, err := rs.SplitCopy(stripe, code.K())
		if err != nil {
			t.Fatal(err)
		}
		parity, err := code.EncodeAppend(data)
		if err != nil {
			t.Fatal(err)
		}
		for i, block := range append(data, parity...) {
			out[i] = binary.LittleEndian.AppendUint32(append(out[i], block...), gf.CRC32C(block))
		}
	}
	return out
}

func TestEncoderMatchesWholeBufferKernel(t *testing.T) {
	code := mustRS(t, 5, 3)
	opts := Options{Codec: code, StripeSize: 1000, Workers: 3}
	enc, err := NewEncoder(opts)
	if err != nil {
		t.Fatal(err)
	}
	stripeSize := enc.StripeSize()
	for _, n := range []int{1, 17, stripeSize - 1, stripeSize, stripeSize + 1, 3*stripeSize + 123} {
		payload := randBytes(t, n, int64(n))
		got := encodeAll(t, opts, payload)
		want := referenceEncode(t, code, stripeSize, payload)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("n=%d: shard %d differs from whole-buffer kernel", n, i)
			}
		}
	}
}

func TestEncoderEmptyInput(t *testing.T) {
	opts := Options{Codec: mustRS(t, 4, 2), StripeSize: 64}
	shards := encodeAll(t, opts, nil)
	for i, s := range shards {
		if len(s) != 0 {
			t.Fatalf("shard %d has %d bytes for empty input", i, len(s))
		}
	}
}

func TestEncoderInputSmallerThanOneStripe(t *testing.T) {
	code := mustRS(t, 4, 2)
	opts := Options{Codec: code, StripeSize: 4096, Workers: 2}
	payload := randBytes(t, 100, 1)
	shards := encodeAll(t, opts, payload)
	want := referenceEncode(t, code, 4096, payload)
	for i := range want {
		if !bytes.Equal(shards[i], want[i]) {
			t.Fatalf("shard %d differs", i)
		}
	}
	if len(shards[0]) != 1024+crcSize {
		t.Fatalf("shard size %d, want one full zero-padded stripe shard of 1024 and its trailer", len(shards[0]))
	}
}

// TestEncoderWorkerEquivalence checks that shard output is
// byte-identical regardless of worker count (and the in-flight window
// that follows from it).
func TestEncoderWorkerEquivalence(t *testing.T) {
	code := mustRS(t, 8, 4)
	payload := randBytes(t, 2<<20, 42)
	base := encodeAll(t, Options{Codec: code, StripeSize: 64 << 10, Workers: 1}, payload)
	for _, workers := range []int{2, 4, 8} {
		got := encodeAll(t, Options{Codec: code, StripeSize: 64 << 10, Workers: workers}, payload)
		for i := range base {
			if !bytes.Equal(base[i], got[i]) {
				t.Fatalf("workers=%d: shard %d differs from single-worker output", workers, i)
			}
		}
	}
}

func TestEncoderStats(t *testing.T) {
	code := mustRS(t, 4, 2)
	opts := Options{Codec: code, StripeSize: 1024, Workers: 2}
	payload := randBytes(t, 2500, 9) // 3 stripes, last one short
	enc, err := NewEncoder(opts)
	if err != nil {
		t.Fatal(err)
	}
	writers := make([]io.Writer, enc.Shards())
	for i := range writers {
		writers[i] = io.Discard
	}
	if err := enc.Encode(context.Background(), bytes.NewReader(payload), writers); err != nil {
		t.Fatal(err)
	}
	st := enc.Stats()
	if st.Stripes != 3 {
		t.Fatalf("Stripes = %d, want 3", st.Stripes)
	}
	if st.BytesIn != 2500 {
		t.Fatalf("BytesIn = %d, want 2500", st.BytesIn)
	}
	wantOut := uint64(3 * 6 * enc.BlockSize())
	if st.BytesOut != wantOut {
		t.Fatalf("BytesOut = %d, want %d", st.BytesOut, wantOut)
	}
	if _, sum, n := enc.stats.lat.Snapshot(); n != 3 || sum <= 0 {
		t.Fatalf("stream_stripe_latency_us: %d observations summing to %vµs, want 3 above 0", n, sum)
	}
}

// blockingReader yields a few stripes then blocks until its context is
// cancelled, simulating a stalled input.
type blockingReader struct {
	remaining int
	ctx       context.Context
}

func (r *blockingReader) Read(p []byte) (int, error) {
	if r.remaining <= 0 {
		<-r.ctx.Done()
		return 0, r.ctx.Err()
	}
	n := len(p)
	if n > r.remaining {
		n = r.remaining
	}
	r.remaining -= n
	return n, nil
}

func TestEncoderCancellationMidStream(t *testing.T) {
	opts := Options{Codec: mustRS(t, 4, 2), StripeSize: 1024, Workers: 2}
	enc, err := NewEncoder(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	writers := make([]io.Writer, enc.Shards())
	for i := range writers {
		writers[i] = io.Discard
	}
	done := make(chan error, 1)
	go func() {
		done <- enc.Encode(ctx, &blockingReader{remaining: 10 * 1024, ctx: ctx}, writers)
	}()
	time.Sleep(10 * time.Millisecond) // let a few stripes through
	cancel()
	select {
	case err := <-done:
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("Encode returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Encode did not return after cancellation")
	}
}

type failingReader struct {
	n   int
	err error
	off int
}

func (r *failingReader) Read(p []byte) (int, error) {
	if r.off >= r.n {
		return 0, r.err
	}
	n := len(p)
	if r.off+n > r.n {
		n = r.n - r.off
	}
	for i := 0; i < n; i++ {
		p[i] = byte(r.off + i)
	}
	r.off += n
	return n, nil
}

func TestEncoderReaderErrorPropagates(t *testing.T) {
	opts := Options{Codec: mustRS(t, 4, 2), StripeSize: 512, Workers: 2}
	enc, err := NewEncoder(opts)
	if err != nil {
		t.Fatal(err)
	}
	writers := make([]io.Writer, enc.Shards())
	for i := range writers {
		writers[i] = io.Discard
	}
	boom := errors.New("disk on fire")
	err = enc.Encode(context.Background(), &failingReader{n: 5 * 512, err: boom}, writers)
	if !errors.Is(err, boom) {
		t.Fatalf("Encode returned %v, want the reader error", err)
	}
}

type failingWriter struct {
	allow int
	err   error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.allow <= 0 {
		return 0, w.err
	}
	w.allow--
	return len(p), nil
}

func TestEncoderWriterErrorPropagates(t *testing.T) {
	opts := Options{Codec: mustRS(t, 4, 2), StripeSize: 512, Workers: 4}
	enc, err := NewEncoder(opts)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("quota exceeded")
	writers := make([]io.Writer, enc.Shards())
	for i := range writers {
		writers[i] = io.Discard
	}
	writers[3] = &failingWriter{allow: 2, err: boom}
	payload := randBytes(t, 64<<10, 3)
	err = enc.Encode(context.Background(), bytes.NewReader(payload), writers)
	if !errors.Is(err, boom) {
		t.Fatalf("Encode returned %v, want the writer error", err)
	}
}

func TestEncoderShardCountValidation(t *testing.T) {
	enc, err := NewEncoder(Options{Codec: mustRS(t, 4, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(context.Background(), bytes.NewReader(nil), make([]io.Writer, 5)); err == nil {
		t.Fatal("wrong writer count accepted")
	}
	writers := make([]io.Writer, 6)
	for i := 0; i < 5; i++ {
		writers[i] = io.Discard
	}
	if err := enc.Encode(context.Background(), bytes.NewReader(nil), writers); err == nil {
		t.Fatal("nil writer accepted")
	}
}

func TestEncoderReusableAcrossCalls(t *testing.T) {
	code := mustRS(t, 4, 2)
	enc, err := NewEncoder(Options{Codec: code, StripeSize: 1024, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	payload := randBytes(t, 5000, 11)
	want := referenceEncode(t, code, enc.StripeSize(), payload)
	for round := 0; round < 3; round++ {
		bufs := make([]bytes.Buffer, enc.Shards())
		writers := make([]io.Writer, enc.Shards())
		for i := range bufs {
			writers[i] = &bufs[i]
		}
		if err := enc.Encode(context.Background(), bytes.NewReader(payload), writers); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !bytes.Equal(bufs[i].Bytes(), want[i]) {
				t.Fatalf("round %d: shard %d differs (pooled buffers leaked state?)", round, i)
			}
		}
	}
	if st := enc.Stats(); st.Stripes != 15 { // 5 stripes x 3 rounds
		t.Fatalf("Stripes = %d, want 15 accumulated", st.Stripes)
	}
}

func ExampleEncoder() {
	code, _ := rs.New(4, 2)
	enc, _ := NewEncoder(Options{Codec: code, StripeSize: 8, Workers: 2})
	var shards [6]bytes.Buffer
	writers := make([]io.Writer, 6)
	for i := range writers {
		writers[i] = &shards[i]
	}
	_ = enc.Encode(context.Background(), bytes.NewReader([]byte("persistent-memory!")), writers)
	fmt.Println(enc.Stats().Stripes, "stripes,", enc.Stats().BytesIn, "bytes in")
	// Output: 3 stripes, 18 bytes in
}

// TestEncodeStripesMatchesEncode: the stripes EncodeStripes lends hold,
// block for block, the bytes Encode writes — for every worker count and
// with a short tail stripe — while the consumer keeps every stripe until
// the encode has returned.
func TestEncodeStripesMatchesEncode(t *testing.T) {
	code := mustRS(t, 4, 2)
	payload := randBytes(t, 9*(16<<10)+333, 77) // nine full stripes and a short tail
	want := encodeAll(t, Options{Codec: code, StripeSize: 16 << 10, Workers: 1}, payload)
	for _, workers := range []int{1, 2, 3, 8} {
		enc, err := NewEncoder(Options{Codec: code, StripeSize: 16 << 10, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var held []*Stripe
		err = enc.EncodeStripes(context.Background(), bytes.NewReader(payload), func(st *Stripe) error {
			held = append(held, st)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]byte, enc.Shards())
		for _, st := range held {
			for i := range got {
				payload, trailer := st.Block(i)
				got[i] = append(append(got[i], payload...), trailer...)
			}
			st.Release()
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("workers=%d: shard %d by reference differs from Encode's", workers, i)
			}
		}
	}
}

// TestEncodeStripesReleasesEveryStripe: a stripe that is emitted is the
// consumer's to release, once; one that is read or encoded but never
// emitted is recycled by the pipeline. The allocator's list of stripe
// buffers is filled before each run, so whether every stripe came back
// exactly once is its length afterwards (a second release of any stripe
// panics).
func TestEncodeStripesReleasesEveryStripe(t *testing.T) {
	const stripe, stripes, pooled = 4 << 10, 40, 64
	payload := randBytes(t, stripes*stripe, 78)
	errBoom := errors.New("boom")
	for _, tc := range []struct {
		name string
		src  func() io.Reader
		emit func(n int, cancel context.CancelFunc) error // called with the stripe's ordinal
		want error
	}{
		{name: "success", src: func() io.Reader { return bytes.NewReader(payload) },
			emit: func(int, context.CancelFunc) error { return nil }},
		{name: "source fails", want: errBoom,
			src:  func() io.Reader { return &failingReader{n: 7*stripe + 100, err: errBoom} },
			emit: func(int, context.CancelFunc) error { return nil }},
		{name: "emit fails", want: errBoom, src: func() io.Reader { return bytes.NewReader(payload) },
			emit: func(n int, _ context.CancelFunc) error {
				if n == 3 {
					return errBoom
				}
				return nil
			}},
		{name: "cancelled", want: context.Canceled, src: func() io.Reader { return bytes.NewReader(payload) },
			emit: func(n int, cancel context.CancelFunc) error {
				if n == 3 {
					cancel()
				}
				return nil
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc, err := NewEncoder(Options{Codec: mustRS(t, 4, 2), StripeSize: stripe, Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			warm := make([]*Stripe, pooled)
			for i := range warm {
				warm[i] = enc.lend()
			}
			for _, st := range warm {
				st.Release()
			}
			size := len(warm[0].buf)
			idle := func() int { return IdleBuffers()[size] }
			filled := idle()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var held []*Stripe
			err = enc.EncodeStripes(ctx, tc.src(), func(st *Stripe) error {
				held = append(held, st)
				return tc.emit(len(held)-1, cancel)
			})
			if !errors.Is(err, tc.want) || (tc.want == nil && len(held) != stripes) {
				t.Fatalf("err = %v after %d stripes, want %v", err, len(held), tc.want)
			}
			if free := idle(); free != filled-len(held) {
				t.Fatalf("%d stripes idle with %d lent out, want %d: the pipeline kept or lost some", free, len(held), filled-len(held))
			}
			for _, st := range held {
				st.Release()
			}
			if free := idle(); free != filled {
				t.Fatalf("%d stripes idle after every release, want %d", free, filled)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("a second Release of one stripe went unnoticed")
				}
			}()
			held[0].Release()
		})
	}
}
