package dialga

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

func ExampleCodec() {
	codec, _ := NewCodec(4, 2) // RS(6,4): 4 data + 2 parity

	payload := []byte("the quick brown fox jumps over the lazy dog!")
	data, _ := Split(payload, 4)
	parity, _ := codec.EncodeAppend(data)

	stripe := append(data, parity...)
	stripe[1], stripe[4] = nil, nil // lose one data and one parity block
	_ = codec.Reconstruct(stripe)

	restored, _ := Join(stripe[:4], len(payload))
	fmt.Println(string(restored))
	// Output: the quick brown fox jumps over the lazy dog!
}

func TestFacadeCodecRoundtrip(t *testing.T) {
	c, err := NewCodec(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.K() != 6 || c.M() != 3 {
		t.Fatal("accessors wrong")
	}
	payload := make([]byte, 10000)
	rand.New(rand.NewSource(1)).Read(payload)
	data, err := Split(payload, 6)
	if err != nil {
		t.Fatal(err)
	}
	parity, err := c.EncodeAppend(data)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := c.Verify(data, parity)
	if err != nil || !ok {
		t.Fatal("verify failed")
	}
	stripe := append(append([][]byte{}, data...), parity...)
	stripe[0], stripe[4], stripe[7] = nil, nil, nil
	if err := c.Reconstruct(stripe); err != nil {
		t.Fatal(err)
	}
	back, err := Join(stripe[:6], len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, payload) {
		t.Fatal("payload corrupted")
	}
}

func TestFacadeCodecEncodeInPlace(t *testing.T) {
	c, _ := NewCodec(4, 2)
	r := rand.New(rand.NewSource(2))
	data := make([][]byte, 4)
	for i := range data {
		data[i] = make([]byte, 256)
		r.Read(data[i])
	}
	parity := make([][]byte, 2)
	for i := range parity {
		parity[i] = make([]byte, 256)
	}
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	ok, _ := c.Verify(data, parity)
	if !ok {
		t.Fatal("Encode left parity inconsistent")
	}
}

// TestFacadeStreamRoundtrip drives the streaming pipeline end to end
// through the public facade: encode a payload to in-memory shard
// streams, lose m of them, and decode the payload back.
func TestFacadeStreamRoundtrip(t *testing.T) {
	codec, err := NewCodec(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	opts := StreamOptions{Codec: codec, StripeSize: 256 << 10, Workers: 4}
	payload := make([]byte, 3<<20+999)
	rand.New(rand.NewSource(77)).Read(payload)

	bufs := make([]bytes.Buffer, 12)
	writers := make([]io.Writer, 12)
	for i := range bufs {
		writers[i] = &bufs[i]
	}
	st, err := StreamEncode(context.Background(), opts, bytes.NewReader(payload), writers)
	if err != nil {
		t.Fatal(err)
	}
	if st.BytesIn != uint64(len(payload)) {
		t.Fatalf("BytesIn = %d, want %d", st.BytesIn, len(payload))
	}
	if st.Stripes != 13 { // ceil((3 MiB + 999) / 256 KiB)
		t.Fatalf("Stripes = %d, want 13", st.Stripes)
	}

	readers := make([]io.Reader, 12)
	for i := range bufs {
		readers[i] = bytes.NewReader(bufs[i].Bytes())
	}
	readers[0], readers[3], readers[8], readers[11] = nil, nil, nil, nil // lose m=4 shards
	var out bytes.Buffer
	st, err = StreamDecode(context.Background(), opts, readers, &out, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("streaming roundtrip corrupted the payload")
	}
	if st.Reconstructed != 13 {
		t.Fatalf("Reconstructed = %d, want every stripe", st.Reconstructed)
	}
}

// TestFacadeStreamHealing flips bytes inside encoded shard streams
// and checks the default CRC-32C mode detects and heals them through
// the public facade, surfacing the integrity counters; beyond the
// parity budget the typed ErrTooManyCorrupt surfaces instead.
func TestFacadeStreamHealing(t *testing.T) {
	codec, err := NewCodec(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	opts := StreamOptions{Codec: codec, StripeSize: 4 << 10, Workers: 2}
	payload := make([]byte, 5<<10+333)
	rand.New(rand.NewSource(5)).Read(payload)

	encodeShards := func() [][]byte {
		bufs := make([]bytes.Buffer, 6)
		writers := make([]io.Writer, 6)
		for i := range bufs {
			writers[i] = &bufs[i]
		}
		if _, err := StreamEncode(context.Background(), opts, bytes.NewReader(payload), writers); err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, 6)
		for i := range bufs {
			out[i] = bufs[i].Bytes()
		}
		return out
	}

	// Corrupt one byte in two different shards (within the parity
	// budget m=2): decode heals and reports it.
	shards := encodeShards()
	shards[1][10] ^= 0xff
	shards[4][100] ^= 0x01
	readers := make([]io.Reader, 6)
	for i, s := range shards {
		readers[i] = bytes.NewReader(s)
	}
	var out bytes.Buffer
	st, err := StreamDecode(context.Background(), opts, readers, &out, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("healed decode returned wrong bytes")
	}
	if st.ShardsCorrupted != 2 {
		t.Fatalf("ShardsCorrupted = %d, want 2", st.ShardsCorrupted)
	}
	if st.StripesHealed == 0 {
		t.Fatal("StripesHealed = 0 after healing corrupt blocks")
	}

	// Corrupt m+1=3 shards in the same stripe: typed failure, no
	// silent wrong bytes.
	shards = encodeShards()
	shards[0][20] ^= 0x80
	shards[2][25] ^= 0x80
	shards[5][30] ^= 0x80
	for i, s := range shards {
		readers[i] = bytes.NewReader(s)
	}
	out.Reset()
	if _, err := StreamDecode(context.Background(), opts, readers, &out, int64(len(payload))); !errors.Is(err, ErrTooManyCorrupt) {
		t.Fatalf("decode with m+1 corrupt shards returned %v, want ErrTooManyCorrupt", err)
	}
}

func TestFacadeSplitCopy(t *testing.T) {
	payload := []byte("aliasing is a contract, not an accident")
	orig := append([]byte(nil), payload...)
	shards, err := SplitCopy(payload, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shards {
		for i := range s {
			s[i] = 0xAA
		}
	}
	if !bytes.Equal(payload, orig) {
		t.Fatal("SplitCopy shards alias the input")
	}
}

func TestFacadeInvalidParams(t *testing.T) {
	if _, err := NewCodec(0, 4); err == nil {
		t.Fatal("bad codec params accepted")
	}
}

func TestFacadeFigureIDs(t *testing.T) {
	ids := FigureIDs()
	if len(ids) < 15 {
		t.Fatalf("only %d figure ids", len(ids))
	}
	// The returned slice is a copy.
	ids[0] = "mutated"
	if FigureIDs()[0] == "mutated" {
		t.Fatal("FigureIDs leaked internal storage")
	}
}

func TestFacadeReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("reproduction smoke skipped in -short mode")
	}
	f, err := Reproduce("fig03", true)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "fig03" || len(f.Series) == 0 {
		t.Fatal("bad figure")
	}
	if _, err := Reproduce("nope", true); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// TestFacadeObservability drives a traced, metered roundtrip through
// the public facade: the registry accumulates stream_* series for both
// directions, Expose renders them in Prometheus text format, and the
// tracer retains per-stripe spans.
func TestFacadeObservability(t *testing.T) {
	codec, err := NewCodec(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetricsRegistry()
	tr := NewStreamTracer(0) // DefaultTraceCapacity
	opts := StreamOptions{Codec: codec, StripeSize: 64 << 10, Workers: 2, Metrics: reg, Trace: tr}
	payload := make([]byte, 1<<20+123)
	rand.New(rand.NewSource(5)).Read(payload)

	bufs := make([]bytes.Buffer, 6)
	writers := make([]io.Writer, 6)
	for i := range bufs {
		writers[i] = &bufs[i]
	}
	if _, err := StreamEncode(context.Background(), opts, bytes.NewReader(payload), writers); err != nil {
		t.Fatal(err)
	}
	readers := make([]io.Reader, 6)
	for i := range bufs {
		readers[i] = bytes.NewReader(bufs[i].Bytes())
	}
	readers[1] = nil // force reconstruction so decode-side series move
	var out bytes.Buffer
	if _, err := StreamDecode(context.Background(), opts, readers, &out, int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("observed roundtrip corrupted the payload")
	}

	var text bytes.Buffer
	if err := reg.Expose(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`stream_stripes_total{pipeline="decode"}`,
		`stream_stripes_total{pipeline="encode"}`,
		`stream_reconstructed_total{pipeline="decode"}`,
		`stream_stripe_latency_us_bucket`,
		`shardio_deadline_us`,
	} {
		if !bytes.Contains(text.Bytes(), []byte(want)) {
			t.Fatalf("exposition missing %s:\n%s", want, text.String())
		}
	}
	if tr.Total() == 0 {
		t.Fatal("tracer recorded no spans")
	}
	spans := tr.Snapshot()
	if len(spans) == 0 {
		t.Fatal("tracer snapshot empty")
	}
	seen := map[string]bool{}
	for _, sp := range spans {
		for _, ev := range sp.Events {
			seen[ev.Name] = true
		}
	}
	for _, want := range []string{"read", "emit"} {
		if !seen[want] {
			t.Fatalf("no %q span event recorded (saw %v)", want, seen)
		}
	}
}
