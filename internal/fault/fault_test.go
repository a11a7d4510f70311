package fault

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"
)

func payload(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

// readAllFlaky drains r, retrying across transient injected errors the
// way a fault-aware consumer would.
func readAllFlaky(t *testing.T, r io.Reader) ([]byte, int) {
	t.Helper()
	var out []byte
	transients := 0
	buf := make([]byte, 13) // odd size to exercise op-boundary capping
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		switch {
		case err == nil:
		case err == io.EOF:
			return out, transients
		case errors.Is(err, ErrInjected):
			transients++
			if transients > 100 {
				t.Fatal("transient error injected more than once per op")
			}
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
}

func TestReaderBitFlip(t *testing.T) {
	src := payload(100)
	plan := Plan{Ops: []Op{{Kind: BitFlip, Off: 42, Bit: 5}}}
	got, _ := readAllFlaky(t, NewReader(bytes.NewReader(src), plan))
	if len(got) != 100 {
		t.Fatalf("got %d bytes, want 100", len(got))
	}
	want := payload(100)
	want[42] ^= 1 << 5
	if !bytes.Equal(got, want) {
		t.Fatal("bit flip not applied exactly at offset 42")
	}
}

func TestReaderZeroFill(t *testing.T) {
	src := payload(200)
	plan := Plan{Ops: []Op{{Kind: ZeroFill, Off: 50, Len: 30}}}
	got, _ := readAllFlaky(t, NewReader(bytes.NewReader(src), plan))
	want := payload(200)
	clear(want[50:80])
	if !bytes.Equal(got, want) {
		t.Fatal("zero fill not applied to [50,80)")
	}
}

func TestReaderTruncate(t *testing.T) {
	src := payload(100)
	plan := Plan{Ops: []Op{{Kind: Truncate, Off: 33}}}
	got, _ := readAllFlaky(t, NewReader(bytes.NewReader(src), plan))
	if !bytes.Equal(got, src[:33]) {
		t.Fatalf("truncate: got %d bytes, want clean EOF after 33", len(got))
	}
}

// TestReaderErrOnce pins the transient contract: the error fires once,
// consumes nothing, and the stream resumes byte-exact.
func TestReaderErrOnce(t *testing.T) {
	src := payload(100)
	plan := Plan{Ops: []Op{{Kind: ErrOnce, Off: 40}}}
	got, transients := readAllFlaky(t, NewReader(bytes.NewReader(src), plan))
	if transients != 1 {
		t.Fatalf("transient fired %d times, want 1", transients)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("stream corrupted or misaligned after transient error")
	}
}

func TestReaderErrOnceAtStart(t *testing.T) {
	src := payload(20)
	r := NewReader(bytes.NewReader(src), Plan{Ops: []Op{{Kind: ErrOnce, Off: 0}}})
	if _, err := r.Read(make([]byte, 8)); !errors.Is(err, ErrInjected) {
		t.Fatalf("first read returned %v, want injected error", err)
	}
	got, transients := readAllFlaky(t, r)
	if transients != 0 || !bytes.Equal(got, src) {
		t.Fatal("stream did not resume cleanly after offset-0 transient")
	}
}

func TestErrTransientAndIs(t *testing.T) {
	err := error(&Err{Off: 7})
	if !errors.Is(err, ErrInjected) {
		t.Fatal("errors.Is(ErrInjected) false for *Err")
	}
	var tr interface{ Transient() bool }
	if !errors.As(err, &tr) || !tr.Transient() {
		t.Fatal("*Err does not advertise Transient() == true")
	}
	if errors.Is(errors.New("other"), ErrInjected) {
		t.Fatal("foreign error matched ErrInjected")
	}
}

func TestPlanStringParseRoundTrip(t *testing.T) {
	plans := []Plan{
		{},
		{Ops: []Op{{Kind: BitFlip, Off: 100, Bit: 3}}},
		{Ops: []Op{
			{Kind: BitFlip, Off: 0, Bit: 7},
			{Kind: ZeroFill, Off: 40, Len: 12},
			{Kind: Truncate, Off: 999},
			{Kind: ErrOnce, Off: 50},
			{Kind: Slow, Off: 0, Len: 4000},
			{Kind: Slow, Off: 512, Len: 3000, Span: 4096},
		}},
	}
	for _, p := range plans {
		s := p.String()
		got, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got.String() != s {
			t.Fatalf("round trip %q -> %q", s, got.String())
		}
	}
	for _, bad := range []string{"flip@", "zap@3", "flip@1.9", "zero@5", "trunc@-1", "flip@x.1",
		"zero@5+2~9", "slow@5+2~0", "slow@5+2~-3", "slow@5+2~x", "short@8", "stall@64+250"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted a malformed plan", bad)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(12345, 1<<16, 8)
	b := Generate(12345, 1<<16, 8)
	if a.String() != b.String() {
		t.Fatal("Generate is not deterministic for a fixed seed")
	}
	if len(a.Ops) != 8 {
		t.Fatalf("Generate produced %d ops, want 8", len(a.Ops))
	}
	c := Generate(54321, 1<<16, 8)
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical plans")
	}
	truncs := 0
	for _, op := range a.Ops {
		if op.Off < 0 || op.Off >= 1<<16 {
			t.Fatalf("op offset %d outside stream", op.Off)
		}
		if op.Kind == Truncate {
			truncs++
		}
	}
	if truncs > 1 {
		t.Fatalf("%d truncations in one plan, want at most 1", truncs)
	}
	if got := Generate(1, 0, 5); len(got.Ops) != 0 {
		t.Fatal("Generate on an empty stream should produce no ops")
	}
}

// TestReaderPlanFromString drives the reader with a parsed plan,
// proving a serialized chaos case replays identically.
func TestReaderPlanFromString(t *testing.T) {
	plan, err := Parse("flip@10.2;zero@20+5;err@30;trunc@50")
	if err != nil {
		t.Fatal(err)
	}
	src := payload(100)
	got, transients := readAllFlaky(t, NewReader(bytes.NewReader(src), plan))
	want := payload(50)
	want[10] ^= 1 << 2
	clear(want[20:25])
	if transients != 1 || !bytes.Equal(got, want) {
		t.Fatalf("replayed plan mismatch: %d transients, %d bytes", transients, len(got))
	}
}

// TestReaderSlowDeterministic pins the Slow contract: every read that
// transfers a byte at or past the op's offset sleeps a per-read delay
// that replays identically run over run, and the payload is untouched.
func TestReaderSlowDeterministic(t *testing.T) {
	src := payload(64)
	run := func() ([]byte, time.Duration) {
		start := time.Now()
		got, _ := readAllFlaky(t, NewReader(bytes.NewReader(src), Plan{
			Ops: []Op{{Kind: Slow, Off: 0, Len: 2000}}, // ~2ms mean per read
		}))
		return got, time.Since(start)
	}
	got, dur := run()
	if !bytes.Equal(got, src) {
		t.Fatal("slow reader corrupted the stream")
	}
	// 64 bytes in 13-byte reads = 5 delayed reads of >= 1ms each.
	if dur < 5*time.Millisecond {
		t.Fatalf("slow plan added only %v of latency, want >= 5ms", dur)
	}
	// The delay schedule itself is a pure function of the op.
	for j := int64(0); j < 16; j++ {
		if slowDelay(Op{Kind: Slow, Off: 0, Len: 2000}, j) != slowDelay(Op{Kind: Slow, Off: 0, Len: 2000}, j) {
			t.Fatal("slowDelay not deterministic")
		}
		d := slowDelay(Op{Kind: Slow, Off: 0, Len: 2000}, j)
		if d < time.Millisecond || d >= 3*time.Millisecond {
			t.Fatalf("draw %d = %v outside [Len/2, 3*Len/2)", j, d)
		}
	}
}

// TestReaderSlowRespectsOffset: reads entirely before the offset pay
// no latency.
func TestReaderSlowRespectsOffset(t *testing.T) {
	src := payload(100)
	r := NewReader(bytes.NewReader(src), Plan{
		Ops: []Op{{Kind: Slow, Off: 90, Len: 50000}},
	})
	start := time.Now()
	buf := make([]byte, 45)
	for pos := 0; pos < 90; pos += 45 {
		if _, err := io.ReadFull(r, buf); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("reads before the slow offset took %v", d)
	}
}

// TestReaderSlowSpanBounded: a Slow op with a Span stops straggling
// once the stream position passes Off+Span — the device recovered.
func TestReaderSlowSpanBounded(t *testing.T) {
	src := payload(200)
	// Slow only over bytes [0, 50): heavy 20ms-mean delays, then clean.
	r := NewReader(bytes.NewReader(src), Plan{
		Ops: []Op{{Kind: Slow, Off: 0, Len: 20000, Span: 50}},
	})
	buf := make([]byte, 50)
	start := time.Now()
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("in-span read added only %v of latency, want >= 10ms", d)
	}
	start = time.Now()
	for pos := 50; pos < 200; pos += 50 {
		if _, err := io.ReadFull(r, buf); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("post-span reads took %v, want fast", d)
	}
}

// TestReaderSlowCancelled: a cancelled context interrupts an injected
// sleep instead of serving it out.
func TestReaderSlowCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := NewReader(bytes.NewReader(payload(64)), Plan{
		Ops: []Op{{Kind: Slow, Off: 0, Len: 10_000_000}}, // ~10s mean
	}).WithContext(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := r.Read(make([]byte, 16))
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled slow read returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled slow read did not return")
	}
}
