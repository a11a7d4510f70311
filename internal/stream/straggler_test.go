package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"dialga/internal/fault"
	"dialga/internal/vclock"
)

// The recovering-straggler tests run on a pumped fake clock
// (vclock.Fake.Pump) handed to the decoder through Options.Clock: the
// straggler's delays, the hedge deadlines, the writer's pace and the
// breaker's cooldown all pass in virtual time, so a decode that spans
// the production 250 ms cooldown costs milliseconds, and what trips when
// follows from the numbers below rather than from the scheduler.
const (
	// lagDelay is how long a laggard's slow Read takes, stripePace how
	// long the writer holds each stripe. The pace is several delays, so a
	// shard that was hedged around has caught up — even across the
	// half-dozen stripes the pipeline gathers before the first is written
	// — by the next stripe, and its next slow read is the next deadline
	// miss: one a stripe, in a row.
	lagDelay   = 8 * time.Millisecond
	stripePace = 60 * time.Millisecond
	// lateRun is the run of deadline misses that trips a shard's breaker.
	lateRun = 5
)

// laggard delays every Read by lagDelay while the clock is before
// slowUntil, then serves at full speed — a straggler that recovers.
type laggard struct {
	r         io.Reader
	clock     *vclock.Fake
	slowUntil time.Time
}

func (l *laggard) Read(p []byte) (int, error) {
	if l.clock.Now().Before(l.slowUntil) {
		<-l.clock.After(lagDelay)
	}
	return l.r.Read(p)
}

// pacedWriter waits on the clock before every Write — the decoder makes
// k a stripe, so stripePace/k each — so the producer keeps gathering
// stripes for a known minimum of virtual time (the decode has to outlive
// the straggler's slow phase and cooldown).
type pacedWriter struct {
	w     io.Writer
	clock *vclock.Fake
	k     int
}

func (p *pacedWriter) Write(b []byte) (int, error) {
	<-p.clock.After(stripePace / time.Duration(p.k))
	return p.w.Write(b)
}

// stragglerOpts is the common geometry of the straggler matrix: small
// stripes so reconstruction is cheap relative to the injected delays,
// hedging with a 1ms floor.
func stragglerOpts(t *testing.T, k, m, shardSize int) Options {
	t.Helper()
	return Options{
		Codec:      mustRS(t, k, m),
		StripeSize: k * shardSize,
		Workers:    2,
		HedgeAfter: time.Millisecond,
	}
}

// TestChaosStragglerHedgedDecode is the acceptance scenario: one shard
// at ~10x the fleet's latency. Hedged, the decode reconstructs around
// the straggler and finishes in a fraction of the stalled time;
// unhedged, the same shard set demonstrably stalls (every stripe pays
// the straggler's delay, which has a deterministic seeded lower
// bound). Output must be byte-exact both ways.
func TestChaosStragglerHedgedDecode(t *testing.T) {
	const (
		k, m, shardSize = 4, 2, 256
		stripes         = 6
		slowMicros      = 20_000 // fault.Slow mean; per-read floor is half that
	)
	// Six stripes hold too few misses to trip the breaker: this is
	// hedging alone.
	opts := stragglerOpts(t, k, m, shardSize)
	payload := randBytes(t, stripes*k*shardSize, 7)
	shards := encodeAll(t, opts, payload)

	decode := func(hedge bool) (time.Duration, Stats, []byte) {
		o := opts
		if !hedge {
			o.HedgeAfter = 0
		}
		dec, err := NewDecoder(o)
		if err != nil {
			t.Fatal(err)
		}
		readers := make([]io.Reader, k+m)
		for i := range readers {
			readers[i] = bytes.NewReader(shards[i])
		}
		// Shard 1 (a data shard) pays a seeded recurring delay on every
		// read: mean slowMicros, deterministic floor slowMicros/2.
		readers[1] = fault.NewReader(bytes.NewReader(shards[1]), fault.Plan{
			Ops: []fault.Op{{Kind: fault.Slow, Off: 0, Len: slowMicros}},
		})
		var out bytes.Buffer
		start := time.Now()
		if err := dec.Decode(context.Background(), readers, &out, int64(len(payload))); err != nil {
			t.Fatalf("decode (hedge=%v): %v", hedge, err)
		}
		return time.Since(start), dec.Stats(), out.Bytes()
	}

	hedgedDur, st, got := decode(true)
	if !bytes.Equal(got, payload) {
		t.Fatal("hedged decode produced wrong bytes")
	}
	if st.HedgedReads == 0 {
		t.Fatal("HedgedReads = 0: the straggler never triggered a hedge")
	}
	if st.HedgeWins == 0 {
		t.Fatal("HedgeWins = 0: reconstruction never beat the straggler")
	}
	if st.ShardFailures != 0 {
		t.Fatalf("ShardFailures = %d: a slow shard was retired as dead", st.ShardFailures)
	}
	if st.Stripes != stripes {
		t.Fatalf("Stripes = %d, want %d", st.Stripes, stripes)
	}

	unhedgedDur, st0, got0 := decode(false)
	if !bytes.Equal(got0, payload) {
		t.Fatal("unhedged decode produced wrong bytes")
	}
	if st0.HedgedReads != 0 || st0.HedgeWins != 0 {
		t.Fatalf("unhedged decode hedged anyway: HedgedReads=%d HedgeWins=%d", st0.HedgedReads, st0.HedgeWins)
	}
	// The unhedged pipeline pays the straggler on every stripe; the
	// injected sleeps give it a deterministic floor no scheduler can
	// shrink.
	stallFloor := time.Duration(stripes) * (slowMicros / 2) * time.Microsecond
	if unhedgedDur < stallFloor {
		t.Fatalf("unhedged decode took %v, below the injected stall floor %v", unhedgedDur, stallFloor)
	}
	if hedgedDur*2 >= unhedgedDur {
		t.Fatalf("hedging saved too little: hedged %v vs unhedged %v", hedgedDur, unhedgedDur)
	}
}

// TestChaosStragglerWithCorruption combines a straggler with checksum
// corruption on another shard, staying within the parity budget
// (slow + corrupt = 2 erasures = m). The corruption counters must
// match the plan exactly and the output must be byte-exact.
func TestChaosStragglerWithCorruption(t *testing.T) {
	const (
		k, m, shardSize = 4, 2, 128
		stripes         = 5
	)
	opts := stragglerOpts(t, k, m, shardSize)
	payload := randBytes(t, stripes*k*shardSize, 11)
	shards := encodeAll(t, opts, payload)
	blockSize := shardSize + crcSize

	dec, err := NewDecoder(opts)
	if err != nil {
		t.Fatal(err)
	}
	readers := make([]io.Reader, k+m)
	for i := range readers {
		readers[i] = bytes.NewReader(shards[i])
	}
	// Shard 5 (parity) straggles on every read; shard 2 serves corrupt
	// blocks on stripes 1 and 3.
	readers[5] = fault.NewReader(bytes.NewReader(shards[5]), fault.Plan{
		Ops: []fault.Op{{Kind: fault.Slow, Off: 0, Len: 10_000}},
	})
	readers[2] = fault.NewReader(bytes.NewReader(shards[2]), fault.Plan{
		Ops: []fault.Op{
			{Kind: fault.BitFlip, Off: int64(1*blockSize) + 17, Bit: 3},
			{Kind: fault.BitFlip, Off: int64(3*blockSize) + 101, Bit: 6},
		},
	})
	var out bytes.Buffer
	if err := dec.Decode(context.Background(), readers, &out, int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("decode with straggler + corruption produced wrong bytes")
	}
	st := dec.Stats()
	if st.ShardsCorrupted != 2 {
		t.Fatalf("ShardsCorrupted = %d, plan flipped 2 blocks", st.ShardsCorrupted)
	}
	if st.StripesHealed != 2 {
		t.Fatalf("StripesHealed = %d, plan poisoned 2 stripes", st.StripesHealed)
	}
	if st.ShardFailures != 0 {
		t.Fatalf("ShardFailures = %d, want 0", st.ShardFailures)
	}
	if st.Stripes != stripes {
		t.Fatalf("Stripes = %d, want %d", st.Stripes, stripes)
	}
}

// TestChaosStragglerRecovers: a shard that is slow for a few reads —
// fewer than the run that trips a breaker — and then healthy must be
// hedged around while slow, re-admitted once fast, and never counted as
// failed or breaker-tripped.
func TestChaosStragglerRecovers(t *testing.T) {
	const (
		k, m, shardSize = 3, 2, 128
		stripes         = 30
	)
	fc := vclock.NewFake()
	defer fc.Pump()()
	opts := stragglerOpts(t, k, m, shardSize)
	opts.Clock = fc
	payload := randBytes(t, stripes*k*shardSize, 13)
	shards := encodeAll(t, opts, payload)

	dec, err := NewDecoder(opts)
	if err != nil {
		t.Fatal(err)
	}
	readers := make([]io.Reader, k+m)
	for i := range readers {
		readers[i] = bytes.NewReader(shards[i])
	}
	// At one miss per stripe the slow phase is over before a run is.
	readers[0] = &laggard{r: bytes.NewReader(shards[0]), clock: fc, slowUntil: fc.Now().Add((lateRun-2)*stripePace - stripePace/2)}
	var out bytes.Buffer
	// Pace delivery so the decode outlives the straggler's slow phase
	// and its recovery is actually exercised.
	w := &pacedWriter{w: &out, clock: fc, k: k}
	if err := dec.Decode(context.Background(), readers, w, int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("decode with recovering straggler produced wrong bytes")
	}
	st := dec.Stats()
	if st.HedgedReads == 0 {
		t.Fatal("HedgedReads = 0: the slow phase never triggered a hedge")
	}
	if st.BreakerTrips != 0 {
		t.Fatalf("BreakerTrips = %d: a run shorter than %d tripped the breaker", st.BreakerTrips, lateRun)
	}
	if st.ShardFailures != 0 {
		t.Fatalf("ShardFailures = %d, want 0", st.ShardFailures)
	}
	if st.Stripes != stripes {
		t.Fatalf("Stripes = %d, want %d", st.Stripes, stripes)
	}
}

// TestChaosStragglerBreakerProbe: a shard slow for long enough to miss
// a full run of deadlines trips the breaker once; it recovers inside the
// cooldown, so the half-open probe finds it healthy, closes the breaker,
// and the decode finishes with the shard back in rotation. Exactly one
// trip, no shard failures, byte-exact output.
func TestChaosStragglerBreakerProbe(t *testing.T) {
	const (
		k, m, shardSize = 3, 2, 128
		stripes         = 40
	)
	fc := vclock.NewFake()
	defer fc.Pump()()
	opts := stragglerOpts(t, k, m, shardSize)
	opts.Clock = fc
	payload := randBytes(t, stripes*k*shardSize, 17)
	shards := encodeAll(t, opts, payload)

	dec, err := NewDecoder(opts)
	if err != nil {
		t.Fatal(err)
	}
	readers := make([]io.Reader, k+m)
	for i := range readers {
		readers[i] = bytes.NewReader(shards[i])
	}
	// Slow for the run (its last miss is lateRun-1 stripes in) and two
	// stripes more: into the 250 ms cooldown, well short of its end.
	readers[4] = &laggard{r: bytes.NewReader(shards[4]), clock: fc, slowUntil: fc.Now().Add((lateRun + 1) * stripePace)}
	var out bytes.Buffer
	w := &pacedWriter{w: &out, clock: fc, k: k}
	if err := dec.Decode(context.Background(), readers, w, int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("decode across a breaker trip produced wrong bytes")
	}
	st := dec.Stats()
	if st.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips = %d, want exactly 1 (a run of misses, then a successful probe)", st.BreakerTrips)
	}
	if st.ShardFailures != 0 {
		t.Fatalf("ShardFailures = %d, want 0", st.ShardFailures)
	}
	if st.Stripes != stripes {
		t.Fatalf("Stripes = %d, want %d", st.Stripes, stripes)
	}
}

// TestChaosStragglerNoGoroutineLeaks drives the decoder through the
// three abortive paths — a cancelled decode, a failed (beyond-parity)
// decode, and a breaker-tripped straggler decode — and requires the
// goroutine count to return to baseline: shard readers, workers, and
// the producer must all drain.
func TestChaosStragglerNoGoroutineLeaks(t *testing.T) {
	const (
		k, m, shardSize = 3, 2, 128
		stripes         = 20
	)
	base := runtime.NumGoroutine()
	fc := vclock.NewFake()
	stopPump := fc.Pump()
	opts := stragglerOpts(t, k, m, shardSize)
	opts.Clock = fc
	payload := randBytes(t, stripes*k*shardSize, 19)
	shards := encodeAll(t, opts, payload)
	blockSize := shardSize + crcSize
	healthy := func() []io.Reader {
		readers := make([]io.Reader, k+m)
		for i := range readers {
			readers[i] = bytes.NewReader(shards[i])
		}
		return readers
	}

	// Cancelled mid-decode, with a straggler that never recovers still
	// mid-read.
	func() {
		dec, err := NewDecoder(opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		readers := healthy()
		readers[1] = &laggard{r: bytes.NewReader(shards[1]), clock: fc, slowUntil: fc.Now().Add(time.Hour)}
		var out bytes.Buffer
		go func() {
			<-fc.After(3 * stripePace)
			cancel()
		}()
		err = dec.Decode(ctx, readers, &pacedWriter{w: &out, clock: fc, k: k}, int64(len(payload)))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled decode returned %v, want context.Canceled", err)
		}
	}()

	// Failed decode: one stripe corrupted beyond the parity budget.
	func() {
		dec, err := NewDecoder(opts)
		if err != nil {
			t.Fatal(err)
		}
		readers := make([]io.Reader, k+m)
		for i := range readers {
			plan := fault.Plan{Ops: []fault.Op{
				{Kind: fault.BitFlip, Off: int64(2*blockSize) + int64(i+1), Bit: 1},
			}}
			readers[i] = fault.NewReader(bytes.NewReader(shards[i]), plan)
		}
		var out bytes.Buffer
		err = dec.Decode(context.Background(), readers, &out, int64(len(payload)))
		if !errors.Is(err, ErrTooManyCorrupt) {
			t.Fatalf("poisoned decode returned %v, want ErrTooManyCorrupt", err)
		}
	}()

	// Breaker-tripped straggler decode that runs to completion.
	func() {
		dec, err := NewDecoder(opts)
		if err != nil {
			t.Fatal(err)
		}
		readers := healthy()
		readers[4] = &laggard{r: bytes.NewReader(shards[4]), clock: fc, slowUntil: fc.Now().Add((lateRun + 1) * stripePace)}
		var out bytes.Buffer
		err = dec.Decode(context.Background(), readers, &pacedWriter{w: &out, clock: fc, k: k}, int64(len(payload)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), payload) {
			t.Fatal("decode produced wrong bytes")
		}
		if dec.Stats().BreakerTrips == 0 {
			t.Fatal("BreakerTrips = 0: the straggler decode never tripped a breaker")
		}
	}()

	stopPump()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d at baseline, %d after decodes", base, runtime.NumGoroutine())
}

// TestHedgeNeverCostsAReadableStripe: two shards serve a corrupt block
// in every stripe — the RS(4,2) limit — and a third is a straggler the
// hedge goes ahead without, stripe after stripe, until its breaker
// opens. The five blocks in hand then hold three clean ones, one short
// of k, and the fourth is the one speculation chose not to wait for:
// the decoder must wait for it after all (hedged past, or behind the
// open breaker) and return the object, not ErrTooManyCorrupt.
func TestHedgeNeverCostsAReadableStripe(t *testing.T) {
	const (
		k, m, shardSize = 4, 2, 128
		stripes         = 3 * lateRun // enough misses in a row to trip the breaker on the way
	)
	fc := vclock.NewFake()
	defer fc.Pump()()
	opts := stragglerOpts(t, k, m, shardSize)
	opts.Clock = fc
	payload := randBytes(t, stripes*k*shardSize, 23)
	shards := encodeAll(t, opts, payload)
	blockSize := shardSize + crcSize

	dec, err := NewDecoder(opts)
	if err != nil {
		t.Fatal(err)
	}
	readers := make([]io.Reader, k+m)
	for i := range readers {
		readers[i] = bytes.NewReader(shards[i])
	}
	for _, i := range []int{0, 4} {
		var plan fault.Plan
		for s := 0; s < stripes; s++ {
			plan.Ops = append(plan.Ops, fault.Op{Kind: fault.BitFlip, Off: int64(s*blockSize + 7*i + s), Bit: 2})
		}
		readers[i] = fault.NewReader(bytes.NewReader(shards[i]), plan)
	}
	readers[2] = &laggard{r: bytes.NewReader(shards[2]), clock: fc, slowUntil: fc.Now().Add(time.Hour)}

	var out bytes.Buffer
	if err := dec.Decode(context.Background(), readers, &out, int64(len(payload))); err != nil {
		t.Fatalf("decode with two corrupt shards and a straggler: %v", err)
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("decode produced wrong bytes")
	}
	st := dec.Stats()
	if st.HedgedReads == 0 {
		t.Fatal("HedgedReads = 0: the straggler was never hedged past, the test proves nothing")
	}
	if st.BreakerTrips == 0 {
		t.Fatal("BreakerTrips = 0: no stripe met the straggler behind an open breaker")
	}
	if st.ShardsCorrupted != 2*stripes {
		t.Fatalf("ShardsCorrupted = %d, the plan flipped %d blocks", st.ShardsCorrupted, 2*stripes)
	}
	if st.ShardFailures != 0 {
		t.Fatalf("ShardFailures = %d, want 0", st.ShardFailures)
	}
	if st.Stripes != stripes {
		t.Fatalf("Stripes = %d, want %d", st.Stripes, stripes)
	}
}

// turning delays every block read on the fake clock: by base before
// block turn, by 10*base from it on when slow, by base throughout when
// not. pos is the block the reader is positioned at.
type turning struct {
	r         io.Reader
	clock     *vclock.Fake
	slow      bool
	pos, turn int64
	blockSize int
	done      int // bytes of block pos read so far
}

func (t *turning) Read(p []byte) (int, error) {
	if t.done == 0 {
		d := time.Millisecond
		if t.slow && t.pos >= t.turn {
			d *= 10
		}
		<-t.clock.After(d)
	}
	p = p[:min(len(p), t.blockSize-t.done)]
	n, err := t.r.Read(p)
	if t.done += n; t.done == t.blockSize {
		t.pos, t.done = t.pos+1, 0
	}
	return n, err
}

// TestLatenessIsJudgedByPeers pins the relative rule within a read, on a
// pumped fake clock: every block read takes 1 ms until stripe turn, and
// from there on either every shard or one of them takes 10 ms. A fleet
// that slows together is no evidence against any of its shards, so the
// read brings no spare in as late; one shard that slows is behind the
// shards beside it from its first slow block, so that stripe brings a
// late spare in, and no stripe before it does.
func TestLatenessIsJudgedByPeers(t *testing.T) {
	const (
		k, m, shardSize = 4, 2, 128
		stripes, turn   = 12, 6
		blockSize       = shardSize + crcSize
	)
	for _, tc := range []struct {
		name string
		slow func(i int) bool
		want string // the spares asked for, in order
	}{
		{"the fleet slows together", func(int) bool { return true }, "[]"},
		{"one shard slows", func(i int) bool { return i == 1 }, "[6 late]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fc := vclock.NewFake()
			defer fc.Pump()()
			opts := Options{Codec: mustRS(t, k, m), StripeSize: k * shardSize, Workers: 2, HedgeAfter: 2 * time.Millisecond, Clock: fc}
			payload := randBytes(t, stripes*k*shardSize, 29)
			size := int64(len(payload))
			shards := encodeAll(t, opts, payload)
			open := func(i int, block int64) io.Reader {
				return &turning{r: bytes.NewReader(shards[i][block*blockSize:]), clock: fc,
					slow: tc.slow(i), pos: block, turn: turn, blockSize: blockSize}
			}
			readers := make([]io.Reader, k+m)
			for i := 0; i < k; i++ {
				readers[i] = open(i, 0)
			}
			next := k
			var calls []string
			spare := func(_ context.Context, block int64, reason string) (int, io.Reader, error) {
				calls = append(calls, fmt.Sprintf("%d %s", block, reason))
				if next == k+m {
					return 0, nil, errors.New("no spare left")
				}
				next++
				return next - 1, open(next-1, block), nil
			}
			dec, err := NewDecoder(opts)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := dec.DecodeRange(context.Background(), readers, &out, size, 0, size, spare); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), payload) {
				t.Fatal("decoded bytes differ from the payload")
			}
			if got := fmt.Sprint(calls); got != tc.want {
				t.Fatalf("spares asked for %s (%d late), want %s", got, strings.Count(got, "late"), tc.want)
			}
		})
	}
}
