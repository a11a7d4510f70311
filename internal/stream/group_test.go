package stream

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dialga/internal/fault"
	"dialga/internal/obs"
	"dialga/internal/vclock"
)

const testBlock = 16

// mkShards builds n shard streams of stripes blocks each, every byte
// tagged with (shard, stripe) so misdelivery is detectable.
func mkShards(n, stripes int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		b := make([]byte, stripes*testBlock)
		for s := 0; s < stripes; s++ {
			for j := 0; j < testBlock; j++ {
				b[s*testBlock+j] = byte(i*31 + s*7 + j)
			}
		}
		out[i] = b
	}
	return out
}

// newTestGroup starts a group over readers with g's settings, in
// testBlock-byte blocks unless g names a block size, and closes it when
// the test ends.
func newTestGroup(t *testing.T, readers []io.Reader, g geom) *group {
	t.Helper()
	if g.blockSize == 0 {
		g.blockSize = testBlock
	}
	g.shardio = newShardioSeries(g.metrics)
	grp := newGroup(readers, g)
	t.Cleanup(grp.close)
	return grp
}

// slowReader delays every Read by a fixed duration on a fake clock,
// optionally only for the first slowReads calls (a straggler that
// recovers).
type slowReader struct {
	r         io.Reader
	delay     time.Duration
	slowReads int // <0: always slow
	clock     vclock.Clock
	calls     int
}

func (s *slowReader) Read(p []byte) (int, error) {
	s.calls++
	if s.slowReads < 0 || s.calls <= s.slowReads {
		<-s.clock.After(s.delay)
	}
	return s.r.Read(p)
}

// The group's options are fields of the stream geometry: a block is
// never empty, a negative hedge floor is refused and a positive one
// reaches the group.
func TestGroupOptionsValidation(t *testing.T) {
	code := mustRS(t, 4, 2)
	g, err := (Options{Codec: code, StripeSize: 1}).geometry()
	if err != nil {
		t.Fatal(err)
	}
	if g.blockSize <= crcSize {
		t.Fatalf("a 1-byte stripe gives %d-byte blocks, want a payload past the %d-byte trailer", g.blockSize, crcSize)
	}
	if _, err := (Options{Codec: code, HedgeAfter: -time.Second}).geometry(); err == nil {
		t.Fatal("negative HedgeAfter accepted")
	}
	g, err = (Options{Codec: code, HedgeAfter: time.Millisecond}).geometry()
	if err != nil {
		t.Fatalf("hedged options refused: %v", err)
	}
	if g.hedgeAfter != time.Millisecond {
		t.Fatalf("hedgeAfter = %v, want 1ms", g.hedgeAfter)
	}
}

func TestGroupDeliversInOrder(t *testing.T) {
	const n, stripes = 4, 5
	shards := mkShards(n, stripes)
	readers := make([]io.Reader, n)
	for i := range readers {
		readers[i] = bytes.NewReader(shards[i])
	}
	g := newTestGroup(t, readers, geom{})
	for s := 0; s < stripes; s++ {
		st, err := g.next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if st.States[i] != stateOK {
				t.Fatalf("stripe %d shard %d state %v", s, i, st.States[i])
			}
			want := shards[i][s*testBlock : (s+1)*testBlock]
			if !bytes.Equal(st.Blocks[i], want) {
				t.Fatalf("stripe %d shard %d block mismatch", s, i)
			}
		}
		st.release()
	}
	st, err := g.next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if st.States[i] != stateEOF {
			t.Fatalf("post-end shard %d state %v, want eof", i, st.States[i])
		}
	}
	st.release()
}

func TestGroupMissingAndDead(t *testing.T) {
	const n, stripes = 4, 3
	shards := mkShards(n, stripes)
	readers := make([]io.Reader, n)
	readers[0] = nil // missing
	readers[1] = bytes.NewReader(shards[1])
	readers[2] = bytes.NewReader(shards[2][:testBlock+3]) // dies mid-block on stripe 1
	readers[3] = bytes.NewReader(shards[3])
	g := newTestGroup(t, readers, geom{})
	st, err := g.next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.States[0] != stateMissing || st.States[2] != stateOK {
		t.Fatalf("stripe 0 states %v", st.States)
	}
	st.release()
	st, err = g.next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.States[2] != stateDead || st.Errs[2] == nil {
		t.Fatalf("ragged shard state %v err %v, want dead", st.States[2], st.Errs[2])
	}
	st.release()
	// Death is sticky and keeps reporting.
	st, err = g.next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.States[2] != stateDead {
		t.Fatalf("stripe 2 shard 2 state %v, want sticky dead", st.States[2])
	}
	st.release()
}

// breaksOnce serves its stream, except that the Read reaching offset
// at fails with a transient injected fault, the way a broken connection
// would; it counts the Reads that come after.
type breaksOnce struct {
	r     io.Reader
	at    int
	pos   int
	broke bool
	after int
}

func (b *breaksOnce) Read(p []byte) (int, error) {
	if b.broke {
		b.after++
		return b.r.Read(p)
	}
	if b.pos == b.at {
		b.broke = true
		return 0, &fault.Err{Off: int64(b.at)}
	}
	n, err := b.r.Read(p[:min(len(p), b.at-b.pos)])
	b.pos += n
	return n, err
}

// timerCount is a clock that counts the timers armed on it.
type timerCount struct {
	*vclock.Fake
	armed atomic.Int64
}

func (c *timerCount) NewTimer(d time.Duration) vclock.Timer {
	c.armed.Add(1)
	return c.Fake.NewTimer(d)
}

func (c *timerCount) After(d time.Duration) <-chan time.Time {
	c.armed.Add(1)
	return c.Fake.After(d)
}

// TestGroupTransientErrorKillsShard: a read error mid-block is terminal
// even when it calls itself Transient. The shard is dead at that stripe
// on the first error, nothing sleeps, and its reader is never read
// again.
func TestGroupTransientErrorKillsShard(t *testing.T) {
	const n, stripes = 3, 3
	shards := mkShards(n, stripes)
	broken := &breaksOnce{r: bytes.NewReader(shards[1]), at: testBlock + 5}
	readers := []io.Reader{bytes.NewReader(shards[0]), broken, bytes.NewReader(shards[2])}
	clock := &timerCount{Fake: vclock.NewFake()}
	g := newTestGroup(t, readers, geom{clock: clock})
	// The fake clock never moves: a gather that waits on it never ends.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for s := 0; s < stripes; s++ {
		st, err := g.next(ctx)
		if err != nil {
			t.Fatalf("stripe %d: %v", s, err)
		}
		want := stateOK
		if s >= 1 {
			want = stateDead
		}
		if st.States[1] != want {
			t.Fatalf("stripe %d: shard 1 state %v, want %v", s, st.States[1], want)
		}
		if want == stateDead && !errors.Is(st.Errs[1], fault.ErrInjected) {
			t.Fatalf("stripe %d: dead err %v does not expose the fault", s, st.Errs[1])
		}
		if st.States[0] != stateOK || st.States[2] != stateOK {
			t.Fatalf("stripe %d: healthy shards %v", s, st.States)
		}
		st.release()
	}
	g.close()
	g.wait()
	if broken.after != 0 {
		t.Fatalf("broken shard read %d more times after its error", broken.after)
	}
	if got := clock.armed.Load(); got != 0 {
		t.Fatalf("%d timers armed: something waited on the broken shard", got)
	}
}

// rejecting serves a shard stream and rejects block bad: the Read that
// would complete it returns errBlockChecksum instead, the block
// consumed, as a verifiedReader does.
type rejecting struct {
	r   io.Reader
	bad int64
	pos int64
}

func (c *rejecting) Read(p []byte) (int, error) {
	end := (c.pos/testBlock + 1) * testBlock
	if int64(len(p)) > end-c.pos {
		p = p[:end-c.pos]
	}
	n, err := c.r.Read(p)
	if c.pos += int64(n); c.pos == end && end/testBlock-1 == c.bad {
		return 0, errBlockChecksum
	}
	return n, err
}

// TestGroupCorruptBlockIsAnErasure: a block its reader rejects is an
// erasure for its stripe — stateCorrupt, no block — and the shard
// serves the stripes after it, also when the rejected block is one a
// spare attached behind it skip-reads on its way in.
func TestGroupCorruptBlockIsAnErasure(t *testing.T) {
	const n, stripes = 3, 4
	ctx := context.Background()
	shards := mkShards(n, stripes)
	readers := []io.Reader{
		&rejecting{r: bytes.NewReader(shards[0]), bad: 0},
		&rejecting{r: bytes.NewReader(shards[1]), bad: 1},
		nil,
	}
	g := newTestGroup(t, readers, geom{})
	for s := 0; s < stripes; s++ {
		st, err := g.next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if s == 2 {
			if err := g.attach(2, &rejecting{r: bytes.NewReader(shards[2]), bad: 1}, 0); err != nil {
				t.Fatal(err)
			}
			if err := g.fill(ctx, st); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			switch {
			case i == 2 && s < 2: // not attached yet
			case i == s && s < 2: // shards 0 and 1 reject their own stripe's block
				if st.States[i] != stateCorrupt || st.Blocks[i] != nil {
					t.Fatalf("stripe %d: rejected shard %d is %v", s, i, st.States[i])
				}
			case st.States[i] != stateOK || !bytes.Equal(st.Blocks[i], shards[i][s*testBlock:(s+1)*testBlock]):
				t.Fatalf("stripe %d: shard %d is %v or misaligned", s, i, st.States[i])
			}
		}
		st.release()
	}
}

// TestGroupHedgesStraggler: with hedging on, a straggler is demoted to
// slow once its deadline passes and the stripe proceeds without it. On
// a pumped fake clock: the straggler's read takes 40 ms, its peers'
// none, so the deadline is the 2 ms floor.
func TestGroupHedgesStraggler(t *testing.T) {
	const n, stripes = 4, 3
	fc := vclock.NewFake()
	defer fc.Pump()()
	shards := mkShards(n, stripes)
	readers := make([]io.Reader, n)
	for i := range readers {
		readers[i] = bytes.NewReader(shards[i])
	}
	readers[2] = &slowReader{r: bytes.NewReader(shards[2]), delay: 40 * time.Millisecond, slowReads: -1, clock: fc}
	// One miss in three stripes: the breaker stays out of it.
	g := newTestGroup(t, readers, geom{hedgeAfter: 2 * time.Millisecond, clock: fc})

	start := fc.Now()
	st, err := g.next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d := fc.Now().Sub(start); d > 30*time.Millisecond {
		t.Fatalf("hedged gather took %v, stalled on the straggler", d)
	}
	if !st.Hedged || st.States[2] != stateSlow {
		t.Fatalf("Hedged=%v States[2]=%v, want hedged slow", st.Hedged, st.States[2])
	}
	for _, i := range []int{0, 1, 3} {
		if st.States[i] != stateOK {
			t.Fatalf("healthy shard %d state %v", i, st.States[i])
		}
	}
	st.release()
}

// hangsAfter serves the first block of its stream, then blocks every
// further Read until release is closed: a source that hangs.
type hangsAfter struct {
	r       io.Reader
	pos     int
	release chan struct{}
}

func (h *hangsAfter) Read(p []byte) (int, error) {
	if h.pos >= testBlock {
		<-h.release
	}
	n, err := h.r.Read(p)
	h.pos += n
	return n, err
}

// TestGroupHedgesAHungStripe: a stripe whose every read hangs has no
// block to judge the others by, so only the maxDeadline cap ends its
// wait — not before, and not never. On a fake clock only the test moves:
// stripe 0 gathers with the clock standing still, and stripe 1's reads
// all hang.
func TestGroupHedgesAHungStripe(t *testing.T) {
	const n, stripes = 3, 2
	shards := mkShards(n, stripes)
	release := make(chan struct{})
	readers := make([]io.Reader, n)
	for i := range readers {
		readers[i] = &hangsAfter{r: bytes.NewReader(shards[i]), release: release}
	}
	clock := &armSignal{Fake: vclock.NewFake(), armed: make(chan time.Duration, 16)}
	g := newTestGroup(t, readers, geom{hedgeAfter: 2 * time.Millisecond, clock: clock})
	t.Cleanup(func() { close(release) }) // before the group's close

	st, err := g.next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Hedged {
		t.Fatalf("stripe 0 hedged with every block in: %v", st.States)
	}
	st.release()
	clock.drain()
	start := clock.Now()
	got := make(chan *shardStripe, 1)
	go func() {
		st, err := g.next(context.Background())
		if err != nil {
			t.Error(err)
		}
		got <- st
	}()
	if d := <-clock.armed; d != maxDeadline {
		t.Fatalf("a stripe with nothing in hand armed %v, want the %v cap", d, maxDeadline)
	}
	clock.Advance(maxDeadline - time.Nanosecond)
	select {
	case st := <-got:
		t.Fatalf("stripe 1 went ahead before the cap, %v in: %v", clock.Now().Sub(start), st.States)
	default:
	}
	clock.Advance(time.Nanosecond)
	st = <-got
	if st == nil {
		return
	}
	defer st.release()
	if !st.Hedged {
		t.Fatal("stripe 1 not hedged at the cap")
	}
	for i, s := range st.States {
		if s != stateSlow || st.Blocks[i] != nil {
			t.Fatalf("hung shard %d is %v, want slow and empty", i, s)
		}
	}
}

// TestGroupRecyclesLateBlock: a stripe that hedged past a straggler
// never receives its block. Held, neither released nor handed on,
// while the block lands during the next gather, the stripe keeps the
// shard slow and empty; the block is counted as dropped and recycled,
// and the shard rejoins the stripe being gathered. On a pumped fake
// clock: healthy reads take 20 ms, so stripe 0 is judged when its two
// healthy blocks land and its deadline passes at 80 ms, and the
// straggler's one slow read lands at 90 ms, inside stripe 1's gather.
// Its rejoined read is instant, and one fast block does not judge the
// stripe: the healthy shards' 20 ms blocks are not hedged.
func TestGroupRecyclesLateBlock(t *testing.T) {
	const n, stripes = 3, 2
	fc := vclock.NewFake()
	defer fc.Pump()()
	shards := mkShards(n, stripes)
	readers := make([]io.Reader, n)
	for i := range readers {
		readers[i] = &slowReader{r: bytes.NewReader(shards[i]), delay: 20 * time.Millisecond, slowReads: -1, clock: fc}
	}
	readers[0] = &slowReader{r: bytes.NewReader(shards[0]), delay: 90 * time.Millisecond, slowReads: 1, clock: fc}
	reg := obs.NewRegistry()
	g := newTestGroup(t, readers, geom{hedgeAfter: 2 * time.Millisecond, clock: fc, metrics: reg})
	dropped := reg.Counter("shardio_late_blocks_dropped_total", "")

	st, err := g.next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Hedged || st.States[0] != stateSlow {
		t.Fatalf("stripe 0: Hedged=%v States[0]=%v, want hedged past shard 0", st.Hedged, st.States[0])
	}
	st2, err := g.next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := dropped.Value(); got != 1 {
		t.Fatalf("shardio_late_blocks_dropped_total = %d after the straggler landed, want 1", got)
	}
	if st.States[0] != stateSlow || st.Blocks[0] != nil {
		t.Fatalf("stripe 0 took the late block: state %v", st.States[0])
	}
	for i := range readers {
		if st2.States[i] != stateOK || !bytes.Equal(st2.Blocks[i], shards[i][testBlock:2*testBlock]) {
			t.Fatalf("stripe 1: shard %d is %v or misaligned after the straggler rejoined", i, st2.States[i])
		}
	}
	st.release()
	st2.release()

	var buf bytes.Buffer
	if err := reg.Expose(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "claimed") {
		t.Fatalf("exposition still has a claimed series:\n%s", buf.String())
	}
	g.close()
	waitDone := make(chan struct{})
	go func() { g.wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(2 * time.Second):
		t.Fatal("shard goroutines outlived Close")
	}
}

// TestGroupAwaitReadsWhatTheHedgeSkipped: every second stripe is
// gathered the usual way — hedged past the straggler, released — and
// every other one is handed to Await, which finds the straggler still
// reading the stripe before (or, once enough misses are in, behind an
// open breaker), waits it out and asks it for this stripe anyway. What
// comes back is an ordinary stateOK block, the right one: the shard
// stays stripe-aligned through reads nobody collected.
func TestGroupAwaitReadsWhatTheHedgeSkipped(t *testing.T) {
	const n, stripes = 3, 4 * 5 // a trip takes five misses, and only unawaited stripes count one
	fc := vclock.NewFake()
	defer fc.Pump()()
	shards := mkShards(n, stripes)
	readers := make([]io.Reader, n)
	for i := range readers {
		readers[i] = bytes.NewReader(shards[i])
	}
	readers[1] = &slowReader{r: bytes.NewReader(shards[1]), delay: 40 * time.Millisecond, slowReads: -1, clock: fc}
	g := newTestGroup(t, readers, geom{hedgeAfter: 2 * time.Millisecond, clock: fc})

	opened := false
	for s := 0; s < stripes; s++ {
		st, err := g.next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.States[1] != stateSlow && st.States[1] != stateOpen {
			t.Fatalf("stripe %d: straggler state %v, want it skipped", s, st.States[1])
		}
		if s%2 == 0 {
			st.release()
			continue
		}
		opened = opened || st.States[1] == stateOpen
		if err := g.await(context.Background(), st); err != nil {
			t.Fatal(err)
		}
		for i := range readers {
			if st.States[i] != stateOK {
				t.Fatalf("stripe %d: shard %d is %v after Await", s, i, st.States[i])
			}
			if want := shards[i][s*testBlock : (s+1)*testBlock]; !bytes.Equal(st.Blocks[i], want) {
				t.Fatalf("stripe %d: shard %d delivered the wrong block", s, i)
			}
		}
		st.release()
	}
	if !opened {
		t.Fatal("the breaker never opened: Await was not tried on a shard the group skips")
	}
}

// TestGroupBreakerTripsAndRecovers: a persistent straggler trips the
// breaker open (stop waiting entirely); once it recovers, a half-open
// probe closes the breaker and the shard serves blocks again — from
// the correct stream offset. All of it on a pumped fake clock: the
// straggler's delays, the hedge deadline, the pace of the stripes and
// the 250 ms cooldown pass in virtual time.
func TestGroupBreakerTripsAndRecovers(t *testing.T) {
	const (
		n, stripes = 4, 60
		delay      = 25 * time.Millisecond // of a slow read
		pace       = 2 * delay             // between stripes: a slow read is back, late, before the next
	)
	fc := vclock.NewFake()
	defer fc.Pump()()
	shards := mkShards(n, stripes)
	readers := make([]io.Reader, n)
	for i := range readers {
		readers[i] = bytes.NewReader(shards[i])
	}
	// Slow for exactly the run that trips, then instant.
	readers[1] = &slowReader{r: bytes.NewReader(shards[1]), delay: delay, slowReads: breakerThreshold, clock: fc}
	reg := obs.NewRegistry()
	g := newTestGroup(t, readers, geom{hedgeAfter: 2 * time.Millisecond, clock: fc, metrics: reg})
	var trips uint64
	sawOpen, sawRecovered := false, false
	for s := 0; s < stripes && !sawRecovered; s++ {
		st, err := g.next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		trips += st.Trips
		switch st.States[1] {
		case stateOpen:
			sawOpen = true
			if trips == 0 {
				t.Fatalf("stripe %d skipped the shard before any trip", st.Seq)
			}
		case stateOK:
			if sawOpen {
				sawRecovered = true
				if !bytes.Equal(st.Blocks[1], shards[1][int(st.Seq)*testBlock:(int(st.Seq)+1)*testBlock]) {
					t.Fatalf("stripe %d: recovered shard served a misaligned block", st.Seq)
				}
			}
		}
		st.release()
		<-fc.After(pace)
	}
	if trips == 0 {
		t.Fatal("breaker never tripped")
	}
	if !sawOpen {
		t.Fatal("breaker never reported an open (skipped) stripe")
	}
	if !sawRecovered {
		t.Fatal("half-open probe never re-admitted the recovered shard")
	}
	if g.sh[1].gate.Trips != 0 {
		t.Fatalf("breaker still tripped %d times after the probe answered in time", g.sh[1].gate.Trips)
	}
	if got := reg.Counter("shardio_breaker_trips_total", "").Value(); got != trips {
		t.Fatalf("shardio_breaker_trips_total = %d, stripes reported %d", got, trips)
	}
}

func TestGroupPanicRecovered(t *testing.T) {
	panicky := readerFunc(func([]byte) (int, error) { panic("boom") })
	readers := []io.Reader{panicky, bytes.NewReader(mkShards(2, 1)[1])}
	g := newTestGroup(t, readers, geom{})
	st, err := g.next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.States[0] != stateDead || st.Panics != 1 {
		t.Fatalf("state %v panics %d, want dead/1", st.States[0], st.Panics)
	}
	var pe *PanicError
	if !errors.As(st.Errs[0], &pe) || pe.Value != "boom" {
		t.Fatalf("err %v is not the recovered panic", st.Errs[0])
	}
	st.release()
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// TestGroupCancelledNext: a cancelled context unblocks Next while a
// read is still in flight; Close then lets the goroutines drain.
func TestGroupCancelledNext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	blocked := fault.NewReader(bytes.NewReader(mkShards(1, 4)[0]), fault.Plan{
		Ops: []fault.Op{{Kind: fault.Slow, Off: 0, Len: 5_000_000}}, // ~5s per read
	}).WithContext(ctx)
	g := newTestGroup(t, []io.Reader{blocked}, geom{})
	done := make(chan error, 1)
	go func() {
		_, err := g.next(ctx)
		done <- err
	}()
	// Lets Next park on the blocked read first; if it has not yet, it
	// finds ctx cancelled on entry, and the test holds all the same.
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Next returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Next did not return after cancellation")
	}
	g.close()
	waitDone := make(chan struct{})
	go func() { g.wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(2 * time.Second):
		t.Fatal("shard goroutines leaked after Close of a cancelled group")
	}
}

// TestGroupCloseReleasesGoroutines is the group's leak check: goroutine
// count returns to baseline after heavy hedged use. The straggler's
// 5 ms reads pass on a pumped fake clock, which keeps running until
// every group has drained.
func TestGroupCloseReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	fc := vclock.NewFake()
	stopPump := fc.Pump()
	for round := 0; round < 3; round++ {
		const n = 5
		shards := mkShards(n, 6)
		readers := make([]io.Reader, n)
		for i := range readers {
			readers[i] = bytes.NewReader(shards[i])
		}
		readers[4] = &slowReader{r: bytes.NewReader(shards[4]), delay: 5 * time.Millisecond, slowReads: -1, clock: fc}
		g := newGroup(readers, geom{blockSize: testBlock, hedgeAfter: time.Millisecond, clock: fc})
		for s := 0; s < 6; s++ {
			st, err := g.next(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			st.release()
		}
		g.close()
		g.wait()
	}
	stopPump()
	// The runtime may briefly keep helper goroutines (timers); poll, in
	// real time, for them to exit.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d at start, %d after", base, runtime.NumGoroutine())
}

// TestGroupAttachFill: a caller reading the minimum of shards brings
// in spares mid-stream. Attach starts a free slot at a block offset,
// Fill gathers the new shard's block into the stripe already in hand
// without re-reading the shards that delivered, and later stripes are
// served from the new set.
func TestGroupAttachFill(t *testing.T) {
	const n, stripes = 4, 5
	ctx := context.Background()
	shards := mkShards(n, stripes)
	block := func(i, s int) []byte { return shards[i][s*testBlock : (s+1)*testBlock] }
	readers := make([]io.Reader, n)
	readers[0] = bytes.NewReader(shards[0])
	readers[1] = bytes.NewReader(shards[1][:2*testBlock+5]) // dies mid-block on stripe 2
	g := newTestGroup(t, readers, geom{})
	for s := 0; s < 2; s++ {
		st, err := g.next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		st.release()
	}
	st, err := g.next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.States[0] != stateOK || st.States[1] != stateDead || st.States[3] != stateMissing {
		t.Fatalf("stripe 2 states %v", st.States)
	}
	held := &st.Blocks[0][0]

	if err := g.attach(0, bytes.NewReader(nil), 2); err == nil {
		t.Fatal("attach to a live slot accepted")
	}
	if err := g.attach(n, bytes.NewReader(nil), 2); err == nil {
		t.Fatal("attach past the last slot accepted")
	}
	// Shard 3 arrives positioned at the failing stripe; shard 2 arrives
	// positioned at its start and is skip-read up to it.
	if err := g.attach(3, bytes.NewReader(shards[3][2*testBlock:]), 2); err != nil {
		t.Fatal(err)
	}
	if err := g.attach(2, bytes.NewReader(shards[2]), 0); err != nil {
		t.Fatal(err)
	}
	if err := g.fill(ctx, st); err != nil {
		t.Fatal(err)
	}
	if &st.Blocks[0][0] != held {
		t.Fatal("fill re-read a shard that had already delivered")
	}
	for _, i := range []int{0, 2, 3} {
		if st.States[i] != stateOK || !bytes.Equal(st.Blocks[i], block(i, 2)) {
			t.Fatalf("after fill: shard %d state %v, block ok=%v", i, st.States[i], bytes.Equal(st.Blocks[i], block(i, 2)))
		}
	}
	if st.States[1] != stateDead {
		t.Fatalf("after fill: dead shard state %v", st.States[1])
	}
	st.release()

	for s := 3; s < stripes; s++ {
		st, err := g.next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{0, 2, 3} {
			if st.States[i] != stateOK || !bytes.Equal(st.Blocks[i], block(i, s)) {
				t.Fatalf("stripe %d shard %d state %v or wrong block", s, i, st.States[i])
			}
		}
		st.release()
	}
}

// TestGroupsShareAllocator: a group reads into the blocks the group
// before it released — buffers belong to the process, not the group.
func TestGroupsShareAllocator(t *testing.T) {
	const n, stripes = 3, 4
	shards := mkShards(n, stripes)
	seen := map[*byte]bool{}
	for round := 0; round < 2; round++ {
		readers := make([]io.Reader, n)
		for i := range readers {
			readers[i] = bytes.NewReader(shards[i])
		}
		g := newTestGroup(t, readers, geom{})
		for s := 0; s < stripes; s++ {
			st, err := g.next(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range st.Blocks {
				if round == 0 {
					seen[&b[0]] = true
				} else if !seen[&b[0]] {
					t.Fatal("second group allocated a block the first one had released")
				}
			}
			st.release()
		}
		g.close()
		g.wait()
	}
}
