package stream

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"dialga/internal/vclock"
)

// gatherStripes runs count next/release cycles and reports how many of
// them hedged.
func gatherStripes(t testing.TB, g *group, count int) int {
	t.Helper()
	hedged := 0
	for i := 0; i < count; i++ {
		st, err := g.next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Hedged {
			hedged++
		}
		st.release()
	}
	return hedged
}

// TestGatherAllocsSteadyState: once pools are warm, a healthy
// all-shards-on-time gather cycle must not allocate — stripes come from
// the group pool, blocks from the free list, and the deadline is judged
// on the latencies the pooled stripe keeps.
func TestGatherAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const n, stripes = 4, 200
	shards := mkShards(n, stripes)
	readers := make([]io.Reader, n)
	for i := range readers {
		readers[i] = bytes.NewReader(shards[i])
	}
	g := newTestGroup(t, readers, geom{hedgeAfter: time.Second})
	gatherStripes(t, g, 20) // warm pools and goroutine timers
	if a := testing.AllocsPerRun(40, func() {
		gatherStripes(t, g, 1)
	}); a != 0 {
		t.Errorf("healthy gather allocates %.1f per stripe, want 0", a)
	}
}

// TestGatherAllocsHedged: the hedged path — deadline timer, abandon,
// late-block recycling, stale-result rejoin — must be equally allocation
// free. Every read waits on its gate, so the test, not the scheduler,
// decides which block lands when, and only the test moves the clock;
// the driver opens only the gate of a shard whose read is waiting on
// it. Two shards keep time and two straggle, and stripes alternate. In
// a hedged one the prompt shards' two blocks land, which judges the
// stripe — as many blocks in hand as reads still out — and the clock
// is moved past the deadline it arms, so both stragglers are hedged
// with their reads held. In the next each held block lands mid-gather,
// late, and is recycled; its straggler rejoins and reads that stripe's
// block in time, so its misses never run together into a breaker trip.
func TestGatherAllocsHedged(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const n, stripes = 4, 400
	prompt, stragglers := []int{0, 1}, []int{2, 3}
	shards := mkShards(n, stripes)
	gates := make([]chan struct{}, n)
	readers := make([]io.Reader, n)
	for i := range readers {
		gates[i] = make(chan struct{})
		readers[i] = &gated{r: bytes.NewReader(shards[i]), gate: gates[i]}
	}
	clock := &armSignal{Fake: vclock.NewFake(), armed: make(chan time.Duration, 16)}
	g := newTestGroup(t, readers, geom{hedgeAfter: 500 * time.Microsecond, clock: clock})
	begin, driven := make(chan bool), make(chan struct{})
	go func() {
		defer close(driven)
		for hedge := range begin {
			if hedge {
				clock.drain() // the last stripe's arms
				for _, i := range prompt {
					gates[i] <- struct{}{}
				}
				for d := range clock.armed {
					if d < maxDeadline { // judged, not the cap
						break
					}
				}
				clock.Advance(maxDeadline)
				continue
			}
			// Each held block, stale, then the rejoined read's, in time;
			// the prompt shards' reads hold the gather open till then.
			for _, i := range stragglers {
				gates[i] <- struct{}{}
				gates[i] <- struct{}{}
			}
			for _, i := range prompt {
				gates[i] <- struct{}{}
			}
		}
	}()
	// Cleanups run last-registered first: this one before the group's
	// close, so no read is left waiting on a gate.
	t.Cleanup(func() {
		close(begin)
		<-driven
		for _, gate := range gates {
			close(gate)
		}
	})

	hedge, hedged := false, 0
	stripe := func() {
		hedge = !hedge
		begin <- hedge
		hedged += gatherStripes(t, g, 1)
	}
	for i := 0; i < 20; i++ {
		stripe()
	}
	hedged = 0
	if a := testing.AllocsPerRun(60, stripe); a != 0 {
		t.Errorf("hedged gather allocates %.1f per stripe, want 0", a)
	}
	if hedged == 0 {
		t.Error("no stripe hedged; the straggler scenario did not engage")
	}
}

// gated is a shard reader whose every Read first waits for the test to
// send on gate.
type gated struct {
	r    io.Reader
	gate chan struct{}
}

func (g *gated) Read(p []byte) (int, error) {
	<-g.gate
	return g.r.Read(p)
}

// armSignal is a fake clock that reports on armed, without blocking,
// how long each timer armed on it, by NewTimer or by Reset, is set for.
type armSignal struct {
	*vclock.Fake
	armed chan time.Duration
}

func (c *armSignal) signal(d time.Duration) {
	select {
	case c.armed <- d:
	default:
	}
}

// drain discards the arms reported so far.
func (c *armSignal) drain() {
	for {
		select {
		case <-c.armed:
		default:
			return
		}
	}
}

func (c *armSignal) NewTimer(d time.Duration) vclock.Timer {
	defer c.signal(d)
	return armTimer{c.Fake.NewTimer(d), c}
}

type armTimer struct {
	vclock.Timer
	c *armSignal
}

func (t armTimer) Reset(d time.Duration) {
	t.Timer.Reset(d)
	t.c.signal(d)
}

// drainBuffers empties the allocator, so a test starts with nothing
// idle.
func drainBuffers() {
	buffers.mu.Lock()
	defer buffers.mu.Unlock()
	buffers.lists, buffers.idle = nil, 0
}

// checkBuffers asserts the allocator's invariants: idle bytes are what
// the lists hold and within the budget, no list is empty, and each list
// is in return order.
func checkBuffers(t testing.TB) {
	t.Helper()
	buffers.mu.Lock()
	defer buffers.mu.Unlock()
	held := 0
	for size, l := range buffers.lists {
		if len(l.bufs) == 0 {
			t.Fatalf("an empty list for %d-byte buffers was left behind", size)
		}
		for i, e := range l.bufs {
			if len(e.b) != size {
				t.Fatalf("a %d-byte buffer idles on the %d-byte list", len(e.b), size)
			}
			if i > 0 && e.returned <= l.bufs[i-1].returned {
				t.Fatalf("the %d-byte list is out of return order", size)
			}
		}
		held += size * len(l.bufs)
	}
	if held != buffers.idle || held > IdleBudget {
		t.Fatalf("lists hold %d bytes, the count says %d, the budget is %d", held, buffers.idle, IdleBudget)
	}
}

// TestAllocatorRecyclesReslices: a buffer comes back at whatever length
// its user resliced it to — a short tail stripe, a payload view — and
// goes out again whole; sizes never mix; and the cycle does not
// allocate.
func TestAllocatorRecyclesReslices(t *testing.T) {
	drainBuffers()
	b := getBuffer(64)
	if len(b) != 64 {
		t.Fatalf("got %d bytes, want 64", len(b))
	}
	putBuffer(b[:10])
	putBuffer(make([]byte, 3))
	got := getBuffer(64)
	if len(got) != 64 || &got[0] != &b[0] {
		t.Fatal("the resliced buffer was not handed out again whole")
	}
	if other := getBuffer(3); len(other) != 3 {
		t.Fatalf("got %d bytes, want 3", len(other))
	}
	checkBuffers(t)
	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	if a := testing.AllocsPerRun(200, func() {
		putBuffer(getBuffer(64)[:1])
	}); a != 0 {
		t.Fatalf("a get/put cycle allocates %.1f, want 0", a)
	}
}

// TestAllocatorBudget: idle bytes never pass IdleBudget; room is made by
// dropping the least recently returned buffers whatever their size; a
// buffer larger than the budget is never pooled; and a size whose list
// runs dry leaves nothing behind.
func TestAllocatorBudget(t *testing.T) {
	drainBuffers()
	const big, small = IdleBudget / 4, 4 << 10
	var bigs [][]byte
	for i := 0; i < 4; i++ {
		bigs = append(bigs, getBuffer(big))
	}
	for _, b := range bigs {
		putBuffer(b) // the budget, exactly
	}
	putBuffer(getBuffer(small)) // pushes out the first big buffer returned
	if idle := IdleBuffers(); idle[big] != 3 || idle[small] != 1 {
		t.Fatalf("idle %v, want 3 big and 1 small", idle)
	}
	if b := getBuffer(big); &b[0] != &bigs[3][0] {
		t.Fatal("not the most recently returned big buffer")
	} else {
		putBuffer(b)
	}
	putBuffer(make([]byte, IdleBudget+1))
	if idle := IdleBuffers(); idle[IdleBudget+1] != 0 {
		t.Fatal("a buffer larger than the budget was pooled")
	}
	checkBuffers(t)

	getBuffer(small)
	for i := 0; i < 3; i++ {
		getBuffer(big)
	}
	if idle := IdleBuffers(); len(idle) != 0 {
		t.Fatalf("idle %v after taking every buffer, want nothing", idle)
	}
	checkBuffers(t)
}

// TestAllocatorShiftsToTheWorkload is small_mixed's shift at the
// defaults (RS(4,2), 1 MiB stripes): the preload leaves the budget full
// of top-rung stripes, then 64 KiB puts and GETs cycle 16 KiB-rung
// stripes and blocks. The small sizes displace just enough of the old
// stripes to fit, and from the second cycle on they allocate nothing.
func TestAllocatorShiftsToTheWorkload(t *testing.T) {
	drainBuffers()
	const k, m, puts, gets = 4, 2, 8, 8 // in flight at once
	topStripe := (k + m) * (256<<10 + 4)
	smallStripe, smallBlock := (k+m)*(16<<10+4), 16<<10+4
	var preload [][]byte
	for i := 0; i <= IdleBudget/topStripe; i++ {
		preload = append(preload, getBuffer(topStripe))
	}
	for _, b := range preload {
		putBuffer(b) // one more than fits: the budget is full
	}
	full := IdleBuffers()[topStripe]
	working := puts*smallStripe + gets*(k+1)*smallBlock // a stripe a put; k blocks and a spare a GET
	kept := (IdleBudget - working) / topStripe
	if kept >= full {
		t.Fatalf("the cycle's %d bytes fit beside %d top-rung stripes: it would not shift anything", working, full)
	}

	hold := make([][]byte, 0, puts+gets*(k+1))
	cycle := func() {
		for i := 0; i < puts; i++ {
			hold = append(hold, getBuffer(smallStripe))
		}
		for i := 0; i < gets*(k+1); i++ {
			hold = append(hold, getBuffer(smallBlock))
		}
		for _, b := range hold {
			putBuffer(b)
		}
		hold = hold[:0]
	}
	cycle()
	if !raceEnabled {
		if a := testing.AllocsPerRun(50, cycle); a != 0 {
			t.Fatalf("a warm cycle allocates %.1f buffers, want 0", a)
		}
	}
	idle := IdleBuffers()
	if idle[smallStripe] != puts || idle[smallBlock] != gets*(k+1) || idle[topStripe] != kept {
		t.Fatalf("idle %v: want %d small stripes, %d small blocks and %d of the %d top-rung stripes",
			idle, puts, gets*(k+1), kept, full)
	}
	checkBuffers(t)
	drainBuffers()
}

// TestAllocatorConcurrent: goroutines getting and putting buffers of
// many sizes never share one, and leave the allocator consistent. CI
// runs it under -race.
func TestAllocatorConcurrent(t *testing.T) {
	drainBuffers()
	sizes := []int{100, 4 << 10, 16<<10 + 4, 6 * (16<<10 + 4), 256<<10 + 4, 6 * (256<<10 + 4)}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				size := sizes[(w+i)%len(sizes)]
				b := getBuffer(size)
				if len(b) != size {
					t.Errorf("got %d bytes, want %d", len(b), size)
					return
				}
				b[0], b[size-1] = byte(w), byte(w)
				runtime.Gosched()
				if b[0] != byte(w) || b[size-1] != byte(w) {
					t.Error("a buffer was handed to two goroutines at once")
					return
				}
				putBuffer(b[:i%size])
			}
		}(w)
	}
	wg.Wait()
	checkBuffers(t)
	drainBuffers()
}
