package shardio

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"
)

// gatherStripes runs count Next/Release cycles and reports how many of
// them hedged.
func gatherStripes(t testing.TB, g *Group, count int) int {
	t.Helper()
	hedged := 0
	for i := 0; i < count; i++ {
		st, err := g.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.Hedged {
			hedged++
		}
		st.Release()
	}
	return hedged
}

// TestGatherAllocsSteadyState: once pools and EWMAs are warm, a
// healthy all-shards-on-time gather cycle must not allocate — stripes
// come from the group pool, blocks from the free list, and the
// deadline math runs on group-owned scratch.
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
	g := newTestGroup(t, readers, Options{HedgeAfter: time.Second})
	gatherStripes(t, g, 20) // warm pools, EWMAs, and goroutine timers
	if a := testing.AllocsPerRun(40, func() {
		gatherStripes(t, g, 1)
	}); a != 0 {
		t.Errorf("healthy gather allocates %.1f per stripe, want 0", a)
	}
}

// TestGatherAllocsHedged: the hedged path — deadline timer, abandon,
// late-block recycling, stale-result rejoin — must be equally allocation
// free. A straggler that is slow on every other read hedges again and
// again without ever stringing together the run that would trip its
// breaker and take it out of play.
func TestGatherAllocsHedged(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const n, stripes = 4, 400
	shards := mkShards(n, stripes)
	readers := make([]io.Reader, n)
	for i := range readers {
		// Pace the healthy shards so stripes take long enough for the
		// straggler's stale results to land mid-gather and re-admit it —
		// otherwise it stays outstanding and later stripes never hedge.
		// Delays sit well above sleep granularity (~1ms) so the EWMA
		// split between healthy and straggler is real.
		readers[i] = &slowReader{r: bytes.NewReader(shards[i]), delay: time.Millisecond, slowReads: -1}
	}
	readers[2] = &slowReader{r: bytes.NewReader(shards[2]), delay: 8 * time.Millisecond, slowReads: -1, every: 2}
	g := newTestGroup(t, readers, Options{HedgeAfter: 500 * time.Microsecond})
	gatherStripes(t, g, 20)
	hedged := 0
	if a := testing.AllocsPerRun(60, func() {
		hedged += gatherStripes(t, g, 1)
	}); a != 0 {
		t.Errorf("hedged gather allocates %.1f per stripe, want 0", a)
	}
	if hedged == 0 {
		t.Error("no stripe hedged; the straggler scenario did not engage")
	}
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
	b := GetBuffer(64)
	if len(b) != 64 {
		t.Fatalf("got %d bytes, want 64", len(b))
	}
	PutBuffer(b[:10])
	PutBuffer(make([]byte, 3))
	got := GetBuffer(64)
	if len(got) != 64 || &got[0] != &b[0] {
		t.Fatal("the resliced buffer was not handed out again whole")
	}
	if other := GetBuffer(3); len(other) != 3 {
		t.Fatalf("got %d bytes, want 3", len(other))
	}
	checkBuffers(t)
	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	if a := testing.AllocsPerRun(200, func() {
		PutBuffer(GetBuffer(64)[:1])
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
		bigs = append(bigs, GetBuffer(big))
	}
	for _, b := range bigs {
		PutBuffer(b) // the budget, exactly
	}
	PutBuffer(GetBuffer(small)) // pushes out the first big buffer returned
	if idle := IdleBuffers(); idle[big] != 3 || idle[small] != 1 {
		t.Fatalf("idle %v, want 3 big and 1 small", idle)
	}
	if b := GetBuffer(big); &b[0] != &bigs[3][0] {
		t.Fatal("not the most recently returned big buffer")
	} else {
		PutBuffer(b)
	}
	PutBuffer(make([]byte, IdleBudget+1))
	if idle := IdleBuffers(); idle[IdleBudget+1] != 0 {
		t.Fatal("a buffer larger than the budget was pooled")
	}
	checkBuffers(t)

	GetBuffer(small)
	for i := 0; i < 3; i++ {
		GetBuffer(big)
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
		preload = append(preload, GetBuffer(topStripe))
	}
	for _, b := range preload {
		PutBuffer(b) // one more than fits: the budget is full
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
			hold = append(hold, GetBuffer(smallStripe))
		}
		for i := 0; i < gets*(k+1); i++ {
			hold = append(hold, GetBuffer(smallBlock))
		}
		for _, b := range hold {
			PutBuffer(b)
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
				b := GetBuffer(size)
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
				PutBuffer(b[:i%size])
			}
		}(w)
	}
	wg.Wait()
	checkBuffers(t)
	drainBuffers()
}
