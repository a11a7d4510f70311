package shardio

import (
	"bytes"
	"context"
	"io"
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
	g := newTestGroup(t, readers, Options{Quorum: 3, HedgeAfter: time.Second})
	gatherStripes(t, g, 20) // warm pools, EWMAs, and goroutine timers
	if a := testing.AllocsPerRun(40, func() {
		gatherStripes(t, g, 1)
	}); a != 0 {
		t.Errorf("healthy gather allocates %.1f per stripe, want 0", a)
	}
}

// TestGatherAllocsHedged: the hedged path — deadline timer, abandon,
// late-slot arming, stale-result rejoin — must be equally allocation
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
	g := newTestGroup(t, readers, Options{Quorum: 3, HedgeAfter: 500 * time.Microsecond})
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
