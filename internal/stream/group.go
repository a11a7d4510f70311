package stream

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"dialga/internal/obs"
	"dialga/internal/vclock"
)

// shardState is a shard's disposition for one stripe — the decoder's
// four-severity model plus the bookkeeping states around it.
type shardState uint8

const (
	// stateOK: the block arrived in time and is present in Blocks.
	stateOK shardState = iota
	// stateMissing: no reader was provided for this shard.
	stateMissing
	// stateEOF: the shard ended cleanly at a block boundary (at or
	// before this stripe).
	stateEOF
	// stateDead: a read of the shard failed — any error but a clean
	// EOF at a block boundary or a corrupt block, a ragged mid-block
	// EOF included — and it is retired for the rest of the stream.
	stateDead
	// stateSlow: the shard is alive but missed the stripe's deadline
	// (or is still serving an earlier stripe). Its block still counts
	// if it lands during a later fill or await of this stripe; one that
	// lands once the stripe has moved on is recycled.
	stateSlow
	// stateOpen: the shard's circuit breaker is open; the group did
	// not ask it for this stripe at all.
	stateOpen
	// stateCorrupt: the block arrived but failed its trailer
	// (errBlockChecksum); an erasure for this stripe only — the shard
	// serves the next one.
	stateCorrupt
)

func (s shardState) String() string {
	switch s {
	case stateOK:
		return "ok"
	case stateMissing:
		return "missing"
	case stateEOF:
		return "eof"
	case stateDead:
		return "dead"
	case stateSlow:
		return "slow"
	case stateOpen:
		return "open"
	case stateCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// shardStripe is the outcome of one group.next gather: per-shard blocks
// and dispositions plus the counters the stripe accrued.
type shardStripe struct {
	Seq int64
	// Blocks holds the full block per stateOK shard, nil otherwise.
	// Slices come from getBuffer and are valid until release.
	Blocks [][]byte
	// States is each shard's disposition this stripe.
	States []shardState
	// Errs carries the terminal error for stateDead shards (every
	// stripe from the one it died on).
	Errs []error
	// Hedged reports that the stripe proceeded without at least one
	// live shard that missed its deadline.
	Hedged bool
	// Trips counts circuit-breaker trips (first trips and half-open
	// re-trips) during this gather.
	Trips uint64
	// Panics counts shard-reader panics recovered during this gather;
	// the affected shards surface as stateDead with a *PanicError.
	Panics uint64

	// lat holds, in microseconds and in landing order, how long each
	// block of this stripe read whole (ok or corrupt) took: what the
	// stripe's deadline is judged against.
	lat []float64

	home *sync.Pool // the group's stripe pool; release returns st here
}

// release recycles every buffer the stripe owns and returns the stripe
// to its group's pool. The stripe and its slices must not be used
// afterwards. release is idempotent.
func (st *shardStripe) release() {
	home := st.home
	if home == nil {
		return
	}
	for i, b := range st.Blocks {
		if b != nil {
			putBuffer(b)
			st.Blocks[i] = nil
		}
	}
	st.home = nil
	home.Put(st)
}

// shardMeta is the gather loop's per-shard state. It is owned by the
// single consumer goroutine; the shard goroutines never touch it.
type shardMeta struct {
	missing bool
	dead    bool
	deadErr error
	eof     bool

	outstanding    bool  // a request is in flight
	outstandingSeq int64 // its stripe

	gate Breaker // fed a late sample per deadline miss, an on-time one per block in time
}

// group schedules block reads across a stripe's shard readers by the
// four rules in the package doc. Create one per read with newGroup,
// call next once per stripe from a single goroutine, and close when
// done. It reads geom's blockSize, hedgeAfter, clock and shardio.
type group struct {
	geom    geom
	clock   vclock.Clock
	n       int
	req     []chan request
	results chan result

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	seq int64
	sh  []shardMeta

	// Steady-state reuse: gathering a stripe — hedged or not — must not
	// allocate. Stripes cycle through a pool (release returns them, and
	// their blocks to the allocator), the hedge timer is reset rather
	// than recreated, and the gather loop's awaited flags are
	// group-owned scratch (all owned by the single consumer goroutine).
	stripes sync.Pool
	timer   vclock.Timer
	awaited []bool
}

// shardioSeries are what a read's group counts, resolved once per read
// pipeline by NewDecoder and NewRebuilder (nil, so no-op, without
// Options.Metrics). None is per shard: a group's shard indexes name
// different nodes from one object to the next. The shardio_ prefix
// stays: dashboards and the benchmark match on it.
type shardioSeries struct {
	deadline           *obs.Gauge   // shardio_deadline_us: last stripe deadline
	trips, lateDropped *obs.Counter // shardio_breaker_trips_total, shardio_late_blocks_dropped_total
}

func newShardioSeries(reg *obs.Registry) shardioSeries {
	return shardioSeries{
		deadline: reg.Gauge("shardio_deadline_us",
			"Last per-stripe deadline, from the block-read latencies the stripe had in hand, microseconds."),
		trips: reg.Counter("shardio_breaker_trips_total",
			"Shard circuit-breaker trips, including half-open re-trips."),
		lateDropped: reg.Counter("shardio_late_blocks_dropped_total",
			"Straggler blocks that arrived after their stripe had gone ahead without them; recycled."),
	}
}

// newGroup spawns one reader goroutine per non-nil shard reader and
// returns the ready group. Nil entries in readers are permanently
// missing shards.
func newGroup(readers []io.Reader, g geom) *group {
	n := len(readers)
	grp := &group{
		geom:    g,
		clock:   vclock.OrReal(g.clock),
		n:       n,
		req:     make([]chan request, n),
		results: make(chan result, n),
		stop:    make(chan struct{}),
		sh:      make([]shardMeta, n),
		awaited: make([]bool, n),
	}
	for i, r := range readers {
		if r == nil {
			grp.sh[i].missing = true
			continue
		}
		grp.start(i, r, 0)
	}
	return grp
}

// start spawns shard i's reader goroutine over r, which is positioned
// at the first byte of block pos.
func (g *group) start(i int, r io.Reader, pos int64) {
	g.req[i] = make(chan request, 1)
	g.wg.Add(1)
	go g.runShard(i, r, pos)
}

// attach puts a reader into a slot newGroup was given nil for: from
// the next fill on, shard i is served from r, which must be positioned
// at the first byte of block pos (pos at most the stripe about to be
// gathered; earlier blocks are skip-read). It is how a read that
// started with the minimum of sources brings in a spare mid-stream;
// follow it with fill to get the spare's block for the stripe already
// in hand.
func (g *group) attach(i int, r io.Reader, pos int64) error {
	if i < 0 || i >= g.n || !g.sh[i].missing {
		return fmt.Errorf("stream: attach: shard slot %d is not free", i)
	}
	g.sh[i].missing = false
	g.start(i, r, pos)
	return nil
}

// close signals every shard goroutine to exit and drains any results
// already buffered. A goroutine blocked inside an underlying Read
// exits as soon as that Read returns (use context-aware readers to
// make that prompt under cancellation); its buffer is dropped to the
// GC. close is idempotent and safe after a cancelled next.
func (g *group) close() {
	g.closeOnce.Do(func() {
		close(g.stop)
		// Recycle whatever already landed; goroutines still blocked in
		// a Read will drop their buffers on the floor when they wake.
		for {
			select {
			case res := <-g.results:
				putBuffer(res.buf)
			default:
				return
			}
		}
	})
}

// wait blocks until every shard goroutine has exited — i.e. until
// every in-flight Read has returned. For leak tests.
func (g *group) wait() { g.wg.Wait() }

// enqueue hands shard i a request for stripe seq. The caller must
// know the shard is idle (no outstanding request).
func (g *group) enqueue(i int, seq int64) {
	m := &g.sh[i]
	m.outstanding = true
	m.outstandingSeq = seq
	g.req[i] <- request{seq: seq, buf: getBuffer(g.geom.blockSize)}
}

// eligible reports whether shard i can be asked for a block right now.
func (g *group) eligible(i int, now time.Time) bool {
	m := &g.sh[i]
	return !m.missing && !m.dead && !m.eof && !m.outstanding && !m.gate.Cooling(now)
}

// deadline is how long stripe st waits for the rest of its blocks once
// it is judged: LateAfter of the latencies of the blocks it has read,
// floored at hedgeAfter and capped at maxDeadline.
func (g *group) deadline(st *shardStripe) time.Duration {
	late, _ := LateAfter(st.lat) // st.lat is never empty when judged
	d := min(max(late, g.geom.hedgeAfter), maxDeadline)
	g.geom.shardio.deadline.Set(float64(d) / float64(time.Microsecond))
	return d
}

// getStripe takes a stripe from the group's pool (allocating only when
// the pool is empty) and resets it for sequence seq.
func (g *group) getStripe(seq int64) *shardStripe {
	st, _ := g.stripes.Get().(*shardStripe)
	if st == nil {
		st = &shardStripe{
			Blocks: make([][]byte, g.n),
			States: make([]shardState, g.n),
			Errs:   make([]error, g.n),
			lat:    make([]float64, 0, g.n),
		}
	}
	st.Seq = seq
	clear(st.Blocks)
	clear(st.States)
	clear(st.Errs)
	st.lat = st.lat[:0]
	st.Trips, st.Panics = 0, 0
	st.Hedged = false
	st.home = &g.stripes
	return st
}

// next gathers the blocks of the next stripe. It returns a non-nil
// error only when ctx is cancelled; every per-shard failure is
// reported in the stripe instead. The caller owns the returned stripe
// and must release it.
func (g *group) next(ctx context.Context) (*shardStripe, error) {
	st := g.getStripe(g.seq)
	g.seq++
	if err := g.fill(ctx, st); err != nil {
		return nil, err
	}
	return st, nil
}

// fill issues stripe st.Seq's block request to every shard that can
// take one and has no block in st yet, then waits the requests out
// under the hedging rules, updating st's states, blocks and counters in
// place: when the stripe's deadline passes, every shard still reading
// is left behind as slow, however many blocks are in hand — whether
// they suffice, or a spare must come in, is the caller's call. next
// calls it on a fresh stripe; a caller calls it again on the stripe
// next returned last to read shards attached since. It fails only when
// ctx is cancelled.
func (g *group) fill(ctx context.Context, st *shardStripe) error { return g.collect(ctx, st, false) }

// await is fill without the speculation: called on the stripe next
// returned last, it waits — as long as ctx lives, no deadline, no
// breaker — for a block from every live shard the stripe went ahead
// without: hedged past, still reading an earlier stripe, or behind an
// open breaker. Hedging bets that the blocks in hand will do; a consumer
// that finds they do not, with no spare left to bring in, calls await
// before giving the stripe up, so a guess about latency never decides
// whether data is readable. A block that arrives is an ordinary stateOK
// block.
func (g *group) await(ctx context.Context, st *shardStripe) error { return g.collect(ctx, st, true) }

func (g *group) collect(ctx context.Context, st *shardStripe, patient bool) error {
	seq := st.Seq
	now := g.clock.Now()
	awaited := g.awaited
	clear(awaited)
	wait := 0
	for i := range g.sh {
		m := &g.sh[i]
		switch {
		case st.Blocks[i] != nil || st.States[i] == stateCorrupt:
			// Settled by an earlier fill of this stripe.
		case m.missing:
			st.States[i] = stateMissing
		case m.dead:
			st.States[i] = stateDead
			st.Errs[i] = m.deadErr
		case m.eof:
			st.States[i] = stateEOF
		case m.gate.Cooling(now) && !patient:
			st.States[i] = stateOpen
		case m.outstanding:
			// Still serving an earlier stripe, or this one after a hedge: a
			// straggler mid-read.
			st.States[i] = stateSlow
			if patient {
				awaited[i] = true
				wait++
			}
		default:
			g.enqueue(i, seq)
			awaited[i] = true
			wait++
			st.States[i] = stateSlow // provisional until its result lands
		}
	}

	// The deadline is judged from the stripe's own reads once it has as
	// many blocks in hand as it still awaits — half or more of its reads
	// back, so one fast read alone never sets it — at once on a stripe an
	// earlier fill read blocks into. Until then no read can be late
	// against its peers, and the stripe waits out only the maxDeadline
	// cap: a fleet that slows together is not hedged, and a stripe whose
	// every read hangs still goes ahead without them.
	hedge := g.geom.hedgeAfter > 0 && !patient && wait > 0
	armed := false  // the reusable group timer is counting for this stripe
	judged := false // and counting the deadline the stripe's reads set
	fired := false
	var timeC <-chan time.Time
	arm := func(d time.Duration) {
		switch {
		case g.timer == nil:
			g.timer = g.clock.NewTimer(d)
		case !armed:
			g.timer.Reset(d) // always stopped-and-drained between stripes
		case !g.timer.Stop():
			return // the cap has passed: its tick is waiting in timeC
		default:
			g.timer.Reset(d)
		}
		timeC = g.timer.C()
		armed = true
	}
	judge := func() {
		if hedge && !judged && len(st.lat) >= wait {
			judged = true
			arm(g.deadline(st))
		}
	}
	if hedge {
		if judge(); !judged {
			arm(maxDeadline)
		}
	}
	defer func() {
		if armed && !fired && !g.timer.Stop() {
			<-g.timer.C()
		}
	}()

	for wait > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timeC:
			// Past the deadline: demote every still-awaited shard to slow
			// for this stripe and count the miss against its breaker.
			fired = true
			now := g.clock.Now()
			for i := range awaited {
				if !awaited[i] {
					continue
				}
				st.States[i] = stateSlow
				st.Hedged = true
				if tripped, _ := g.sh[i].gate.Observe(now, true); tripped {
					st.Trips++
					g.geom.shardio.trips.Inc()
				}
			}
			wait = 0
		case res := <-g.results:
			if g.consume(&res, seq, st, awaited, &wait, patient) && wait > 0 {
				judge()
			}
		}
	}
	return nil
}

// consume folds one shard result into the gather state and reports
// whether it was a read of stripe seq. Stale results (from stripes
// already hedged past) recycle their block and re-admit the shard to
// the current stripe when it is eligible.
func (g *group) consume(res *result, seq int64, st *shardStripe, awaited []bool, wait *int, patient bool) bool {
	i := res.shard
	m := &g.sh[i]
	m.outstanding = false
	if res.panicked {
		st.Panics++
	}
	if awaited[i] {
		awaited[i] = false
		*wait--
	}

	switch {
	case res.eof:
		m.eof = true
		st.States[i] = stateEOF
		putBuffer(res.buf)
	case res.err != nil:
		m.dead, m.deadErr = true, res.err
		st.States[i] = stateDead
		st.Errs[i] = res.err
		putBuffer(res.buf)
	case res.seq != seq:
		// A background read from a stripe the pipeline already left.
		g.geom.shardio.lateDropped.Inc()
		putBuffer(res.buf)
		// Rejoin the stripe being gathered: the shard may have
		// recovered and can still make this deadline.
		if patient || g.eligible(i, g.clock.Now()) {
			g.enqueue(i, seq)
			awaited[i] = true
			*wait++
		}
	default:
		if res.corrupt {
			st.States[i] = stateCorrupt
			putBuffer(res.buf)
		} else {
			st.Blocks[i] = res.buf
			st.States[i] = stateOK
		}
		st.lat = append(st.lat, float64(res.dur)/float64(time.Microsecond))
		if !patient { // awaited, not raced: no sample for the breaker
			m.gate.Observe(g.clock.Now(), false)
		}
	}
	return res.seq == seq
}
