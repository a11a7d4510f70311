package shardio

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"dialga/internal/obs"
	"dialga/internal/vclock"
)

// shardMeta is the gather loop's per-shard state. It is owned by the
// single consumer goroutine; the shard goroutines never touch it.
type shardMeta struct {
	missing bool
	dead    bool
	deadErr error
	eof     bool

	outstanding    bool  // a request is in flight
	outstandingSeq int64 // its stripe

	ewma EWMA    // block-read latency tracker
	gate Breaker // fed a late sample per deadline miss, an on-time one per block in time
}

// Group schedules block reads across a stripe's shard readers. Create
// one per decode with NewGroup, call Next once per stripe from a
// single goroutine, and Close when done.
type Group struct {
	opts    Options
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
	// allocate. Stripes cycle through a pool (Release returns them, and
	// their blocks to the allocator), the hedge timer is reset rather
	// than recreated, and the gather loop's awaited flags and the
	// deadline's EWMA gather reuse group-owned scratch (all owned by the
	// single consumer goroutine).
	stripes     sync.Pool
	timer       vclock.Timer
	awaited     []bool
	ewmaScratch []float64

	// Registry series; nil (no-op) without Options.Metrics. A Group
	// lives for one read, and its shard indexes name different nodes
	// from one object to the next, so no series is per shard.
	deadlineG   *obs.Gauge   // shardio_deadline_us: last adaptive deadline
	tripsC      *obs.Counter // shardio_breaker_trips_total
	lateDropped *obs.Counter // shardio_late_blocks_dropped_total
}

// NewGroup validates opts, spawns one reader goroutine per non-nil
// shard reader, and returns the ready group. Nil entries in readers
// are permanently missing shards.
func NewGroup(readers []io.Reader, opts Options) (*Group, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n := len(readers)
	g := &Group{
		opts:    opts,
		clock:   vclock.OrReal(opts.Clock),
		n:       n,
		req:     make([]chan request, n),
		results: make(chan result, n),
		stop:    make(chan struct{}),
		sh:      make([]shardMeta, n),
		awaited: make([]bool, n),
	}
	reg := opts.Metrics
	g.deadlineG = reg.Gauge("shardio_deadline_us",
		"Adaptive per-stripe deadline derived from the fleet-median latency EWMA, microseconds.")
	g.tripsC = reg.Counter("shardio_breaker_trips_total",
		"Shard circuit-breaker trips, including half-open re-trips.")
	g.lateDropped = reg.Counter("shardio_late_blocks_dropped_total",
		"Straggler blocks that arrived after their stripe had gone ahead without them; recycled.")
	for i, r := range readers {
		if r == nil {
			g.sh[i].missing = true
			continue
		}
		g.start(i, r, 0)
	}
	return g, nil
}

// start spawns shard i's reader goroutine over r, which is positioned
// at the first byte of block pos.
func (g *Group) start(i int, r io.Reader, pos int64) {
	g.req[i] = make(chan request, 1)
	g.wg.Add(1)
	go g.runShard(i, r, pos)
}

// Attach puts a reader into a slot NewGroup was given nil for: from
// the next Fill on, shard i is served from r, which must be
// positioned at the first byte of block pos (pos at most the stripe
// about to be gathered; earlier blocks are skip-read). It is how a
// caller that started with the minimum of sources brings in a spare
// mid-stream; follow it with Fill to get the spare's block for the
// stripe already in hand.
func (g *Group) Attach(i int, r io.Reader, pos int64) error {
	if i < 0 || i >= g.n || !g.sh[i].missing {
		return fmt.Errorf("shardio: attach: shard slot %d is not free", i)
	}
	g.sh[i].missing = false
	g.start(i, r, pos)
	return nil
}

// Close signals every shard goroutine to exit and drains any results
// already buffered. A goroutine blocked inside an underlying Read
// exits as soon as that Read returns (use context-aware readers to
// make that prompt under cancellation); its buffer is dropped to the
// GC. Close is idempotent and safe after a cancelled Next.
func (g *Group) Close() {
	g.closeOnce.Do(func() {
		close(g.stop)
		// Recycle whatever already landed; goroutines still blocked in
		// a Read will drop their buffers on the floor when they wake.
		for {
			select {
			case res := <-g.results:
				PutBuffer(res.buf)
			default:
				return
			}
		}
	})
}

// wait blocks until every shard goroutine has exited — i.e. until
// every in-flight Read has returned. Exposed for leak tests.
func (g *Group) wait() { g.wg.Wait() }

// enqueue hands shard i a request for stripe seq. The caller must
// know the shard is idle (no outstanding request).
func (g *Group) enqueue(i int, seq int64) {
	m := &g.sh[i]
	m.outstanding = true
	m.outstandingSeq = seq
	g.req[i] <- request{seq: seq, buf: GetBuffer(g.opts.BlockSize)}
}

// eligible reports whether shard i can be asked for a block right now.
func (g *Group) eligible(i int, now time.Time) bool {
	m := &g.sh[i]
	return !m.missing && !m.dead && !m.eof && !m.outstanding && !m.gate.Cooling(now)
}

// deadline derives the stripe's adaptive deadline from the fleet: past
// it a block is late against the live shards' latency EWMAs (the
// straggler's own included), clamped to [HedgeAfter, maxDeadline]. ok is
// false until any shard has a sample.
func (g *Group) deadline() (time.Duration, bool) {
	ewmas := g.ewmaScratch[:0]
	for i := range g.sh {
		m := &g.sh[i]
		if m.ewma.Samples() > 0 && !m.missing && !m.dead && !m.eof {
			ewmas = append(ewmas, m.ewma.Micros())
		}
	}
	g.ewmaScratch = ewmas
	d, ok := LateAfter(ewmas)
	if !ok {
		return 0, false
	}
	d = min(max(d, g.opts.HedgeAfter), maxDeadline)
	g.deadlineG.Set(float64(d) / float64(time.Microsecond))
	return d, true
}

// getStripe takes a stripe from the group's pool (allocating only when
// the pool is empty) and resets it for sequence seq.
func (g *Group) getStripe(seq int64) *Stripe {
	st, _ := g.stripes.Get().(*Stripe)
	if st == nil {
		st = &Stripe{
			Blocks: make([][]byte, g.n),
			States: make([]ShardState, g.n),
			Errs:   make([]error, g.n),
		}
	}
	st.Seq = seq
	clear(st.Blocks)
	clear(st.States)
	clear(st.Errs)
	st.Trips, st.Panics = 0, 0
	st.Hedged = false
	st.home = &g.stripes
	return st
}

// Next gathers the blocks of the next stripe. It returns a non-nil
// error only when ctx is cancelled; every per-shard failure is
// reported in the Stripe instead. The caller owns the returned stripe
// and must Release it.
func (g *Group) Next(ctx context.Context) (*Stripe, error) {
	st := g.getStripe(g.seq)
	g.seq++
	if err := g.Fill(ctx, st); err != nil {
		return nil, err
	}
	return st, nil
}

// Fill issues stripe st.Seq's block request to every shard that can
// take one and has no block in st yet, then waits the requests out
// under the hedging rules, updating st's states, blocks and counters in
// place: when the stripe's deadline passes, every shard still reading
// is left behind as slow, however many blocks are in hand — whether
// they suffice, or a spare must come in, is the caller's call. Next
// calls it on a fresh stripe; a caller calls it again on the stripe
// Next returned last to read shards attached since. It fails only when
// ctx is cancelled.
func (g *Group) Fill(ctx context.Context, st *Stripe) error { return g.fill(ctx, st, false) }

// Await is Fill without the speculation: called on the stripe Next
// returned last, it waits — as long as ctx lives, no deadline, no
// breaker — for a block from every live shard the stripe went ahead
// without: hedged past, still reading an earlier stripe, or behind an
// open breaker. Hedging bets that the blocks in hand will do; a consumer
// that finds they do not, with no spare left to bring in, calls Await
// before giving the stripe up, so a guess about latency never decides
// whether data is readable. A block that arrives is an ordinary StateOK
// block.
func (g *Group) Await(ctx context.Context, st *Stripe) error { return g.fill(ctx, st, true) }

func (g *Group) fill(ctx context.Context, st *Stripe, patient bool) error {
	seq := st.Seq
	now := g.clock.Now()
	awaited := g.awaited
	clear(awaited)
	wait := 0
	for i := range g.sh {
		m := &g.sh[i]
		switch {
		case st.Blocks[i] != nil || st.States[i] == StateCorrupt:
			// Settled by an earlier Fill of this stripe.
		case m.missing:
			st.States[i] = StateMissing
		case m.dead:
			st.States[i] = StateDead
			st.Errs[i] = m.deadErr
		case m.eof:
			st.States[i] = StateEOF
		case m.gate.Cooling(now) && !patient:
			st.States[i] = StateOpen
		case m.outstanding:
			// Still serving an earlier stripe, or this one after a hedge: a
			// straggler mid-read.
			st.States[i] = StateSlow
			if patient {
				awaited[i] = true
				wait++
			}
		default:
			g.enqueue(i, seq)
			awaited[i] = true
			wait++
			st.States[i] = StateSlow // provisional until its result lands
		}
	}

	hedge := g.opts.HedgeAfter > 0 && !patient
	armed := false // the reusable group timer is counting for this stripe
	fired := false
	var timeC <-chan time.Time
	arm := func() {
		if !hedge || armed {
			return
		}
		if d, ok := g.deadline(); ok {
			if g.timer == nil {
				g.timer = g.clock.NewTimer(d)
			} else {
				g.timer.Reset(d) // always stopped-and-drained between stripes
			}
			timeC = g.timer.C()
			armed = true
		}
	}
	arm()
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
				st.States[i] = StateSlow
				st.Hedged = true
				if tripped, _ := g.sh[i].gate.Observe(now, true); tripped {
					st.Trips++
					g.tripsC.Inc()
				}
			}
			wait = 0
		case res := <-g.results:
			if g.consume(&res, seq, st, awaited, &wait, patient); wait > 0 {
				arm() // the first samples may only exist now (cold start)
			}
		}
	}
	return nil
}

// consume folds one shard result into the gather state. Stale results
// (from stripes already hedged past) recycle their block and re-admit
// the shard to the current stripe when it is eligible.
func (g *Group) consume(res *result, seq int64, st *Stripe, awaited []bool, wait *int, patient bool) {
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

	if res.seq != seq {
		// A background read from a stripe the pipeline already left.
		switch {
		case res.eof:
			m.eof = true
			st.States[i] = StateEOF
			PutBuffer(res.buf)
		case res.err != nil:
			m.dead, m.deadErr = true, res.err
			st.States[i] = StateDead
			st.Errs[i] = res.err
			PutBuffer(res.buf)
		default:
			m.ewma.Observe(res.dur)
			g.lateDropped.Inc()
			PutBuffer(res.buf)
			// Rejoin the stripe being gathered: the shard may have
			// recovered and can still make this deadline.
			if patient || g.eligible(i, g.clock.Now()) {
				g.enqueue(i, seq)
				awaited[i] = true
				*wait++
			}
		}
		return
	}

	switch {
	case res.eof:
		m.eof = true
		st.States[i] = StateEOF
		PutBuffer(res.buf)
	case res.err != nil:
		m.dead, m.deadErr = true, res.err
		st.States[i] = StateDead
		st.Errs[i] = res.err
		PutBuffer(res.buf)
	default:
		if res.corrupt {
			st.States[i] = StateCorrupt
			PutBuffer(res.buf)
		} else {
			st.Blocks[i] = res.buf
			st.States[i] = StateOK
		}
		m.ewma.Observe(res.dur)
		if !patient { // awaited, not raced: no sample for the breaker
			m.gate.Observe(g.clock.Now(), false)
		}
	}
}
