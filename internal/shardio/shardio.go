// Package shardio is a straggler-tolerant shard-I/O scheduling layer
// for the streaming erasure decoder.
//
// The plain decoder reads one block per stripe from every shard reader
// in turn, so a single slow-but-alive reader drags every stripe down
// to the straggler's speed. Erasure coding makes "slow" a soft
// failure: any k of the k+m blocks recover the stripe, so a laggard
// can be treated as an erasure-for-now and reconstructed around — the
// stream-layer analogue of DIALGA's relative-latency trigger, which
// reacts to a shard running behind its peers rather than to hard
// errors only.
//
// A Group owns one goroutine per shard reader and schedules block
// reads with four defenses layered on top of the raw io.Reader:
//
//   - Latency tracking. Every block read updates a per-shard EWMA;
//     the fleet median of those EWMAs yields an adaptive per-stripe
//     deadline (LateAfter, clamped to [HedgeAfter, 15 s]).
//   - Hedged reads. A shard that misses the deadline while at least
//     Quorum blocks have arrived is demoted to slow for the stripe:
//     the stripe proceeds to reconstruction immediately while the slow
//     read continues in the background. Whichever finishes first wins
//     — the consumer may claim a late-arriving block via
//     Stripe.TakeLate up to the moment it commits to reconstruction.
//   - Retry with backoff. Transient read errors (Transient() bool ==
//     true) are retried up to three times with exponential backoff and
//     full jitter, deterministically seeded, instead of a single
//     immediate retry.
//   - Circuit breaking. Each shard sits behind a Breaker: five deadline
//     misses in a row and the group stops waiting for it entirely.
//     After a cooldown (doubling per trip) the next stripe issues a
//     probe read; an on-time probe closes the breaker, a miss re-opens
//     it with a longer cooldown.
//
// The numbers are constants (breaker.go, shard.go), not options: the
// one switch is HedgeAfter.
//
// Per-shard stream position is tracked by the shard goroutine itself:
// a request for stripe s first skip-reads any blocks an open or slow
// period left behind, so shards re-admitted by a half-open probe are
// always stripe-aligned.
//
// What a Group does not do: remember. Its EWMAs and breakers live for
// one stream, and its hedge acts only above the HedgeAfter floor. At
// the cluster gateway's defaults — 256 KiB blocks, a 30 ms floor — a
// node that adds a few milliseconds to every read makes a block cost
// ~5 ms: far behind its peers, far under the floor, so in-stream
// hedging never fires there, on the first stream or the thousandth.
// That regime is covered one layer up, by the gateway's cross-request
// node sidelining (internal/cluster, sideline.go), which puts each node
// behind the same Breaker, judged against its peers, and simply stops
// handing the slow node's shard to the Group.
//
// All Group methods are intended for a single consumer goroutine (the
// decoder's producer); only Stripe.TakeLate is safe to call
// concurrently with the gather loop.
package shardio

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"dialga/internal/obs"
	"dialga/internal/vclock"
)

// Options configures a Group.
type Options struct {
	// BlockSize is the bytes read from each shard per stripe.
	// Required.
	BlockSize int

	// Quorum is the minimum number of delivered blocks that makes a
	// stripe recoverable (the code's k). Hedging never abandons a
	// laggard while fewer than Quorum blocks have arrived. Required.
	Quorum int

	// HedgeAfter enables hedged reads when positive: it is both the
	// switch and the floor of the adaptive deadline, so scheduling
	// noise on fast in-memory reads cannot trigger spurious hedges.
	// Zero disables hedging (and the circuit breaker with it): every
	// stripe waits for all live shards, however slow.
	HedgeAfter time.Duration

	// Seed makes retry jitter reproducible. Shard i derives its RNG
	// from Seed^i, so a fixed seed yields a fixed backoff schedule.
	Seed uint64

	// Readahead is the per-shard readahead depth: each shard
	// goroutine may speculatively read up to this many blocks past the
	// last requested stripe while it would otherwise sit idle, serving
	// later requests from memory — the live-pipeline analogue of the
	// paper's prefetch degree. Blocks read ahead of a stripe the group
	// skips (breaker-open or sidelined-slow periods) are discarded and
	// counted as useless prefetches. Zero disables readahead.
	Readahead int

	// Clock, when non-nil, replaces the wall clock for deadlines,
	// breaker cooldowns, latency measurement, and backoff sleeps —
	// the determinism seam for tests (vclock.Fake). Nil means the real
	// clock and changes nothing.
	Clock vclock.Clock

	// Blocks, when non-nil, is the pool the group draws its BlockSize
	// block buffers from and recycles them to, so consecutive groups
	// over equally sized blocks reuse each other's buffers instead of
	// allocating a stripe window afresh each. Nil gives the group a
	// private pool.
	Blocks *BlockPool

	// Metrics, when non-nil, is the registry the group publishes its
	// scheduling telemetry into: per-shard EWMA and breaker gauges,
	// breaker-trip counters, the adaptive-deadline gauge, and hedged
	// stripe / late-block counters (shardio_* series). Nil disables
	// registration; the group still works and Stripe counters are
	// unaffected.
	Metrics *obs.Registry
}

// Validate reports the first field NewGroup would refuse. NewGroup
// applies it itself; it is exported so a wrapper that builds groups
// later can surface the error at its own construction time.
func (o Options) Validate() error {
	switch {
	case o.BlockSize <= 0:
		return fmt.Errorf("shardio: BlockSize %d must be positive", o.BlockSize)
	case o.Quorum <= 0:
		return fmt.Errorf("shardio: Quorum %d must be positive", o.Quorum)
	case o.HedgeAfter < 0:
		return fmt.Errorf("shardio: HedgeAfter %v must not be negative", o.HedgeAfter)
	case o.Readahead < 0:
		return fmt.Errorf("shardio: Readahead %d must not be negative", o.Readahead)
	}
	return nil
}

// ShardState is a shard's disposition for one stripe — the decoder's
// four-severity model plus the bookkeeping states around it.
type ShardState uint8

const (
	// StateOK: the block arrived in time and is present in Blocks.
	StateOK ShardState = iota
	// StateMissing: no reader was provided for this shard.
	StateMissing
	// StateEOF: the shard ended cleanly at a block boundary (at or
	// before this stripe).
	StateEOF
	// StateDead: the shard failed hard — a non-transient error, a
	// ragged mid-block EOF, or retries exhausted — and is retired for
	// the rest of the stream.
	StateDead
	// StateSlow: the shard is alive but missed the stripe's adaptive
	// deadline (or is still serving an earlier stripe); its block may
	// yet arrive and be claimed with TakeLate.
	StateSlow
	// StateOpen: the shard's circuit breaker is open; the group did
	// not ask it for this stripe at all.
	StateOpen
)

func (s ShardState) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateMissing:
		return "missing"
	case StateEOF:
		return "eof"
	case StateDead:
		return "dead"
	case StateSlow:
		return "slow"
	case StateOpen:
		return "open"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// PanicError is a panic recovered from a pipeline or shard-reader
// goroutine, surfaced as an ordinary error instead of killing the
// process.
type PanicError struct {
	Stage string // which goroutine panicked, e.g. "shard 3 reader"
	Value any    // the recovered panic value
	Stack []byte // stack captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in %s: %v", e.Stage, e.Value)
}

// transienter matches errors advertising themselves as momentary via
// a Transient() bool method (the net.Error convention, also satisfied
// by fault.Err).
type transienter interface{ Transient() bool }

func isTransient(err error) bool {
	var t transienter
	return errors.As(err, &t) && t.Transient()
}

// maxIdleBlockBytes bounds the idle buffers one BlockPool keeps. A pool
// private to one group never gets near it; a pool shared by every read
// of a long-lived decoder would otherwise keep, for good, as many
// buffers as its busiest moment ever had in flight.
const maxIdleBlockBytes = 64 << 20

// BlockPool recycles block buffers across stripes, and across groups
// when shared through Options.Blocks. It is a plain mutex-guarded free
// list rather than a sync.Pool: Put-ing a []byte into a sync.Pool
// heap-allocates a *[]byte box on every cycle, which would put a
// per-stripe allocation on the steady-state gather path. The list holds
// at most maxIdleBlockBytes of idle buffers; a buffer returned beyond
// that, like one dropped mid-read at Close, is left to the GC. Safe for
// concurrent use.
type BlockPool struct {
	size    int
	maxFree int
	mu      sync.Mutex
	free    [][]byte
}

// NewBlockPool returns an empty pool of size-byte block buffers.
func NewBlockPool(size int) *BlockPool {
	return &BlockPool{size: size, maxFree: max(1, maxIdleBlockBytes/max(1, size))}
}

func (bp *BlockPool) get() []byte {
	bp.mu.Lock()
	if n := len(bp.free); n > 0 {
		b := bp.free[n-1]
		bp.free[n-1] = nil
		bp.free = bp.free[:n-1]
		bp.mu.Unlock()
		return b
	}
	bp.mu.Unlock()
	return make([]byte, bp.size)
}

func (bp *BlockPool) put(b []byte) {
	b = b[:cap(b)]
	if len(b) != bp.size {
		return
	}
	bp.mu.Lock()
	if len(bp.free) < bp.maxFree {
		bp.free = append(bp.free, b)
	}
	bp.mu.Unlock()
}

// lateSlot is the rendezvous for the hedge race on one abandoned
// block read: the gather loop offers the straggler's block when it
// finally lands, the worker takes it if reconstruction has not won
// yet. One slot per shard lives inline in every pooled stripe and is
// armed with the abandoned read's sequence number as its generation
// when the stripe hedges past that shard. Every method checks the
// caller's generation, so a worker still racing on a stripe whose
// object has been released, pooled, and re-armed for a newer stripe
// can never touch the new read's block. All methods are safe for
// concurrent use.
type lateSlot struct {
	mu    sync.Mutex
	gen   int64 // the armed read's stripe seq; -1 until first armed
	buf   []byte
	taken bool // consumer committed (with or without the block) or stripe released
	pool  *BlockPool
}

// arm resets the slot for a new abandoned read. A buffer left from an
// earlier generation that was never taken is recycled here — its
// generation can no longer reach it (Release normally does this, so
// the path is a safety net). A taken buffer is left to the GC: the
// previous cycle's worker may still be reading it.
func (s *lateSlot) arm(gen int64) {
	s.mu.Lock()
	if s.buf != nil && !s.taken {
		s.pool.put(s.buf)
	}
	s.buf = nil
	s.taken = false
	s.gen = gen
	s.mu.Unlock()
}

// offer hands the late block to the slot. It reports false when the
// consumer has already committed, the stripe was released, or the slot
// has been re-armed for a newer read — in all of which the caller
// keeps ownership of buf.
func (s *lateSlot) offer(gen int64, buf []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if gen != s.gen || s.taken || s.buf != nil {
		return false
	}
	s.buf = buf
	return true
}

// take commits the consumer's decision: it returns the late block if
// one arrived (the direct read won the hedge race) or nil (the hedge
// reconstruction wins), and blocks later offers either way. The
// returned slice stays valid until the stripe is released.
func (s *lateSlot) take(gen int64) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if gen != s.gen {
		return nil
	}
	s.taken = true
	return s.buf
}

// reclaim detaches the buffered block, if any, for recycling, and
// blocks later offers for this generation.
func (s *lateSlot) reclaim(gen int64) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if gen != s.gen {
		return nil
	}
	s.taken = true
	b := s.buf
	s.buf = nil
	return b
}

// Stripe is the outcome of one Group.Next gather: per-shard blocks and
// dispositions plus the counters the stripe accrued.
type Stripe struct {
	Seq int64
	// Blocks holds the full BlockSize-byte block per StateOK shard,
	// nil otherwise. Slices are owned by the group's pool and are
	// valid until Release.
	Blocks [][]byte
	// States is each shard's disposition this stripe.
	States []ShardState
	// Errs carries the terminal error for StateDead shards (every
	// stripe from the one it died on).
	Errs []error
	// Transients counts transient read errors absorbed while reading
	// each delivered block — the consumer decides whether a checksum
	// clears such a block or it must be demoted.
	Transients []uint64
	// Retries totals backoff retries observed during this gather,
	// including ones surfacing from stale background reads.
	Retries uint64
	// LateTransients totals transient errors absorbed by background
	// reads whose blocks arrived too late to serve their stripe.
	LateTransients uint64
	// Hedged reports that the stripe proceeded without at least one
	// live shard that missed the adaptive deadline.
	Hedged bool
	// Trips counts circuit-breaker trips (first trips and half-open
	// re-trips) during this gather.
	Trips uint64
	// Panics counts shard-reader panics recovered during this gather;
	// the affected shards surface as StateDead with a *PanicError.
	Panics uint64

	slots     []*lateSlot // armed slots (into slotStore), nil when not hedged
	slotGen   []int64     // generation each slot was armed with
	slotStore []lateSlot  // inline per-shard slot backing, reused across pool cycles
	pool      *BlockPool
	home      *sync.Pool // the Group's stripe pool; Release returns st here
}

// TakeLate claims shard i's late-arriving block for a StateSlow
// shard: non-nil when the direct read beat reconstruction to the
// worker. At most one call per shard decides the race; the block is
// valid until Release. Safe to call from a worker goroutine while the
// gather loop runs.
func (st *Stripe) TakeLate(i int) []byte {
	if st.slots == nil || st.slots[i] == nil {
		return nil
	}
	return st.slots[i].take(st.slotGen[i])
}

// Release recycles every buffer the stripe owns, including late
// blocks, and returns the stripe to its group's pool. The stripe and
// its slices must not be used afterwards. Release is idempotent.
func (st *Stripe) Release() {
	if st.pool == nil {
		return
	}
	for i, b := range st.Blocks {
		if b != nil {
			st.pool.put(b)
			st.Blocks[i] = nil
		}
	}
	for i, s := range st.slots {
		if s == nil {
			continue
		}
		if b := s.reclaim(st.slotGen[i]); b != nil {
			st.pool.put(b)
		}
		st.slots[i] = nil
	}
	home := st.home
	st.pool, st.home = nil, nil
	if home != nil {
		home.Put(st)
	}
}
