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
// reads with four rules layered on top of the raw io.Reader:
//
//   - Latency tracking. Every block read updates a per-shard EWMA;
//     the fleet median of those EWMAs yields an adaptive per-stripe
//     deadline (LateAfter, clamped to [HedgeAfter, 15 s]).
//   - Hedged reads. A shard that misses the deadline is demoted to
//     slow for the stripe: the gather returns with the blocks in hand
//     while the slow read continues in the background, and whether
//     those suffice, or a spare must come in, is the consumer's call.
//     The stripe does not take the straggler's block afterwards: when
//     it lands, during a later gather, it is counted as dropped and
//     recycled. Taking it could save at most one reconstruction, on a
//     stripe that has already waited out the deadline.
//   - One read per block. A read error is terminal unless it is a
//     clean EOF or a corrupt-block rejection: the shard is dead from
//     that stripe on and is never read again, so the consumer brings a
//     spare in or reconstructs from parity. A stream that broke
//     mid-block has lost its place; reading it again could only delay
//     the spare.
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
// behind the same Breaker, judged against the other shard reads of the
// same request, and simply stops handing the slow node's shard to the
// Group.
//
// All Group methods are intended for a single consumer goroutine (the
// decoder's producer). A Stripe belongs to one goroutine at a time: the
// consumer may hand it on, and whoever holds it last calls Release.
//
// Block buffers belong to the process, not to a Group: the package's
// one allocator (GetBuffer, PutBuffer) hands every Group its blocks and
// takes them back on Release, under one idle-byte budget, IdleBudget.
// The stream pipelines draw their spare, rebuilt and stripe buffers from
// it too, so a pipeline is cheap to build per request.
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

	// HedgeAfter enables hedged reads when positive: it is both the
	// switch and the floor of the adaptive deadline, so scheduling
	// noise on fast in-memory reads cannot trigger spurious hedges.
	// Zero disables hedging (and the circuit breaker with it): every
	// stripe waits for all live shards, however slow.
	HedgeAfter time.Duration

	// Clock, when non-nil, replaces the wall clock for deadlines,
	// breaker cooldowns and latency measurement — the determinism seam
	// for tests (vclock.Fake). Nil means the real clock and changes
	// nothing.
	Clock vclock.Clock

	// Metrics, when non-nil, is the registry the group publishes its
	// scheduling telemetry into: the adaptive-deadline gauge, the
	// breaker-trip counter and the dropped late-block counter
	// (shardio_* series). Nil disables registration; the group still
	// works and Stripe counters are unaffected.
	Metrics *obs.Registry
}

// Validate reports the first field NewGroup would refuse. NewGroup
// applies it itself; it is exported so a wrapper that builds groups
// later can surface the error at its own construction time.
func (o Options) Validate() error {
	switch {
	case o.BlockSize <= 0:
		return fmt.Errorf("shardio: BlockSize %d must be positive", o.BlockSize)
	case o.HedgeAfter < 0:
		return fmt.Errorf("shardio: HedgeAfter %v must not be negative", o.HedgeAfter)
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
	// StateDead: a read of the shard failed — any error but a clean
	// EOF at a block boundary or a corrupt block, a ragged mid-block
	// EOF included — and it is retired for the rest of the stream.
	StateDead
	// StateSlow: the shard is alive but missed the stripe's adaptive
	// deadline (or is still serving an earlier stripe). Its block
	// still counts if it lands during a later Fill or Await of this
	// stripe; one that lands once the stripe has moved on is recycled.
	StateSlow
	// StateOpen: the shard's circuit breaker is open; the group did
	// not ask it for this stripe at all.
	StateOpen
	// StateCorrupt: the block arrived but its reader rejected its bytes
	// (an error with Corrupt() == true); an erasure for this stripe
	// only — the shard serves the next one.
	StateCorrupt
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
	case StateCorrupt:
		return "corrupt"
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

// corrupter matches the error a reader returns, having consumed a whole
// block, for a block whose bytes fail their check (the stream layer's
// CRC-32C trailer): the block is an erasure, the shard lives on.
type corrupter interface{ Corrupt() bool }

func isCorrupt(err error) bool {
	if err == nil {
		return false // every healthy block asks: no errors.As, no allocation
	}
	var c corrupter
	return errors.As(err, &c) && c.Corrupt()
}

// IdleBudget is the process's one bound on idle buffers: the bytes the
// allocator's free lists hold, every size together. The three
// per-pipeline pools it replaced held 21 MiB between them after the
// benchmark's put_8m, 26 MiB after get_8m and 16 MiB after small_mixed;
// idle bytes are live heap the GC paces itself by, so the budget is the
// least of the three — what a workload last used stays, and a burst
// does not become a permanent reservation (DESIGN.md, "Pool shape").
const IdleBudget = 16 << 20

// buffers is the process's one buffer allocator. Every buffer the data
// path recycles — a Group's shard blocks, a decoder's reconstruct
// spares, a rebuilder's output blocks, an encoder's lent stripes — comes
// from GetBuffer and goes back through PutBuffer, so buffers outlive the
// pipelines that use them and a pipeline holds nothing worth keeping.
//
// It keeps one free list per exact buffer size under one mutex, rather
// than a sync.Pool: Put-ing a []byte into a sync.Pool heap-allocates a
// *[]byte box every cycle, and whatever a sync.Pool holds — its victim
// generation included — is live heap when the next heap goal is set.
// Idle bytes never exceed IdleBudget: a returned buffer that would push
// them past it first drops the least recently returned idle buffers,
// whatever their size, so a workload that shifts from one size to
// another refills the budget with what it uses now. A size whose list
// runs dry leaves no entry behind (sizes come from stored headers, which
// anyone may have written); its emptied list is kept, without its size,
// for the next size to need one, so a size that comes and goes does not
// allocate a list each time.
var buffers struct {
	mu      sync.Mutex
	idle    int               // bytes held, every list together
	clock   uint64            // PutBuffer calls so far: the return stamp
	lists   map[int]*freeList // by buffer size; never an empty list
	emptied []*freeList       // lists that ran dry, at most maxEmptied
}

// maxEmptied bounds the emptied lists kept for reuse: enough for the
// block and stripe sizes of the few rungs a workload cycles through.
const maxEmptied = 16

type freeList struct {
	bufs []idleBuffer // oldest first
}

type idleBuffer struct {
	b        []byte
	returned uint64
}

// GetBuffer returns a size-byte buffer: the most recently returned idle
// one of that size, or a new one. Its contents are whatever its last
// user left. Safe for concurrent use.
func GetBuffer(size int) []byte {
	buffers.mu.Lock()
	if l := buffers.lists[size]; l != nil {
		n := len(l.bufs) - 1
		b := l.bufs[n].b
		l.bufs[n] = idleBuffer{}
		l.bufs = l.bufs[:n]
		buffers.idle -= size
		if n == 0 {
			retire(size, l)
		}
		buffers.mu.Unlock()
		return b
	}
	buffers.mu.Unlock()
	return make([]byte, size)
}

// PutBuffer returns a buffer GetBuffer handed out, at whatever length it
// was resliced to from its start; the caller must not touch it again. A
// buffer larger than IdleBudget is left to the GC. Safe for concurrent
// use.
func PutBuffer(b []byte) {
	b = b[:cap(b)]
	size := len(b)
	if size == 0 || size > IdleBudget {
		return
	}
	buffers.mu.Lock()
	defer buffers.mu.Unlock()
	for buffers.idle+size > IdleBudget {
		evictOldest()
	}
	l := buffers.lists[size]
	if l == nil {
		if n := len(buffers.emptied); n > 0 {
			l = buffers.emptied[n-1]
			buffers.emptied = buffers.emptied[:n-1]
		} else {
			l = new(freeList)
		}
		if buffers.lists == nil {
			buffers.lists = make(map[int]*freeList)
		}
		buffers.lists[size] = l
	}
	buffers.clock++
	l.bufs = append(l.bufs, idleBuffer{b, buffers.clock})
	buffers.idle += size
}

// evictOldest drops the least recently returned idle buffer. Callers
// hold buffers.mu and know one is idle.
func evictOldest() {
	var oldest *freeList
	for _, l := range buffers.lists {
		if oldest == nil || l.bufs[0].returned < oldest.bufs[0].returned {
			oldest = l
		}
	}
	size := len(oldest.bufs[0].b)
	oldest.bufs[0] = idleBuffer{}
	oldest.bufs = oldest.bufs[1:]
	buffers.idle -= size
	if len(oldest.bufs) == 0 {
		retire(size, oldest)
	}
}

// retire removes size's emptied list. Callers hold buffers.mu.
func retire(size int, l *freeList) {
	delete(buffers.lists, size)
	if len(buffers.emptied) < maxEmptied {
		l.bufs = l.bufs[:0]
		buffers.emptied = append(buffers.emptied, l)
	}
}

// IdleBuffers reports what the allocator holds idle: a count of buffers
// per buffer size.
func IdleBuffers() map[int]int {
	buffers.mu.Lock()
	defer buffers.mu.Unlock()
	idle := make(map[int]int, len(buffers.lists))
	for size, l := range buffers.lists {
		idle[size] = len(l.bufs)
	}
	return idle
}

// Stripe is the outcome of one Group.Next gather: per-shard blocks and
// dispositions plus the counters the stripe accrued.
type Stripe struct {
	Seq int64
	// Blocks holds the full BlockSize-byte block per StateOK shard,
	// nil otherwise. Slices come from GetBuffer and are valid until
	// Release.
	Blocks [][]byte
	// States is each shard's disposition this stripe.
	States []ShardState
	// Errs carries the terminal error for StateDead shards (every
	// stripe from the one it died on).
	Errs []error
	// Hedged reports that the stripe proceeded without at least one
	// live shard that missed the adaptive deadline.
	Hedged bool
	// Trips counts circuit-breaker trips (first trips and half-open
	// re-trips) during this gather.
	Trips uint64
	// Panics counts shard-reader panics recovered during this gather;
	// the affected shards surface as StateDead with a *PanicError.
	Panics uint64

	home *sync.Pool // the Group's stripe pool; Release returns st here
}

// Release recycles every buffer the stripe owns and returns the stripe
// to its group's pool. The stripe and its slices must not be used
// afterwards. Release is idempotent.
func (st *Stripe) Release() {
	home := st.home
	if home == nil {
		return
	}
	for i, b := range st.Blocks {
		if b != nil {
			PutBuffer(b)
			st.Blocks[i] = nil
		}
	}
	st.home = nil
	home.Put(st)
}
