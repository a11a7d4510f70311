// Package stream is a concurrent, streaming erasure-coding pipeline
// over internal/rs.
//
// The whole-buffer API (rs.Code) encodes one stripe at a time on the
// calling goroutine and requires the entire payload in memory. This
// package chunks an io.Reader into fixed-size stripes, fans the stripes
// out to a worker pool, encodes and checksums each in one fused sweep
// of the word-parallel GF(2^8) kernels (internal/gf), and emits the
// resulting shards through an order-preserving bounded in-flight
// window, so arbitrarily large inputs are processed in O(stripe) memory
// with all cores busy. Every shard block carries a CRC-32C trailer,
// which the decoder and the rebuilder verify.
//
// Both directions are provided:
//
//   - Encoder: io.Reader -> k+m per-shard io.Writers (Encode), or
//     each encoded stripe lent by reference (EncodeStripes)
//   - Decoder: k+m per-shard io.Readers (nil or failing entries
//     tolerated, up to m per stripe) -> io.Writer
//
// Cancellation is by context.Context, and the first error from any
// stage cancels the pipeline and drains the workers before returning.
// Per-pipeline counters (stripes, bytes in/out, stripe latency
// histogram) are available via Stats().
//
// # Shard reads
//
// A plain decoder that read one block per stripe from every shard in
// turn would let a single slow-but-alive reader drag every stripe down
// to its speed. Erasure coding makes "slow" a soft failure: any k of
// the k+m blocks recover the stripe, so a laggard can be treated as an
// erasure-for-now and reconstructed around — the stream-layer analogue
// of DIALGA's relative-latency trigger, which reacts to a shard running
// behind its peers rather than to hard errors only.
//
// A read (Decode, DecodeRange, Rebuild) therefore schedules its shard
// reads with a group: one goroutine per shard reader, and four rules on
// top of the raw io.Reader:
//
//   - Peer deadlines. Each stripe is judged against itself. Once it
//     has as many blocks in hand as reads still out — half its reads
//     back, so one fast block alone never judges it — the rest get
//     LateAfter of the in-hand blocks' latencies longer: lateMult times
//     their median, floored at Options.HedgeAfter and capped at 15 s.
//     Until then no read is late against its peers, and only the 15 s
//     cap ends the wait. A fleet that slows together moves its own
//     reference, so it is never late; a shard that hangs while its
//     peers deliver is; a stripe whose every read hangs goes ahead at
//     the cap.
//   - Hedged reads. A shard that misses the deadline is demoted to
//     slow for the stripe: the gather returns with the blocks in hand
//     while the slow read continues in the background, and whether
//     those suffice, or a spare must come in, is the consumer's call.
//     The stripe does not take the straggler's block afterwards: when
//     it lands, during a later gather, it is counted as dropped and
//     recycled. Taking it could save at most one reconstruction, on a
//     stripe that has already waited out the deadline.
//   - One read per block. A read error is terminal unless it is a
//     clean EOF or a block that fails its trailer: the shard is dead
//     from that stripe on and is never read again, so the consumer
//     brings a spare in or reconstructs from parity. A stream that
//     broke mid-block has lost its place; reading it again could only
//     delay the spare.
//   - Circuit breaking. Each shard sits behind a Breaker: five deadline
//     misses in a row and the group stops waiting for it entirely.
//     After a cooldown (doubling per trip) the next stripe issues a
//     probe read; an on-time probe closes the breaker, a miss re-opens
//     it with a longer cooldown.
//
// The numbers are constants (breaker.go), not options: the one switch
// is HedgeAfter. A shard goroutine skip-reads any blocks an open or
// slow period left behind before serving a request, so a shard
// re-admitted by a half-open probe is always stripe-aligned.
//
// A group remembers nothing past its read, and its hedge acts only
// above the HedgeAfter floor. At the cluster gateway's defaults — 256
// KiB blocks, a 30 ms floor — a node that adds a few milliseconds to
// every read makes a block cost ~5 ms: far behind its peers, far under
// the floor, so in-stream hedging never fires there. That regime is
// covered one layer up, by the gateway's cross-request node sidelining
// (internal/cluster, sideline.go), which puts each node behind the same
// Breaker, judged by the same LateAfter against the other shard reads
// of the same request, and simply stops handing the slow node's shard
// to the read.
//
// Block buffers belong to the process, not to a pipeline: the
// package's one allocator hands every read its blocks and every
// encoder its stripes, and takes them back, under one idle-byte
// budget, IdleBudget, so a pipeline is cheap to build per request.
package stream

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"dialga/internal/obs"
	"dialga/internal/rs"
	"dialga/internal/vclock"
)

// DefaultStripeSize is the data payload per stripe when
// Options.StripeSize is zero: 1 MiB, large enough to amortize
// per-stripe scheduling, small enough that a deep window stays cheap.
const DefaultStripeSize = 1 << 20

// crcSize is the per-block checksum trailer width: one little-endian
// CRC-32C word, what the codec's fused encode+CRC sweep folds per tile
// and gf.CRC32C computes over a whole block. Every block the pipeline
// writes or reads carries one.
const crcSize = 4

// Checksum names a per-block integrity trailer. There is one, CRC-32C,
// and Options.Checksum must be it; the type stays declared because the
// benchmark's ladder (bench/ladder.go) names it in its Options literal.
type Checksum int

const (
	// ChecksumCRC32C is the 4-byte little-endian CRC-32C (Castagnoli)
	// trailer behind every shard block, and the zero value.
	ChecksumCRC32C Checksum = iota
)

// ErrTooManyCorrupt reports a stripe left with fewer than k usable
// shard blocks once corrupt (checksum-failed), unreadable, and missing
// shards are discounted. The decoder returns it — wrapped with the
// stripe number — instead of ever emitting unverified bytes.
var ErrTooManyCorrupt = errors.New("stream: too many corrupt or missing shard blocks in stripe")

// Options configures a pipeline. The zero value of every field except
// Codec is usable: defaults are filled in by NewEncoder/NewDecoder.
type Options struct {
	// Codec encodes, reconstructs and rebuilds stripes. Required.
	Codec *rs.Code

	// StripeSize is the number of data bytes per stripe, rounded up
	// to a multiple of Codec.K() so shards stay equally sized.
	// Default DefaultStripeSize.
	StripeSize int

	// Workers is the number of encoding goroutines. Default
	// runtime.GOMAXPROCS(0). At most 2*Workers stripes are in flight
	// (read but not yet emitted) — the producer blocks once that window
	// is full, so memory stays O(Workers * StripeSize) regardless of
	// input size.
	Workers int

	// Checksum must be ChecksumCRC32C, its zero value: every block
	// carries a CRC-32C trailer. The field is declared only because the
	// benchmark's ladder (bench/ladder.go) sets it; NewEncoder,
	// NewDecoder and NewRebuilder reject any other value.
	Checksum Checksum

	// HedgeAfter enables hedged degraded reads on decode when
	// positive: a shard that misses its stripe's deadline (derived from
	// the latencies of the blocks that stripe has read, once half its
	// reads are back) is demoted to slow; with k blocks in hand the
	// stripe reconstructs around it immediately, and the slow read's
	// block is recycled when it lands; with fewer, a read that has a
	// SpareFunc brings a spare in.
	// HedgeAfter is also the deadline floor. Zero (the default) disables
	// hedging and the circuit breaker: every stripe waits for all live
	// shards. It is the one straggler switch; the deadline ratio and
	// breaker schedule behind it are the package's constants.
	HedgeAfter time.Duration

	// Metrics, when non-nil, is the observability registry the
	// pipeline registers its counter/gauge/histogram series in
	// (stream_* series labelled by pipeline direction, shardio_*
	// series for the reads' shard scheduling); Stats() snapshots
	// read from those live series, and `dialga-node` exposes the
	// registry at /metrics. Nil keeps the historical behaviour: a
	// private registry per pipeline, observable only through Stats().
	// Pipelines sharing a registry accumulate into the same series.
	Metrics *obs.Registry

	// Clock, when non-nil, replaces the wall clock for every
	// time-driven decision (hedge deadlines, breaker cooldowns, latency
	// stamps) — the determinism seam tests use. Nil means time.Now.
	Clock vclock.Clock
}

// geom is a validated, defaulted view of Options.
type geom struct {
	codec      *rs.Code
	k, m       int
	shardSize  int // data bytes per shard per stripe
	stripeSize int // k * shardSize
	workers    int
	blockSize  int           // shardSize + crcSize: bytes on the wire per shard per stripe
	hedgeAfter time.Duration // deadline floor of a read's shard group; 0: no hedging
	metrics    *obs.Registry // nil: each pipeline gets a private registry
	clock      vclock.Clock  // nil: wall clock
	shardio    shardioSeries // a read pipeline's group series; zero on an encoder
}

var errNoCodec = errors.New("stream: Options.Codec is required")

func (o Options) geometry() (geom, error) {
	if o.Codec == nil {
		return geom{}, errNoCodec
	}
	k, m := o.Codec.K(), o.Codec.M()
	if k <= 0 || m <= 0 {
		return geom{}, fmt.Errorf("stream: codec geometry k=%d m=%d invalid", k, m)
	}
	stripe := o.StripeSize
	if stripe == 0 {
		stripe = DefaultStripeSize
	}
	if stripe < 0 {
		return geom{}, fmt.Errorf("stream: StripeSize %d must be positive", stripe)
	}
	shard := (stripe + k - 1) / k
	workers := o.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 0 {
		return geom{}, fmt.Errorf("stream: Workers %d must be positive", workers)
	}
	if o.Checksum != ChecksumCRC32C {
		return geom{}, fmt.Errorf("stream: unknown Checksum %d: CRC-32C is the only block trailer", o.Checksum)
	}
	if o.HedgeAfter < 0 {
		return geom{}, fmt.Errorf("stream: HedgeAfter %v must not be negative", o.HedgeAfter)
	}
	return geom{
		codec:      o.Codec,
		k:          k,
		m:          m,
		shardSize:  shard,
		stripeSize: shard * k,
		workers:    workers,
		blockSize:  shard + crcSize,
		hedgeAfter: o.HedgeAfter,
		metrics:    o.Metrics,
		clock:      o.Clock,
	}, nil
}

// shardViewsInto slices buf into n consecutive shardSize-byte views
// without copying, writing them into caller scratch: jobs keep their
// view slices across pool cycles so the per-stripe hot path re-slices
// instead of allocating. The views alias buf; the pipeline owns its
// pooled buffers, so the aliasing never escapes to callers.
func shardViewsInto(views [][]byte, buf []byte, n, shardSize int) [][]byte {
	views = views[:0]
	for i := 0; i < n; i++ {
		views = append(views, buf[i*shardSize:(i+1)*shardSize:(i+1)*shardSize])
	}
	return views
}

// sliceN returns s resized to n zeroed elements, reallocating only
// when the capacity is short — pooled-job scratch management.
func sliceN[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
