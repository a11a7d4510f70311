// Package stream is a concurrent, streaming erasure-coding pipeline
// over the repository's byte-level codecs.
//
// The whole-buffer API (rs.Code, lrc.Code) encodes one stripe at a
// time on the calling goroutine and requires the entire payload in
// memory. This package chunks an io.Reader into fixed-size stripes,
// fans the stripes out to a worker pool, encodes each with the fused
// word-parallel GF(2^8) kernels (internal/gf), and emits the resulting
// shards through an
// order-preserving bounded in-flight window, so arbitrarily large
// inputs are processed in O(stripe) memory with all cores busy.
//
// Both directions are provided:
//
//   - Encoder: io.Reader -> k+m per-shard io.Writers (Encode), or
//     each encoded stripe lent by reference (EncodeStripes)
//   - Decoder: k+m per-shard io.Readers (nil or failing entries
//     tolerated, up to m per stripe) -> io.Writer
//
// Stripe buffers are pooled, cancellation is by
// context.Context, and the first error from any stage cancels the
// pipeline and drains the workers before returning. Per-pipeline
// counters (stripes, bytes in/out, stripe latency histogram) are
// available via Stats().
package stream

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"dialga/internal/lrc"
	"dialga/internal/obs"
	"dialga/internal/shardio"
	"dialga/internal/vclock"
)

// DefaultStripeSize is the data payload per stripe when
// Options.StripeSize is zero: 1 MiB, large enough to amortize
// per-stripe scheduling, small enough that a deep window stays cheap.
const DefaultStripeSize = 1 << 20

// crcSize is the per-block checksum trailer width: one little-endian
// CRC-32C word. Checksums come from internal/gf (gf.CRC32C), the same
// primitive the fused encode+CRC sweep folds per tile, so trailers are
// identical whichever path produced them.
const crcSize = 4

// Checksum selects the per-block integrity trailer the pipeline
// appends on encode and verifies on decode.
type Checksum int

const (
	// ChecksumCRC32C appends a 4-byte little-endian CRC-32C
	// (Castagnoli) over each shard block. It is the zero value:
	// pipelines detect and self-heal silent corruption by default.
	ChecksumCRC32C Checksum = iota
	// ChecksumNone emits bare shard blocks — the legacy (v2 shard
	// header) framing. The decoder then has no way to detect wrong
	// bytes; only reader errors and early EOFs demote shards.
	ChecksumNone
)

func (c Checksum) String() string {
	switch c {
	case ChecksumCRC32C:
		return "crc32c"
	case ChecksumNone:
		return "none"
	default:
		return fmt.Sprintf("checksum(%d)", int(c))
	}
}

// trailerSize is the number of trailer bytes appended to every shard
// block under this checksum.
func (c Checksum) trailerSize() int {
	if c == ChecksumCRC32C {
		return crcSize
	}
	return 0
}

// ErrTooManyCorrupt reports a stripe left with fewer than k usable
// shard blocks once corrupt (checksum-failed), unreadable, and missing
// shards are discounted. The decoder returns it — wrapped with the
// stripe number — instead of ever emitting unverified bytes.
var ErrTooManyCorrupt = errors.New("stream: too many corrupt or missing shard blocks in stripe")

// Codec is the stripe-level erasure codec the pipeline drives: k data
// shards in, m parity shards out, and reconstruction of a k+m stripe
// with nil entries for missing shards. *rs.Code and the public
// dialga.Codec satisfy it directly; wrap an LRC code with WrapLRC.
// Implementations must be safe for concurrent use.
type Codec interface {
	K() int
	M() int
	Encode(data, parity [][]byte) error
	Reconstruct(blocks [][]byte) error
}

// dataReconstructor is the optional fast path for decoding: rebuild
// only the data shards, skipping parity. *rs.Code implements it.
// Implementations must honour the spare-buffer contract — a zero-length
// entry with capacity is "missing, rebuild in place" — which lets the
// decoder hand out pooled output buffers instead of allocating per
// stripe.
type dataReconstructor interface {
	ReconstructData(blocks [][]byte) error
}

// sumEncoder is the optional fused encode+CRC fast path: a single
// cache-tiled sweep produces the parity blocks and the CRC-32C of all
// k+m blocks, folded per 4 KiB tile while the data is L1-resident.
// *rs.Code and the public dialga.Codec implement it. The sums must be
// byte-for-byte what gf.CRC32C would return over each full block.
type sumEncoder interface {
	EncodeSumInto(sums []uint32, data, parity [][]byte) error
}

// WrapLRC adapts an LRC(k, m, l) code to the pipeline Codec: the
// m global and l local parities are flattened into M() = m+l parity
// shards in stripe order (global first), matching lrc.Code's stripe
// layout.
func WrapLRC(c *lrc.Code) Codec { return lrcCodec{c} }

type lrcCodec struct{ c *lrc.Code }

func (w lrcCodec) K() int { return w.c.K() }
func (w lrcCodec) M() int { return w.c.M() + w.c.L() }

func (w lrcCodec) Encode(data, parity [][]byte) error {
	m := w.c.M()
	return w.c.Encode(data, parity[:m], parity[m:])
}

func (w lrcCodec) Reconstruct(blocks [][]byte) error { return w.c.Reconstruct(blocks) }

// Options configures a pipeline. The zero value of every field except
// Codec is usable: defaults are filled in by NewEncoder/NewDecoder.
type Options struct {
	// Codec encodes and reconstructs stripes. Required.
	Codec Codec

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

	// Checksum selects the per-block integrity trailer. The zero
	// value is ChecksumCRC32C; pass ChecksumNone to read or write the
	// legacy trailer-less framing.
	Checksum Checksum

	// HedgeAfter enables hedged degraded reads on decode when
	// positive: a shard that misses the stripe's adaptive deadline
	// (derived from the fleet-median block-read latency) while at
	// least k blocks have arrived is demoted to slow, and the stripe
	// reconstructs around it immediately while the slow read continues
	// in the background — first finisher wins. HedgeAfter is also the
	// deadline floor. Zero (the default) disables hedging and the
	// circuit breaker: every stripe waits for all live shards. It is the
	// one straggler switch; the deadline ratio, retry budget and breaker
	// schedule behind it are shardio's constants.
	HedgeAfter time.Duration

	// Seed makes retry jitter (and fault-injection schedules layered
	// underneath) reproducible.
	Seed uint64

	// CloseReaders, on decode, closes every shard reader that
	// implements io.Closer when Decode returns — including readers a
	// hedged stripe abandoned mid-Read. Network sources (HTTP response
	// bodies) need this: without it a decoder that reconstructed
	// around a straggler would leak the straggler's connection until
	// its read happened to finish. The readers' Close must be safe to
	// call concurrently with a blocked Read (http.Response.Body is);
	// that is exactly how a stuck remote read gets unblocked promptly.
	CloseReaders bool

	// Metrics, when non-nil, is the observability registry the
	// pipeline registers its counter/gauge/histogram series in
	// (stream_* series labelled by pipeline direction, shardio_*
	// series for the decoder's shard scheduler); Stats() snapshots
	// read from those live series, and `dialga-node` exposes the
	// registry at /metrics. Nil keeps the historical behaviour: a
	// private registry per pipeline, observable only through Stats().
	// Pipelines sharing a registry accumulate into the same series.
	Metrics *obs.Registry

	// Trace, when non-nil, records a lifecycle span per stripe (read →
	// verify → reconstruct → emit on decode, read → encode → emit on
	// encode, annotated with hedge/breaker/heal decisions) into the
	// tracer's ring buffer (obs.Tracer.Handler serves it as JSON). Nil
	// disables tracing at zero cost.
	Trace *obs.Tracer

	// Readahead is the per-shard readahead depth on decode:
	// each shard goroutine speculatively reads up to this many blocks
	// past its last request while idle, so a request for a buffered
	// block completes without touching the device. Zero (the default)
	// disables prefetching.
	Readahead int

	// Clock, when non-nil, replaces the wall clock for every
	// time-driven decision (hedge deadlines, breaker cooldowns, retry
	// backoff, latency stamps) — the determinism seam tests use. Nil
	// means time.Now.
	Clock vclock.Clock
}

// geom is a validated, defaulted view of Options.
type geom struct {
	codec      Codec
	k, m       int
	shardSize  int // data bytes per shard per stripe
	stripeSize int // k * shardSize
	workers    int
	checksum   Checksum
	trailer    int             // trailer bytes per shard block (0 or crcSize)
	blockSize  int             // shardSize + trailer: bytes on the wire per shard per stripe
	fused      sumEncoder      // non-nil: encoder uses the single-pass encode+CRC sweep
	straggler  shardio.Options // validated shard-I/O scheduling config (decoder)
	closeRead  bool            // close closable shard readers when Decode returns
	metrics    *obs.Registry   // nil: each pipeline gets a private registry
	trace      *obs.Tracer     // nil: tracing off
	clock      vclock.Clock    // nil: wall clock
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
	if o.Checksum != ChecksumCRC32C && o.Checksum != ChecksumNone {
		return geom{}, fmt.Errorf("stream: unknown Checksum %d", o.Checksum)
	}
	trailer := o.Checksum.trailerSize()
	var fused sumEncoder
	if se, ok := o.Codec.(sumEncoder); ok && trailer > 0 {
		// Fusion only pays when trailers are wanted: without checksums
		// the plain Encode sweep already does all the work there is.
		fused = se
	}
	straggler := shardio.Options{
		BlockSize:  shard + trailer,
		Quorum:     k,
		HedgeAfter: o.HedgeAfter,
		Seed:       o.Seed,
		Metrics:    o.Metrics,
		Readahead:  o.Readahead,
		Clock:      o.Clock,
	}
	if err := straggler.Validate(); err != nil {
		return geom{}, err
	}
	return geom{
		codec:      o.Codec,
		k:          k,
		m:          m,
		shardSize:  shard,
		stripeSize: shard * k,
		workers:    workers,
		checksum:   o.Checksum,
		trailer:    trailer,
		blockSize:  shard + trailer,
		fused:      fused,
		straggler:  straggler,
		closeRead:  o.CloseReaders,
		metrics:    o.Metrics,
		trace:      o.Trace,
		clock:      o.Clock,
	}, nil
}

// shardViews slices buf into n consecutive shardSize-byte views
// without copying. The views alias buf (the same deliberate aliasing
// rs.Split performs on full-length inputs); the pipeline owns its
// pooled buffers, so the aliasing never escapes to callers.
func shardViews(buf []byte, n, shardSize int) [][]byte {
	return shardViewsInto(make([][]byte, 0, n), buf, n, shardSize)
}

// shardViewsInto is shardViews writing into caller scratch: jobs keep
// their view slices across pool cycles so the per-stripe hot path
// re-slices instead of allocating.
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
