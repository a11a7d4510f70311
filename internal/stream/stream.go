// Package stream is a concurrent, streaming erasure-coding pipeline
// over the repository's byte-level codecs.
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
// Stripe and block buffers come from shardio's process-wide allocator,
// not from the pipeline, so pipelines are cheap to build per request;
// cancellation is by
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

	"dialga/internal/obs"
	"dialga/internal/shardio"
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

// Codec is the stripe-level erasure codec the pipeline drives, and
// exactly the calls it makes. *rs.Code and the public dialga.Codec
// satisfy it. Implementations must be safe for concurrent use.
//
//   - EncodeSumInto fills the m parity blocks from the k data blocks
//     and writes the CRC-32C of all k+m blocks into sums, in one
//     cache-tiled sweep that checksums each tile while it is still
//     L1-resident (the paper's fused pass). The sums must be what
//     gf.CRC32C returns over each full block.
//   - ReconstructData rebuilds the missing data blocks of a k+m stripe
//     in place, skipping parity. A zero-length entry with capacity
//     means "missing, rebuild into me", which lets the decoder hand out
//     pooled output buffers instead of allocating per stripe.
type Codec interface {
	K() int
	M() int
	EncodeSumInto(sums []uint32, data, parity [][]byte) error
	ReconstructData(blocks [][]byte) error
}

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

	// Checksum must be ChecksumCRC32C, its zero value: every block
	// carries a CRC-32C trailer. The field is declared only because the
	// benchmark's ladder (bench/ladder.go) sets it; NewEncoder,
	// NewDecoder and NewRebuilder reject any other value.
	Checksum Checksum

	// HedgeAfter enables hedged degraded reads on decode when
	// positive: a shard that misses the stripe's adaptive deadline
	// (derived from the fleet-median block-read latency) is demoted to
	// slow; with k blocks in hand the stripe reconstructs around it
	// immediately, and the slow read's block is recycled when it lands;
	// with fewer, a read that has a SpareFunc brings a spare in.
	// HedgeAfter is also the deadline floor. Zero (the default) disables
	// hedging and the circuit breaker: every stripe waits for all live
	// shards. It is the one straggler switch; the deadline ratio and
	// breaker schedule behind it are shardio's constants.
	HedgeAfter time.Duration

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

	// Clock, when non-nil, replaces the wall clock for every
	// time-driven decision (hedge deadlines, breaker cooldowns, latency
	// stamps) — the determinism seam tests use. Nil means time.Now.
	Clock vclock.Clock
}

// geom is a validated, defaulted view of Options.
type geom struct {
	codec      Codec
	k, m       int
	shardSize  int // data bytes per shard per stripe
	stripeSize int // k * shardSize
	workers    int
	blockSize  int             // shardSize + crcSize: bytes on the wire per shard per stripe
	straggler  shardio.Options // validated shard-I/O scheduling config (decoder)
	closeRead  bool            // close closable shard readers when Decode returns
	metrics    *obs.Registry   // nil: each pipeline gets a private registry
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
	if o.Checksum != ChecksumCRC32C {
		return geom{}, fmt.Errorf("stream: unknown Checksum %d: CRC-32C is the only block trailer", o.Checksum)
	}
	straggler := shardio.Options{
		BlockSize:  shard + crcSize,
		HedgeAfter: o.HedgeAfter,
		Metrics:    o.Metrics,
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
		blockSize:  shard + crcSize,
		straggler:  straggler,
		closeRead:  o.CloseReaders,
		metrics:    o.Metrics,
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
