// Package dialga is the public facade of the DIALGA reproduction: a Go
// implementation of "Accelerating Erasure Coding on Persistent Memory
// via Adaptive Prefetcher Scheduling" (ICPP '25).
//
// The repository contains two halves:
//
//   - a real, usable Reed-Solomon erasure-coding library over GF(2^8),
//     exposed here via Codec and the streaming pipeline;
//   - a cycle-level simulation of the paper's testbed (CPU caches, L2
//     stream prefetcher, Optane-style persistent memory) on which the
//     DIALGA scheduler and every baseline run — exposed here via
//     Reproduce and the dialga-bench command.
//
// On top of the library sits a networked shard service: internal/node
// (HTTP shard server speaking the on-disk shard format), internal/cluster
// (rack/zone-aware placement, read routing, per-class admission, the
// object gateway, and the background repair queue), and cmd/dialga-node
// (the combined daemon). See DESIGN.md and README.md "Running a cluster".
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record.
package dialga

import (
	"context"
	"io"

	"dialga/internal/harness"
	"dialga/internal/obs"
	"dialga/internal/rs"
	"dialga/internal/stream"
)

// Codec is a systematic Reed-Solomon RS(k+m, k) erasure codec over
// GF(2^8): k data blocks produce m parity blocks; any k of the k+m
// blocks recover the stripe. Safe for concurrent use.
type Codec struct {
	code *rs.Code
}

// NewCodec constructs an RS(k+m, k) codec (Cauchy generator matrix).
func NewCodec(k, m int) (*Codec, error) {
	c, err := rs.New(k, m)
	if err != nil {
		return nil, err
	}
	return &Codec{code: c}, nil
}

// K returns the number of data blocks per stripe.
func (c *Codec) K() int { return c.code.K() }

// M returns the number of parity blocks per stripe.
func (c *Codec) M() int { return c.code.M() }

// Encode fills parity (m equally sized blocks) from data (k blocks).
func (c *Codec) Encode(data, parity [][]byte) error { return c.code.Encode(data, parity) }

// EncodeAppend allocates and returns the parity blocks for data.
func (c *Codec) EncodeAppend(data [][]byte) ([][]byte, error) { return c.code.EncodeAppend(data) }

// EncodeSum is the fused single-pass variant of Encode: it fills
// parity and returns the CRC-32C (Castagnoli) of every block — k data
// sums then m parity sums — folded tile-by-tile during the encode
// sweep while each tile is still cache-resident, instead of a second
// pass over all k+m blocks.
func (c *Codec) EncodeSum(data, parity [][]byte) ([]uint32, error) {
	return c.code.EncodeSum(data, parity)
}

// EncodeSumInto is EncodeSum writing the k+m checksums into
// caller-provided sums; it allocates nothing. The streaming encoder
// computes every stripe's parity and checksum trailers with it.
func (c *Codec) EncodeSumInto(sums []uint32, data, parity [][]byte) error {
	return c.code.EncodeSumInto(sums, data, parity)
}

// ReconstructSum is Reconstruct with fused checksums: rebuilt blocks
// additionally get their CRC-32C written to the matching entries of
// sums (len k+m); entries for blocks that were already present are
// left untouched.
func (c *Codec) ReconstructSum(blocks [][]byte, sums []uint32) error {
	return c.code.ReconstructSum(blocks, sums)
}

// Reconstruct repairs a stripe in place: blocks holds k+m entries in
// stripe order with nil for missing blocks (at most m may be nil).
func (c *Codec) Reconstruct(blocks [][]byte) error { return c.code.Reconstruct(blocks) }

// Verify reports whether parity is consistent with data.
func (c *Codec) Verify(data, parity [][]byte) (bool, error) { return c.code.Verify(data, parity) }

// ReconstructData repairs only the data blocks of a stripe in place,
// skipping parity rebuilds — the fast path for serving reads from a
// degraded stripe. The streaming decoder reconstructs with it.
func (c *Codec) ReconstructData(blocks [][]byte) error { return c.code.ReconstructData(blocks) }

// Split partitions a byte stream into exactly k equally sized shards
// (zero-padded tail) suitable for Codec.Encode. Shards that fit
// entirely inside data alias its storage — mutating them mutates the
// input. Use SplitCopy when the shards are modified independently.
func Split(data []byte, k int) ([][]byte, error) { return rs.Split(data, k) }

// SplitCopy is Split with every shard freshly allocated: the returned
// shards never alias data.
func SplitCopy(data []byte, k int) ([][]byte, error) { return rs.SplitCopy(data, k) }

// Join reassembles the original stream of the given length from the k
// data shards produced by Split.
func Join(shards [][]byte, size int) ([]byte, error) { return rs.Join(shards, size) }

// Streaming pipeline — see internal/stream. The pipeline chunks an
// io.Reader into stripes, encodes them on a worker pool, and emits
// shards through an order-preserving bounded window, so files of any
// size are processed in O(stripe) memory.

// StreamOptions configures a streaming pipeline. StreamOptions.Codec
// accepts a *Codec directly. Every shard block carries a CRC-32C
// trailer, computed in the same sweep as the parity and verified on
// decode; the Checksum field has no other value to take. Straggler
// tolerance on decode — hedged degraded reads, seeded retries of
// transient errors, per-shard circuit breakers — has one switch,
// HedgeAfter (off until set; retries are always on), and fixed
// constants behind it.
type StreamOptions = stream.Options

// StreamCodec is the stripe-level codec interface the pipeline drives:
// exactly the calls it makes (K, M, EncodeSumInto, ReconstructData).
// *Codec satisfies it.
type StreamCodec = stream.Codec

// StreamStats is a snapshot of pipeline counters: stripes, bytes
// in/out, reconstruction and integrity counts (ShardsCorrupted,
// StripesHealed, TransientFaults), straggler-tolerance counts
// (HedgedReads, HedgeWins, BreakerTrips, Retries, WorkerPanics), and a
// stripe-latency histogram.
type StreamStats = stream.Stats

// StreamPanicError is a panic recovered from a pipeline or shard-reader
// goroutine, surfaced as an ordinary error (and counted in
// StreamStats.WorkerPanics) instead of crashing the process.
type StreamPanicError = stream.PanicError

// ErrTooManyCorrupt is returned (wrapped, with stripe context) when a
// stripe has fewer than k usable shard blocks after corrupt, missing,
// and failed shards are discounted; the decoder never emits
// unverified bytes instead.
var ErrTooManyCorrupt = stream.ErrTooManyCorrupt

// StreamEncoder is a reusable streaming erasure encoder.
type StreamEncoder = stream.Encoder

// StreamDecoder is a reusable streaming erasure decoder.
type StreamDecoder = stream.Decoder

// NewStreamEncoder validates opts and returns a streaming encoder.
func NewStreamEncoder(opts StreamOptions) (*StreamEncoder, error) { return stream.NewEncoder(opts) }

// NewStreamDecoder validates opts and returns a streaming decoder.
func NewStreamDecoder(opts StreamOptions) (*StreamDecoder, error) { return stream.NewDecoder(opts) }

// StreamEncode pipes r through a concurrent encoding pipeline, writing
// shard i of every stripe to shards[i] (k data writers then m parity
// writers). It returns the pipeline counters alongside any error.
func StreamEncode(ctx context.Context, opts StreamOptions, r io.Reader, shards []io.Writer) (StreamStats, error) {
	enc, err := stream.NewEncoder(opts)
	if err != nil {
		return StreamStats{}, err
	}
	err = enc.Encode(ctx, r, shards)
	return enc.Stats(), err
}

// StreamDecode reconstructs the original stream from k+m shard readers
// (nil entries and mid-stream failures tolerated, up to m per stripe)
// and writes exactly size bytes to w; size < 0 decodes until EOF,
// including the encoder's tail padding.
func StreamDecode(ctx context.Context, opts StreamOptions, shards []io.Reader, w io.Writer, size int64) (StreamStats, error) {
	dec, err := stream.NewDecoder(opts)
	if err != nil {
		return StreamStats{}, err
	}
	err = dec.Decode(ctx, shards, w, size)
	return dec.Stats(), err
}

// Observability — see internal/obs. Pipelines register their counters,
// gauges, and latency histograms in a MetricsRegistry set on
// StreamOptions.Metrics, and record per-stripe lifecycle spans into a
// StreamTracer set on StreamOptions.Trace. The registry renders in the
// Prometheus text exposition format via its Expose method;
// `dialga-node` mounts it at /metrics.

// MetricsRegistry is an atomic metrics registry: counters, gauges, and
// log-linear histograms addressable by name + labels, rendered in
// Prometheus text format with Expose. All methods are safe for
// concurrent use, and all methods on a nil registry (and on nil
// metrics obtained from one) are no-ops.
type MetricsRegistry = obs.Registry

// MetricLabel is one name/value label pair qualifying a metric series.
type MetricLabel = obs.Label

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// StreamTracer records per-stripe lifecycle spans (read →
// reconstruct → emit, annotated with spare/hedge/breaker decisions)
// into a fixed-capacity ring; Snapshot and WriteJSON read it back,
// newest first.
type StreamTracer = obs.Tracer

// StreamSpan is one traced stripe lifecycle.
type StreamSpan = obs.Span

// NewStreamTracer returns a tracer retaining the last capacity spans
// (DefaultTraceCapacity when capacity <= 0).
func NewStreamTracer(capacity int) *StreamTracer { return obs.NewTracer(capacity) }

// DefaultTraceCapacity is the span-ring size NewStreamTracer applies
// when none is given.
const DefaultTraceCapacity = obs.DefaultTraceCapacity

// Figure is a reproduced paper figure; see internal/harness.
type Figure = harness.Figure

// FigureIDs lists the reproducible paper figures in order.
func FigureIDs() []string { return append([]string(nil), harness.FigureIDs...) }

// Reproduce regenerates one paper figure on the simulated testbed.
// Quick trims working sets and sweeps for smoke runs; full runs are
// what EXPERIMENTS.md records.
func Reproduce(figureID string, quick bool) (*Figure, error) {
	r := &harness.Runner{Quick: quick}
	return r.ByID(figureID)
}
