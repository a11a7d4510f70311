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
// blocks recover the stripe. It is internal/rs's Code, the one codec
// the streaming pipeline, the shard files and the cluster run on. Safe
// for concurrent use.
type Codec = rs.Code

// NewCodec constructs an RS(k+m, k) codec (Cauchy generator matrix).
func NewCodec(k, m int) (*Codec, error) { return rs.New(k, m) }

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

// StreamOptions configures a streaming pipeline; its Codec is a
// *Codec. Every shard block carries a CRC-32C trailer, computed in the
// same sweep as the parity and verified on decode; the Checksum field
// has no other value to take. Straggler tolerance on decode — hedged
// degraded reads and per-shard circuit breakers — has one switch,
// HedgeAfter (off until set), and fixed constants behind it. A shard
// whose read fails is retired at once and never read again.
type StreamOptions = stream.Options

// StreamStats is a snapshot of pipeline counters: stripes, bytes
// in/out, reconstruction and integrity counts (ShardsCorrupted,
// StripesHealed), and straggler-tolerance counts (HedgedReads,
// HedgeWins, BreakerTrips, WorkerPanics). Per-stripe codec latency is
// the stream_stripe_latency_us histogram of StreamOptions.Metrics.
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
// including the encoder's tail padding. Every shard reader that is an
// io.Closer is closed when it returns.
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
// StreamOptions.Metrics. The registry renders in the Prometheus text
// exposition format via its Expose method; `dialga-node` mounts it at
// /metrics.

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
