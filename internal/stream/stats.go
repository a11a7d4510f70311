package stream

import (
	"time"

	"dialga/internal/obs"
)

// latencyBuckets is the number of stripe-latency buckets: 26 finite
// power-of-two buckets plus one overflow bucket. Bucket 0 covers
// [0, 1µs]; bucket i (1 <= i <= 25) covers (2^(i-1), 2^i] microseconds
// — upper bounds inclusive, matching the Prometheus `le` convention —
// and bucket 26 is everything above 2^25µs (~33s). An exact
// power-of-two latency therefore lands with its peers at the top of
// its bucket, not at the bottom of the one above (the pre-obs
// histogram got this boundary wrong).
const latencyBuckets = 27

// latencyBoundsUS returns the finite inclusive bucket upper bounds in
// microseconds: 2^0 .. 2^25.
func latencyBoundsUS() []float64 {
	bounds := make([]float64, latencyBuckets-1)
	for i := range bounds {
		bounds[i] = float64(uint64(1) << i)
	}
	return bounds
}

// counters is the statistics block of a pipeline, backed by series in
// an obs.Registry: every field is a live registry metric, and Stats is
// a snapshot view over them. Pipelines constructed without
// Options.Metrics get a private registry, preserving the historical
// per-pipeline counter semantics; pipelines sharing a registry share
// (and sum into) the same series per pipeline direction.
type counters struct {
	stripes, bytesIn, bytesOut, shardFailures, reconstructed *obs.Counter
	shardsCorrupted, stripesHealed, hedgedReads, hedgeWins   *obs.Counter
	breakerTrips, workerPanics                               *obs.Counter
	lat                                                      *obs.Histogram
}

// newCounters registers the pipeline counter set in reg (a private
// registry when reg is nil) under the given pipeline label ("encode"
// or "decode").
func newCounters(reg *obs.Registry, pipeline string) *counters {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	lbl := obs.Label{Key: "pipeline", Value: pipeline}
	return &counters{
		stripes: reg.Counter("stream_stripes_total",
			"Stripes fully emitted downstream.", lbl),
		bytesIn: reg.Counter("stream_bytes_in_total",
			"Payload bytes consumed from the input reader(s).", lbl),
		bytesOut: reg.Counter("stream_bytes_out_total",
			"Bytes written to the output writer(s), including parity on encode.", lbl),
		shardFailures: reg.Counter("stream_shard_failures_total",
			"Shard input streams that died mid-stream (decode).", lbl),
		reconstructed: reg.Counter("stream_reconstructed_total",
			"Stripes that needed erasure reconstruction (decode).", lbl),
		shardsCorrupted: reg.Counter("stream_shards_corrupted_total",
			"Shard blocks demoted to per-stripe erasures (decode).", lbl),
		stripesHealed: reg.Counter("stream_stripes_healed_total",
			"Stripes decoded correctly despite corrupt shard blocks (decode).", lbl),
		hedgedReads: reg.Counter("stream_hedged_reads_total",
			"Stripes that proceeded without a live shard that missed its deadline (decode).", lbl),
		hedgeWins: reg.Counter("stream_hedge_wins_total",
			"Hedged stripes decoded without at least one straggler's block (decode).", lbl),
		breakerTrips: reg.Counter("stream_breaker_trips_total",
			"Per-shard circuit-breaker trips, including half-open re-trips (decode).", lbl),
		workerPanics: reg.Counter("stream_worker_panics_total",
			"Panics recovered from pipeline stages and shard readers.", lbl),
		lat: reg.Histogram("stream_stripe_latency_us",
			"Per-stripe codec latency (encode or reconstruct time, excluding I/O).",
			latencyBoundsUS(), lbl),
	}
}

// observe records one stripe's codec latency.
func (c *counters) observe(d time.Duration) {
	c.lat.Observe(float64(d) / float64(time.Microsecond))
}

func (c *counters) snapshot() Stats {
	return Stats{
		Stripes:         c.stripes.Value(),
		BytesIn:         c.bytesIn.Value(),
		BytesOut:        c.bytesOut.Value(),
		ShardFailures:   c.shardFailures.Value(),
		Reconstructed:   c.reconstructed.Value(),
		ShardsCorrupted: c.shardsCorrupted.Value(),
		StripesHealed:   c.stripesHealed.Value(),
		HedgedReads:     c.hedgedReads.Value(),
		HedgeWins:       c.hedgeWins.Value(),
		BreakerTrips:    c.breakerTrips.Value(),
		WorkerPanics:    c.workerPanics.Value(),
	}
}

// Stats is a point-in-time snapshot of a pipeline's counters, safe to
// read while the pipeline runs. Since the obs migration the fields are
// views over registry series (see Options.Metrics); their meaning and
// the snapshot semantics are unchanged.
type Stats struct {
	// Stripes is the number of stripes fully emitted downstream.
	Stripes uint64
	// BytesIn counts payload bytes consumed from the input reader(s).
	BytesIn uint64
	// BytesOut counts bytes written to the output writer(s),
	// including parity on encode.
	BytesOut uint64
	// ShardFailures counts shard input streams that died mid-stream
	// (decoder only): read errors of any kind, and short/ragged shards.
	ShardFailures uint64
	// Reconstructed counts stripes that needed erasure reconstruction
	// (decoder only).
	Reconstructed uint64
	// ShardsCorrupted counts shard blocks demoted to erasures for one
	// stripe (decoder only): checksum-trailer mismatches. Unlike
	// ShardFailures, a corrupted shard stays live for later stripes.
	ShardsCorrupted uint64
	// StripesHealed counts stripes that decoded correctly despite one
	// or more corrupted shard blocks (decoder only).
	StripesHealed uint64
	// HedgedReads counts stripes that proceeded to reconstruction
	// without waiting for at least one live shard that missed its
	// adaptive deadline (decoder only; requires Options.HedgeAfter).
	HedgedReads uint64
	// HedgeWins counts hedged stripes decoded without at least one
	// straggler's block: the stripe went ahead rather than wait the read
	// out. A hedged stripe whose straggler blocks all landed during a
	// spare's Fill or an Await is no win (decoder only).
	HedgeWins uint64
	// BreakerTrips counts per-shard circuit-breaker trips: a shard
	// demoted after missing BreakerThreshold consecutive deadlines,
	// plus every half-open probe that missed again (decoder only).
	BreakerTrips uint64
	// WorkerPanics counts panics recovered from pipeline stages and
	// shard-reader goroutines and surfaced as *PanicError instead of
	// crashing the process.
	WorkerPanics uint64
}
