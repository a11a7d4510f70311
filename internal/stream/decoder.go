package stream

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"
)

// Decoder is the inverse pipeline: it reads one block per stripe from
// each of the shard readers it is given, verifies each block's CRC-32C
// trailer as it is read, reconstructs missing, failed, corrupt, or
// straggling shards (up to m per stripe), and writes the recovered data
// payload to a single writer in stripe order.
//
// Shard reads are scheduled by a group (see the package doc): one
// goroutine per shard owns its reader, so a slow shard blocks only
// itself, and a shard whose read fails is never read again.
//
// Shards degrade at four severities:
//
//   - missing: a nil entry in the reader slice — never read at all.
//   - dead: a reader whose read failed — any error, Transient() or
//     not, but a clean EOF — or that hit EOF before its peers; retired
//     and treated as missing for that stripe and all later ones.
//   - erased: a block whose checksum trailer does not verify; an
//     erasure for that stripe only — the shard stays live and may
//     serve the next stripe.
//   - slow: with Options.HedgeAfter set, a live shard that missed the
//     stripe's deadline, judged against the stripe's other blocks.
//     With k blocks in hand the stripe proceeds to reconstruction
//     immediately (a hedged degraded read) while the slow read
//     continues in the background; its block, when it lands, is
//     recycled. A shard that stays slow trips its circuit breaker and
//     is skipped entirely until a half-open probe readmits it.
//
// A stripe left with fewer than k good blocks takes a spare from the
// read's SpareFunc (DecodeRange), or else waits for the live shards it
// went ahead without. Decoding continues as long as every stripe gets k
// good blocks; one that cannot returns an error wrapping
// ErrTooManyCorrupt rather than ever emitting unverified bytes.
//
// A Decoder is safe for concurrent use by multiple goroutines: every
// Decode call builds its own shard scheduler and pipeline. It holds no
// buffers: shard blocks and reconstruct outputs come from the package's
// allocator, which outlives every pipeline, so the blocks a finished
// read returns are the blocks the next one reads into whether or not
// the two share a Decoder — building one per read costs a few
// microseconds.
type Decoder struct {
	g     geom
	stats *counters
}

// NewDecoder validates opts and returns a ready Decoder.
func NewDecoder(opts Options) (*Decoder, error) {
	g, err := opts.geometry()
	if err != nil {
		return nil, err
	}
	g.shardio = newShardioSeries(g.metrics)
	return &Decoder{g: g, stats: newCounters(g.metrics, "decode")}, nil
}

// ShardSize returns the data bytes per shard per stripe, excluding
// the checksum trailer.
func (d *Decoder) ShardSize() int { return d.g.shardSize }

// Stats returns a snapshot of the pipeline counters.
func (d *Decoder) Stats() Stats { return d.stats.snapshot() }

// Decode reconstructs the original stream from k+m shard readers and
// writes it to w. size is the original payload length: output is
// trimmed to exactly size bytes and Decode fails if the shards end
// early. size < 0 means "until EOF": every recovered stripe is written
// in full, including any zero padding the encoder added to the tail.
// Every reader given is read every stripe, and no other reader is.
// Every reader given that is an io.Closer is closed on return, also one
// a hedged stripe abandoned mid-Read, so its Close must be safe to call
// concurrently with a blocked Read (an http.Response.Body's is).
func (d *Decoder) Decode(ctx context.Context, shards []io.Reader, w io.Writer, size int64) error {
	return d.decode(ctx, shards, w, size, nil)
}

// decode is Decode, with spare (when not nil) to bring more shards in
// mid-stream on the evidence sources.gather acts on.
func (d *Decoder) decode(ctx context.Context, shards []io.Reader, w io.Writer, size int64, spare SpareFunc) error {
	k, m, blockSize := d.g.k, d.g.m, d.g.blockSize
	src, err := openSources(d.g, d.stats, shards, spare)
	if err != nil {
		return err
	}
	defer src.close()
	wantStripes := int64(-1)
	if size >= 0 {
		wantStripes = (size + int64(d.g.stripeSize) - 1) / int64(d.g.stripeSize)
	}

	produce := func(ctx context.Context, push func(*job) bool) error {
		for seq := int64(0); wantStripes < 0 || seq < wantStripes; seq++ {
			st, _, err := src.gather(ctx, seq)
			if err != nil {
				return err
			}
			j := jobs.get()
			j.blocks = sliceN(j.blocks, k+m)
			got := 0
			for i, b := range st.Blocks {
				if b != nil {
					j.blocks[i] = b
					got++
				}
			}
			if got == 0 {
				// Nothing was read: the end of the stream if the shards
				// ended together, the end of the read if they died.
				eof := slices.Contains(st.States, stateEOF)
				st.release()
				jobs.put(j)
				switch {
				case wantStripes >= 0:
					return fmt.Errorf("stream: shards ended at stripe %d, want %d stripes", seq, wantStripes)
				case !eof:
					return src.failure
				}
				return nil
			}
			if slices.Contains(st.States, stateCorrupt) {
				d.stats.stripesHealed.Add(1)
			}
			d.stats.bytesIn.Add(uint64(got * blockSize))
			j.seq, j.stripe = seq, st
			if !push(j) {
				return nil
			}
		}
		return nil
	}

	work := d.processStripe

	remaining := size // consumer-goroutine state only; <0 means unbounded
	deliver := func(j *job) error {
		for i := 0; i < k; i++ {
			b := j.blocks[i]
			if remaining >= 0 && int64(len(b)) > remaining {
				b = b[:remaining]
			}
			if len(b) == 0 {
				break
			}
			if _, err := w.Write(b); err != nil {
				return fmt.Errorf("stream: write output: %w", err)
			}
			d.stats.bytesOut.Add(uint64(len(b)))
			if remaining >= 0 {
				remaining -= int64(len(b))
			}
		}
		d.stats.stripes.Add(1)
		return nil
	}

	release := func(j *job) {
		for _, i := range j.eras {
			putBuffer(j.blocks[i])
		}
		if j.stripe != nil {
			j.stripe.release()
		}
		jobs.put(j)
	}

	return run(ctx, d.g, d.stats, produce, work, deliver, release)
}

// processStripe is the worker body for one gathered stripe: it
// reconstructs the missing data shards. Every block it sees passed its
// trailer as it was read. It runs allocation-free once the allocator is
// warm — erasure outputs are block-size buffers from it, handed over as
// zero-length-with-capacity slices the codec fills in place.
func (d *Decoder) processStripe(j *job) error {
	k, shardSize := d.g.k, d.g.shardSize
	// Truncate the full blocks to their data payload for the codec.
	for i, b := range j.blocks {
		if b != nil {
			j.blocks[i] = b[:shardSize:shardSize]
		}
	}
	// Hand every absent data entry a spare as its output buffer, of the
	// block size so that spares and shard blocks are one size class;
	// release returns them after delivery.
	for i := 0; i < k; i++ {
		if j.blocks[i] == nil {
			j.blocks[i] = getBuffer(d.g.blockSize)[:0]
			j.eras = append(j.eras, i)
		}
	}
	if len(j.eras) > 0 {
		start := time.Now()
		if err := d.g.codec.ReconstructData(j.blocks); err != nil {
			return fmt.Errorf("stream: reconstruct stripe %d: %w", j.seq, err)
		}
		d.stats.reconstructed.Add(1)
		d.stats.observe(time.Since(start))
	}
	if st := j.stripe; st.Hedged && slices.Contains(st.States, stateSlow) {
		// Decoded without at least one straggler's block.
		d.stats.hedgeWins.Add(1)
	}
	return nil
}
