package stream

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"dialga/internal/gf"
	"dialga/internal/shardio"
)

// statesAttr renders a stripe's per-shard dispositions as a compact
// comma-joined attribute for trace spans, e.g. "ok,ok,slow,ok,open".
func statesAttr(states []shardio.ShardState) string {
	var b strings.Builder
	for i, s := range states {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s.String())
	}
	return b.String()
}

// Decoder is the inverse pipeline: it reads one block per stripe from
// each of k+m shard readers, verifies each block's CRC-32C trailer,
// reconstructs missing, failed, corrupt, or straggling shards (up to m
// per stripe), and writes the recovered data payload to a single writer
// in stripe order.
//
// Shard reads are scheduled by an internal/shardio.Group: one goroutine
// per shard owns its reader, so a slow shard blocks only itself, and
// transient errors are retried with exponential full-jitter backoff.
//
// Shards degrade at four severities:
//
//   - missing: a nil entry in the reader slice — never read at all.
//   - dead: a reader that failed hard (non-transient error with
//     retries exhausted, or EOF before its peers); retired and treated
//     as missing for that stripe and all later ones.
//   - erased: a block whose checksum trailer does not verify (the
//     trailer is also what clears a block read across a transient,
//     Transient() bool == true, error); an erasure for that stripe
//     only — the shard stays live and may serve the next stripe.
//   - slow: with Options.HedgeAfter set, a live shard that missed the
//     stripe's adaptive deadline while at least k blocks had arrived.
//     The stripe proceeds to reconstruction immediately (a hedged
//     degraded read) while the slow read continues in the background;
//     whichever finishes first supplies the block. A shard that stays
//     slow trips its circuit breaker and is skipped entirely until a
//     half-open probe readmits it.
//
// Decoding continues as long as at least k usable blocks remain per
// stripe; a stripe below that returns an error wrapping
// ErrTooManyCorrupt rather than ever emitting unverified bytes.
//
// A Decoder is safe for concurrent use by multiple goroutines: every
// Decode call builds its own shard scheduler and pipeline. It holds no
// buffers: shard blocks and reconstruct outputs come from the shardio
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
	return &Decoder{g: g, stats: newCounters(g.metrics, "decode")}, nil
}

// StripeSize returns the data payload per stripe.
func (d *Decoder) StripeSize() int { return d.g.stripeSize }

// ShardSize returns the data bytes per shard per stripe, excluding
// the checksum trailer.
func (d *Decoder) ShardSize() int { return d.g.shardSize }

// BlockSize returns the bytes consumed from each shard reader per
// stripe: ShardSize plus the checksum trailer.
func (d *Decoder) BlockSize() int { return d.g.blockSize }

// Shards returns the total shard count k+m.
func (d *Decoder) Shards() int { return d.g.k + d.g.m }

// Stats returns a snapshot of the pipeline counters.
func (d *Decoder) Stats() Stats { return d.stats.snapshot() }

// transienter matches errors that advertise themselves as momentary —
// fault.ErrInjected, flaky-transport wrappers — via a Transient() bool
// method (the net.Error convention).
type transienter interface{ Transient() bool }

func isTransient(err error) bool {
	var t transienter
	return errors.As(err, &t) && t.Transient()
}

// Decode reconstructs the original stream from k+m shard readers and
// writes it to w. size is the original payload length: output is
// trimmed to exactly size bytes and Decode fails if the shards end
// early. size < 0 means "until EOF": every recovered stripe is written
// in full, including any zero padding the encoder added to the tail.
func (d *Decoder) Decode(ctx context.Context, shards []io.Reader, w io.Writer, size int64) error {
	k, m, blockSize := d.g.k, d.g.m, d.g.blockSize
	if len(shards) != k+m {
		return fmt.Errorf("stream: got %d shard readers, want k+m=%d", len(shards), k+m)
	}
	healthy := 0
	for _, r := range shards {
		if r != nil {
			healthy++
		}
	}
	if healthy < k {
		return fmt.Errorf("stream: only %d shard readers present, need at least k=%d", healthy, k)
	}
	wantStripes := int64(-1)
	if size >= 0 {
		wantStripes = (size + int64(d.g.stripeSize) - 1) / int64(d.g.stripeSize)
	}

	if d.g.closeRead {
		// Closed after grp.Close (LIFO defers): closing a body whose
		// shard goroutine is still blocked in Read unblocks that Read,
		// so abandoned straggler connections are released promptly
		// instead of leaking until the remote end gives up.
		defer func() {
			for _, r := range shards {
				if c, ok := r.(io.Closer); ok {
					c.Close()
				}
			}
		}()
	}
	grp, err := shardio.NewGroup(shards, d.g.straggler)
	if err != nil {
		return err
	}
	defer grp.Close()

	// counted marks shards already charged to ShardFailures: the group
	// re-reports dead and ragged-EOF shards on every later stripe.
	counted := make([]bool, k+m)

	produce := func(ctx context.Context, push func(*job) bool) error {
		for seq := int64(0); wantStripes < 0 || seq < wantStripes; seq++ {
			span := d.g.trace.Begin(seq)
			st, err := grp.Next(ctx)
			if err == nil && d.short(st) {
				// Speculation must not turn a readable stripe into an error:
				// the hedge is a latency optimisation only.
				span.Event("await", "too few clean blocks in hand")
				err = grp.Await(ctx, st)
			}
			if err != nil {
				return nil // only context cancellation; run() reports it
			}
			d.stats.retries.Add(st.Retries)
			d.stats.breakerTrips.Add(st.Trips)
			d.stats.workerPanics.Add(st.Panics)
			d.stats.transientFaults.Add(st.LateTransients)
			if st.Hedged {
				d.stats.hedgedReads.Add(1)
			}

			j := jobs.get()
			j.blocks = sliceN(j.blocks, k+m)
			var eofIdx []int
			got := 0
			var firstErr error
			for i, state := range st.States {
				switch state {
				case shardio.StateOK:
					if t := st.Transients[i]; t > 0 {
						// Read across a fault: the worker verifies the block
						// like any other, and its trailer is the arbiter.
						d.stats.transientFaults.Add(t)
					}
					j.blocks[i] = st.Blocks[i]
					got++
				case shardio.StateEOF:
					// Clean stripe-boundary EOF: end of stream if
					// everyone agrees, a dead shard otherwise.
					if !counted[i] {
						eofIdx = append(eofIdx, i)
					}
				case shardio.StateDead:
					if !counted[i] {
						counted[i] = true
						d.stats.shardFailures.Add(1)
						if firstErr == nil {
							firstErr = fmt.Errorf("stream: shard %d failed at stripe %d: %w", i, seq, st.Errs[i])
						}
					}
				case shardio.StateSlow, shardio.StateOpen, shardio.StateMissing:
					// Slow and breaker-open shards are erasures for this
					// stripe; the worker may still claim a slow shard's
					// late block. Missing shards were never read.
				}
			}
			if span != nil {
				span.Event("read", fmt.Sprintf("got=%d states=%s", got, statesAttr(st.States)))
				if st.Hedged {
					span.Event("hedge", "deadline missed; reconstructing around stragglers")
				}
				if st.Trips > 0 {
					span.Event("breaker", fmt.Sprintf("trips=%d", st.Trips))
				}
			}
			if got == 0 {
				st.Release()
				jobs.put(j)
				if wantStripes >= 0 {
					span.Event("error", "shards ended early")
					span.End()
					return fmt.Errorf("stream: shards ended at stripe %d, want %d stripes", seq, wantStripes)
				}
				if firstErr != nil && len(eofIdx) == 0 {
					span.Event("error", "all shards dead")
					span.End()
					return firstErr
				}
				span.Event("eof", "")
				span.End()
				return nil // unanimous EOF
			}
			if got < k && !st.Hedged {
				st.Release()
				jobs.put(j)
				span.Event("error", "too many corrupt or missing shard blocks")
				span.End()
				if firstErr != nil {
					return fmt.Errorf("stream: stripe %d: only %d of %d required shard blocks usable (%w): %v", seq, got, k, ErrTooManyCorrupt, firstErr)
				}
				return fmt.Errorf("stream: stripe %d: only %d of %d required shard blocks usable: %w", seq, got, k, ErrTooManyCorrupt)
			}
			// Shards that hit EOF while peers still had data are
			// ragged-short: retire them so they never resync.
			for _, i := range eofIdx {
				counted[i] = true
				d.stats.shardFailures.Add(1)
			}
			d.stats.bytesIn.Add(uint64(got * blockSize))
			j.seq, j.stripe, j.span = seq, st, span
			if !push(j) {
				return nil
			}
		}
		return nil
	}

	work := d.processStripe

	remaining := size // consumer-goroutine state only; <0 means unbounded
	deliver := func(j *job) error {
		var wrote int64
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
			wrote += int64(len(b))
			if remaining >= 0 {
				remaining -= int64(len(b))
			}
		}
		d.stats.stripes.Add(1)
		if j.span != nil {
			j.span.Event("emit", fmt.Sprintf("bytes=%d", wrote))
		}
		return nil
	}

	release := func(j *job) {
		for _, i := range j.eras {
			shardio.PutBuffer(j.blocks[i])
		}
		if j.stripe != nil {
			j.stripe.Release()
		}
		j.span.End()
		jobs.put(j)
	}

	return run(ctx, d.g, d.stats, produce, work, deliver, release)
}

// short reports whether a gathered stripe cannot be decoded from the
// blocks in hand — fewer than k pass their trailer — while a live shard
// the scheduler chose not to wait for, slow or behind an open breaker,
// could still supply one. Only a stripe that speculated pays for the
// checksums, on the producer; the verdict on each block stays the
// worker's.
func (d *Decoder) short(st *shardio.Stripe) bool {
	if !slices.ContainsFunc(st.States, func(s shardio.ShardState) bool {
		return s == shardio.StateSlow || s == shardio.StateOpen
	}) {
		return false
	}
	usable := 0
	for _, bl := range st.Blocks {
		if bl != nil && d.verified(bl) {
			if usable++; usable == d.g.k {
				return false
			}
		}
	}
	return true
}

// verified reports whether a full block's payload matches its trailer.
func (d *Decoder) verified(block []byte) bool {
	size := d.g.shardSize
	return gf.CRC32C(block[:size]) == binary.LittleEndian.Uint32(block[size:d.g.blockSize])
}

// processStripe is the worker body for one gathered stripe: resolve
// the hedge race for slow shards, verify checksum trailers, and
// reconstruct missing data shards. It runs allocation-free once the
// allocator is warm — erasure outputs are block-size buffers from it,
// handed over as zero-length-with-capacity slices the codec fills in
// place.
func (d *Decoder) processStripe(j *job) error {
	k, m := d.g.k, d.g.m
	shardSize := d.g.shardSize
	st := j.stripe
	// Resolve the hedge race for slow shards: claim the block if the
	// direct read beat us here (TakeLate is the commit point) and its
	// trailer vouches for bytes that arrived out from under the gather
	// loop.
	hedgeLost := 0 // slow shards whose direct read won after all
	for i, state := range st.States {
		if state != shardio.StateSlow {
			continue
		}
		if late := st.TakeLate(i); late != nil && d.verified(late) {
			j.blocks[i] = late
			hedgeLost++
		}
	}
	// Verify every block that was read; a bad trailer demotes the block
	// to an erasure for this stripe only.
	demoted := 0
	for i, state := range st.States {
		if j.blocks[i] == nil || state == shardio.StateSlow {
			continue // slow claims were verified above
		}
		if !d.verified(j.blocks[i]) {
			j.blocks[i] = nil
			demoted++
			d.stats.shardsCorrupted.Add(1)
		}
	}
	if j.span != nil {
		j.span.Event("verify", fmt.Sprintf("corrupt=%d late_claimed=%d", demoted, hedgeLost))
	}
	// Truncate the surviving full blocks to their data payload for
	// the codec.
	valid := 0
	for i := range j.blocks {
		if j.blocks[i] != nil {
			j.blocks[i] = j.blocks[i][:shardSize:shardSize]
			valid++
		}
	}
	if valid < k {
		return fmt.Errorf("stream: stripe %d: %d corrupt or missing shard blocks leave %d of %d required: %w",
			j.seq, (k+m)-valid, valid, k, ErrTooManyCorrupt)
	}
	// Hand every absent data entry a spare as its output buffer, of the
	// block size so that spares and shard blocks are one size class;
	// release returns them after delivery.
	for i := 0; i < k; i++ {
		if j.blocks[i] == nil {
			j.blocks[i] = shardio.GetBuffer(d.g.blockSize)[:0]
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
		j.span.Event("reconstruct", "")
	}
	if st.Hedged {
		slow := 0
		for _, state := range st.States {
			if state == shardio.StateSlow {
				slow++
			}
		}
		if slow > hedgeLost {
			// At least one straggler's block never made it in time:
			// reconstruction beat the direct read.
			d.stats.hedgeWins.Add(1)
			j.span.Event("hedge_win", "reconstruction beat the straggler")
		}
	}
	if demoted > 0 {
		// The stripe decoded despite corrupt blocks: either a
		// data block was rebuilt through the erasure path, or the
		// corruption was confined to parity we did not need.
		d.stats.stripesHealed.Add(1)
		if j.span != nil {
			j.span.Event("heal", fmt.Sprintf("demoted=%d", demoted))
		}
	}
	return nil
}
