package stream

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"time"
)

// Rebuilder regenerates one shard of a stripe set from the others in
// the shard domain: each stripe it reads one block from every source
// and computes the target's block — a single k-source row, never the
// decoded object and never the blocks nobody asked for — so rebuilding
// a shard reads k shards and writes one. It is built from the
// decoder's parts: a group owns one goroutine per source (a slow
// source blocks only itself, a failed read retires it), a worker pool
// computes stripes concurrently, and an ordered in-flight window emits
// them in sequence from the package allocator's buffers.
//
// Every source block's checksum trailer is verified as it is read. A
// source that dies or ends early is retired; a block that fails its
// trailer is an erasure for its stripe only. Either way the caller's
// spare takes over from the stripe that came up short, by the rule
// Decode follows (sources.gather); hedging stays off, because with
// exactly k sources every block is load-bearing. The output is
// byte-identical to what an Encoder with the same Options wrote to the
// target's writer.
//
// A Rebuilder is safe for concurrent use. It holds no buffers: source
// and rebuilt blocks come from the package's allocator, so a repair queue
// that builds one per rebuild stops allocating them once the first
// rebuild has warmed it.
type Rebuilder struct {
	g     geom
	stats *counters
}

// NewRebuilder validates opts and returns a ready Rebuilder.
// Options.HedgeAfter is ignored: a rebuild never hedges.
func NewRebuilder(opts Options) (*Rebuilder, error) {
	g, err := opts.geometry()
	if err != nil {
		return nil, err
	}
	g.hedgeAfter = 0
	g.shardio = newShardioSeries(g.metrics)
	return &Rebuilder{g: g, stats: newCounters(g.metrics, "rebuild")}, nil
}

// Rebuild reads stripes blocks from each non-nil entry of shards (k+m
// entries in stripe order, at least k present, every one positioned at
// its first block) and writes shard target's blocks, trailers
// included, to w. shards[target] must be nil. Every reader given is
// read every stripe, so hand it exactly k and keep the rest as spares:
// when a stripe comes up short, spare is called for a replacement
// positioned at that stripe, as often as it takes to get back to k
// usable blocks. A nil spare, or one that returns an error, fails the
// rebuild with an error wrapping ErrTooManyCorrupt; the blocks before
// the failing stripe have been written by then, so w must only commit
// on success. Every reader given or obtained from spare that is an
// io.Closer is closed on return.
func (rb *Rebuilder) Rebuild(ctx context.Context, shards []io.Reader, target int, w io.Writer, stripes int64, spare SpareFunc) error {
	n := rb.g.k + rb.g.m
	shardSize, blockSize := rb.g.shardSize, rb.g.blockSize
	src, err := openSources(rb.g, rb.stats, shards, spare)
	if err != nil {
		return err
	}
	defer src.close()
	if target < 0 || target >= n {
		return fmt.Errorf("stream: rebuild target %d out of range [0,%d)", target, n)
	}
	if shards[target] != nil {
		return fmt.Errorf("stream: rebuild target %d was given as a source", target)
	}

	produce := func(ctx context.Context, push func(*job) bool) error {
		for seq := int64(0); seq < stripes; seq++ {
			st, spares, err := src.gather(ctx, seq)
			if err == nil && !slices.ContainsFunc(st.Blocks, func(b []byte) bool { return b != nil }) {
				st.release()
				err = fmt.Errorf("stream: rebuild stripe %d: every source ended: %w", seq, ErrTooManyCorrupt)
			}
			if err != nil {
				return err
			}
			if spares > 0 {
				rb.stats.stripesHealed.Add(1)
			}

			j := jobs.get()
			j.blocks = sliceN(j.blocks, n)
			got := 0
			for i, b := range st.Blocks {
				if b != nil {
					j.blocks[i] = b[:shardSize:shardSize]
					got++
				}
			}
			rb.stats.bytesIn.Add(uint64(got * blockSize))
			j.seq, j.stripe = seq, st
			if !push(j) {
				return nil
			}
		}
		return nil
	}

	work := func(j *job) error {
		start := time.Now()
		j.buf = getBuffer(blockSize)
		sum, err := rb.g.codec.RebuildSum(j.blocks, target, j.buf[:shardSize])
		if err != nil {
			return fmt.Errorf("stream: rebuild stripe %d: %w", j.seq, err)
		}
		binary.LittleEndian.PutUint32(j.buf[shardSize:], sum)
		rb.stats.reconstructed.Add(1)
		rb.stats.observe(time.Since(start))
		return nil
	}

	deliver := func(j *job) error {
		if _, err := w.Write(j.buf[:blockSize]); err != nil {
			return fmt.Errorf("stream: write shard %d: %w", target, err)
		}
		rb.stats.stripes.Add(1)
		rb.stats.bytesOut.Add(uint64(blockSize))
		return nil
	}

	release := func(j *job) {
		if j.buf != nil {
			putBuffer(j.buf)
		}
		j.stripe.release()
		jobs.put(j)
	}

	return run(ctx, rb.g, rb.stats, produce, work, deliver, release)
}
