package stream

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Encoder is a streaming erasure encoder: it chunks a reader into
// stripes, encodes stripes concurrently, and hands the k data and m
// parity shards of each stripe on in stripe order — by reference
// through EncodeStripes, or copied into k+m writers by Encode. The
// tail stripe is zero-padded to a full stripe, so every shard receives
// exactly BlockSize bytes per stripe — shardSize data bytes plus a
// 4-byte CRC-32C trailer the decoder verifies and heals against.
// Recording the original length for
// trimming on decode is the caller's job (the dialga-encode shard
// header does this). An input shorter than one stripe is padded to one
// too: a caller storing inputs of very different sizes picks the stripe
// size by length (the cluster gateway's ladder).
//
// An Encoder is safe for concurrent use; each call runs its own
// pipeline and the shared Stats accumulate across calls. It holds no
// buffers — stripes come from the package allocator and go back to it
// on Release — so building one per input costs a few microseconds.
type Encoder struct {
	g     geom
	stats *counters
}

// NewEncoder validates opts and returns a ready Encoder.
func NewEncoder(opts Options) (*Encoder, error) {
	g, err := opts.geometry()
	if err != nil {
		return nil, err
	}
	return &Encoder{g: g, stats: newCounters(g.metrics, "encode")}, nil
}

// StripeSize returns the data payload per stripe after rounding
// StripeSize up to a multiple of k.
func (e *Encoder) StripeSize() int { return e.g.stripeSize }

// ShardSize returns the data bytes per shard per stripe, excluding
// the checksum trailer.
func (e *Encoder) ShardSize() int { return e.g.shardSize }

// BlockSize returns the bytes each shard receives per stripe:
// ShardSize plus the checksum trailer.
func (e *Encoder) BlockSize() int { return e.g.blockSize }

// Shards returns the total shard count k+m.
func (e *Encoder) Shards() int { return e.g.k + e.g.m }

// Stats returns a snapshot of the pipeline counters.
func (e *Encoder) Stats() Stats { return e.stats.snapshot() }

// Stripe is one encoded stripe, lent by EncodeStripes: the k data and m
// parity blocks and their checksum trailers, in one buffer from the
// package allocator. Whoever holds it may read the blocks in place, from
// any number of goroutines, until Release; it must not write to them.
type Stripe struct {
	e      *Encoder
	lent   atomic.Bool
	buf    []byte // the allocator's buffer: blocks, then crc
	blocks []byte // (k+m)*shardSize
	data   []byte // blocks' first k*shardSize: the stripe as read, zero-padded
	parity []byte // blocks' last m*shardSize
	crc    []byte // (k+m)*crcSize trailers
}

// Block returns shard i's block of the stripe (data shards first, then
// parity) as two views: the shardSize payload bytes and the CRC-32C
// trailer that follows them on the wire.
func (s *Stripe) Block(i int) (payload, trailer []byte) {
	size := s.e.g.shardSize
	return s.blocks[i*size : (i+1)*size], s.crc[i*crcSize : (i+1)*crcSize]
}

// Release returns the stripe's buffer to the allocator. Call it exactly
// once per lent stripe, after the last read of any of its blocks.
func (s *Stripe) Release() {
	if !s.lent.Swap(false) {
		panic("stream: Stripe released twice")
	}
	putBuffer(s.buf)
}

// lend builds a stripe over a buffer from the allocator: data, parity
// and trailers are consecutive regions of it.
func (e *Encoder) lend() *Stripe {
	g := e.g
	buf := getBuffer((g.k + g.m) * g.blockSize)
	end := (g.k + g.m) * g.shardSize
	s := &Stripe{e: e, buf: buf, blocks: buf[:end:end], crc: buf[end:]}
	s.data, s.parity = s.blocks[:g.stripeSize:g.stripeSize], s.blocks[g.stripeSize:]
	s.lent.Store(true)
	return s
}

// encodeStripe is the worker body: one cache-tiled sweep computes the
// stripe's parity and the CRC-32C of all k+m blocks, each 4 KiB tile
// checksummed while still L1-resident, instead of a second full pass
// over the blocks. Runs allocation-free.
func (e *Encoder) encodeStripe(j *job) error {
	start := time.Now()
	st := j.enc
	// The block views alias the pooled stripe buffer: the zero-copy
	// path the pipeline is built around.
	j.dviews = shardViewsInto(j.dviews, st.data, e.g.k, e.g.shardSize)
	j.pviews = shardViewsInto(j.pviews, st.parity, e.g.m, e.g.shardSize)
	j.sums = sliceN(j.sums, e.g.k+e.g.m)
	if err := e.g.codec.EncodeSumInto(j.sums, j.dviews, j.pviews); err != nil {
		return fmt.Errorf("stream: encode stripe %d: %w", j.seq, err)
	}
	for i, sum := range j.sums {
		binary.LittleEndian.PutUint32(st.crc[i*crcSize:], sum)
	}
	e.stats.observe(time.Since(start))
	return nil
}

// Encode reads r to EOF and writes shard i of every stripe to
// shards[i] (k data writers then m parity writers). It returns the
// first error from the reader, any writer, the codec, or ctx, after
// all workers have drained. Output is deterministic: byte-identical
// for any worker count.
func (e *Encoder) Encode(ctx context.Context, r io.Reader, shards []io.Writer) error {
	if len(shards) != e.g.k+e.g.m {
		return fmt.Errorf("stream: got %d shard writers, want k+m=%d", len(shards), e.g.k+e.g.m)
	}
	for i, w := range shards {
		if w == nil {
			return fmt.Errorf("stream: shard writer %d is nil", i)
		}
	}
	return e.EncodeStripes(ctx, r, func(st *Stripe) error {
		defer st.Release()
		for i, w := range shards {
			payload, trailer := st.Block(i)
			if _, err := w.Write(payload); err != nil {
				return fmt.Errorf("stream: write shard %d: %w", i, err)
			}
			if _, err := w.Write(trailer); err != nil {
				return fmt.Errorf("stream: write shard %d trailer: %w", i, err)
			}
		}
		return nil
	})
}

// EncodeStripes reads r to EOF and lends every encoded stripe to emit,
// in stripe order, on the calling goroutine — the by-reference form of
// Encode, for consumers that can read the blocks where they lie. The
// stripe is emit's from the moment of the call, whatever emit returns:
// it (or whoever it hands the stripe to) calls Release exactly once,
// and may do so long after emit has returned. Stripes the pipeline read
// or encoded but never emitted (an error, a cancelled ctx) it recycles
// itself. EncodeStripes returns the first error from the reader, emit,
// the codec, or ctx, after all workers have drained; the stripes'
// bytes are identical for any worker count.
func (e *Encoder) EncodeStripes(ctx context.Context, r io.Reader, emit func(*Stripe) error) error {
	produce := func(ctx context.Context, push func(*job) bool) error {
		for seq := int64(0); ; seq++ {
			st := e.lend()
			n, err := io.ReadFull(r, st.data)
			if n == 0 {
				st.Release()
				if err == io.EOF || err == nil {
					return nil
				}
				return fmt.Errorf("stream: read input: %w", err)
			}
			if err != nil && err != io.ErrUnexpectedEOF {
				st.Release()
				return fmt.Errorf("stream: read input: %w", err)
			}
			final := err == io.ErrUnexpectedEOF
			if n < len(st.data) {
				clear(st.data[n:]) // recycled buffer: scrub stale bytes into the padding
			}
			e.stats.bytesIn.Add(uint64(n))
			j := jobs.get()
			j.seq, j.enc = seq, st
			if !push(j) {
				return nil
			}
			if final {
				return nil
			}
		}
	}

	deliver := func(j *job) error {
		st := j.enc
		j.enc = nil // emit's now; release must not recycle it
		if err := emit(st); err != nil {
			return err
		}
		e.stats.stripes.Add(1)
		e.stats.bytesOut.Add(uint64((e.g.k + e.g.m) * e.g.blockSize))
		return nil
	}

	release := func(j *job) {
		if j.enc != nil {
			j.enc.Release()
		}
		jobs.put(j)
	}

	return run(ctx, e.g, e.stats, produce, e.encodeStripe, deliver, release)
}
