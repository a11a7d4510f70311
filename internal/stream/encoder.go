package stream

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"dialga/internal/gf"
)

// Encoder is a streaming erasure encoder: it chunks a reader into
// stripes, encodes stripes concurrently, and writes the k data and m
// parity shards of each stripe to k+m writers in stripe order. The
// tail stripe is zero-padded to a full stripe, so every shard writer
// receives exactly BlockSize bytes per stripe — shardSize data bytes
// plus, under ChecksumCRC32C (the default), a 4-byte CRC-32C trailer
// the decoder verifies and heals against. Recording the original
// length for trimming on decode is the caller's job (the dialga-encode
// shard header does this).
//
// An Encoder is safe for concurrent use; each Encode call runs its own
// pipeline and the shared Stats accumulate across calls.
type Encoder struct {
	g      geom
	stats  *counters
	data   *bufPool
	parity *bufPool
	crc    *bufPool // nil when checksums are disabled
	jobs   jobPool
}

// NewEncoder validates opts and returns a ready Encoder.
func NewEncoder(opts Options) (*Encoder, error) {
	g, err := opts.geometry()
	if err != nil {
		return nil, err
	}
	e := &Encoder{
		g:      g,
		stats:  newCounters(g.metrics, "encode"),
		data:   newBufPool(g.stripeSize),
		parity: newBufPool(g.m * g.shardSize),
	}
	if g.trailer > 0 {
		e.crc = newBufPool((g.k + g.m) * crcSize)
	}
	return e, nil
}

// StripeSize returns the data payload per stripe after rounding
// StripeSize up to a multiple of k.
func (e *Encoder) StripeSize() int { return e.g.stripeSize }

// ShardSize returns the data bytes per shard per stripe, excluding
// any checksum trailer.
func (e *Encoder) ShardSize() int { return e.g.shardSize }

// BlockSize returns the bytes each shard writer receives per stripe:
// ShardSize plus the checksum trailer.
func (e *Encoder) BlockSize() int { return e.g.blockSize }

// Shards returns the total shard count k+m.
func (e *Encoder) Shards() int { return e.g.k + e.g.m }

// Stats returns a snapshot of the pipeline counters.
func (e *Encoder) Stats() Stats { return e.stats.snapshot() }

// Fused reports whether this encoder uses the codec's single-pass
// fused encode+CRC sweep for its checksum trailers (false when the
// codec does not offer it or checksums are off).
func (e *Encoder) Fused() bool { return e.g.fused != nil }

// encodeStripe is the worker body: encode one stripe's parity and,
// under ChecksumCRC32C, its k+m block trailers. With a fused codec the
// parity and every CRC come out of one cache-tiled sweep — each 4 KiB
// tile is checksummed while still L1-resident — instead of a second
// full pass over k+m blocks. Both paths produce byte-identical
// trailers. Runs allocation-free against warmed pools.
func (e *Encoder) encodeStripe(j *job) error {
	start := time.Now()
	// Full-length stripes split into pure aliases of the pooled
	// buffer (see the pinned rs.Split aliasing contract) — the
	// zero-copy path the pipeline is built around. Callers that
	// need ownership use rs.SplitCopy instead.
	j.dviews = shardViewsInto(j.dviews, j.data, e.g.k, e.g.shardSize)
	j.parity = e.parity.get()
	j.pviews = shardViewsInto(j.pviews, j.parity, e.g.m, e.g.shardSize)
	if e.g.fused != nil {
		j.sums = sliceN(j.sums, e.g.k+e.g.m)
		if err := e.g.fused.EncodeSumInto(j.sums, j.dviews, j.pviews); err != nil {
			return fmt.Errorf("stream: encode stripe %d: %w", j.seq, err)
		}
		j.crc = e.crc.get()
		for i, sum := range j.sums {
			binary.LittleEndian.PutUint32(j.crc[i*crcSize:], sum)
		}
	} else {
		if err := e.g.codec.Encode(j.dviews, j.pviews); err != nil {
			return fmt.Errorf("stream: encode stripe %d: %w", j.seq, err)
		}
		if e.crc != nil {
			// Two-pass trailers: CRC-32C of each block after the fact,
			// hardware-accelerated, off the serial deliver path.
			j.crc = e.crc.get()
			for i := 0; i < e.g.k; i++ {
				sum := gf.CRC32C(j.data[i*e.g.shardSize : (i+1)*e.g.shardSize])
				binary.LittleEndian.PutUint32(j.crc[i*crcSize:], sum)
			}
			for i := 0; i < e.g.m; i++ {
				sum := gf.CRC32C(j.parity[i*e.g.shardSize : (i+1)*e.g.shardSize])
				binary.LittleEndian.PutUint32(j.crc[(e.g.k+i)*crcSize:], sum)
			}
		}
	}
	e.stats.observe(time.Since(start))
	j.span.Event("encode", "")
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

	produce := func(ctx context.Context, push func(*job) bool) error {
		for seq := int64(0); ; seq++ {
			span := e.g.trace.Begin(seq)
			buf := e.data.get()
			n, err := io.ReadFull(r, buf)
			if n == 0 {
				e.data.put(buf)
				if err == io.EOF || err == nil {
					return nil
				}
				return fmt.Errorf("stream: read input: %w", err)
			}
			if err != nil && err != io.ErrUnexpectedEOF {
				e.data.put(buf)
				return fmt.Errorf("stream: read input: %w", err)
			}
			final := err == io.ErrUnexpectedEOF
			if n < len(buf) {
				clear(buf[n:]) // pooled buffer: scrub stale bytes into the padding
			}
			e.stats.bytesIn.Add(uint64(n))
			if span != nil {
				span.Event("read", fmt.Sprintf("bytes=%d", n))
			}
			j := e.jobs.get()
			j.seq, j.data, j.n, j.span = seq, buf, n, span
			if !push(j) {
				return nil
			}
			if final {
				return nil
			}
		}
	}

	work := e.encodeStripe

	writeBlock := func(w io.Writer, idx int, block []byte, crc []byte) error {
		if _, err := w.Write(block); err != nil {
			return fmt.Errorf("stream: write shard %d: %w", idx, err)
		}
		if crc != nil {
			if _, err := w.Write(crc); err != nil {
				return fmt.Errorf("stream: write shard %d trailer: %w", idx, err)
			}
		}
		return nil
	}

	deliver := func(j *job) error {
		var crc []byte
		for i := 0; i < e.g.k; i++ {
			if j.crc != nil {
				crc = j.crc[i*crcSize : (i+1)*crcSize]
			}
			if err := writeBlock(shards[i], i, j.data[i*e.g.shardSize:(i+1)*e.g.shardSize], crc); err != nil {
				return err
			}
		}
		for i := 0; i < e.g.m; i++ {
			if j.crc != nil {
				crc = j.crc[(e.g.k+i)*crcSize : (e.g.k+i+1)*crcSize]
			}
			if err := writeBlock(shards[e.g.k+i], e.g.k+i, j.parity[i*e.g.shardSize:(i+1)*e.g.shardSize], crc); err != nil {
				return err
			}
		}
		e.stats.stripes.Add(1)
		e.stats.bytesOut.Add(uint64((e.g.k + e.g.m) * e.g.blockSize))
		j.span.Event("emit", "")
		return nil
	}

	release := func(j *job) {
		if j.data != nil {
			e.data.put(j.data)
		}
		if j.parity != nil {
			e.parity.put(j.parity)
		}
		if j.crc != nil {
			e.crc.put(j.crc)
		}
		j.span.End()
		e.jobs.put(j)
	}

	return run(ctx, e.g, e.stats, produce, work, deliver, release)
}
