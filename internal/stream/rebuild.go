package stream

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"dialga/internal/gf"
	"dialga/internal/shardio"
)

// blockRebuilder is the codec entry point a Rebuilder drives: one
// block of a stripe computed from any k of the others, with its
// CRC-32C folded into the same sweep. *rs.Code implements it; it is not
// part of Codec because the public dialga.Codec does not export it.
type blockRebuilder interface {
	RebuildSum(blocks [][]byte, want int, dst []byte) (uint32, error)
}

// SpareFunc opens a replacement source for a rebuild in progress. It
// returns the index of a shard the rebuild has not been given — never
// the target, never one already read — and a reader positioned at the
// first byte of that shard's block number block. The Rebuilder owns the
// reader from then on. An error means no spare is left.
type SpareFunc func(ctx context.Context, block int64) (idx int, r io.Reader, err error)

// Rebuilder regenerates one shard of a stripe set from the others in
// the shard domain: each stripe it reads one block from every source
// and computes the target's block — a single k-source row, never the
// decoded object and never the blocks nobody asked for — so rebuilding
// a shard reads k shards and writes one. It is built from the
// decoder's parts: a shardio.Group owns one goroutine per source (a
// slow source blocks only itself, transient errors are retried with
// backoff), a worker pool computes stripes concurrently, and an ordered
// in-flight window emits them in sequence from the shardio allocator's
// buffers.
//
// Every source block's checksum trailer is verified as it is read. A
// source that fails — a bad checksum, a hard read error, an early EOF
// — is retired for good and a spare takes over from the stripe it
// failed on; hedging stays off, because with exactly k sources every
// block is load-bearing. The output is byte-identical to what an
// Encoder with the same Options wrote to the target's writer.
//
// A Rebuilder is safe for concurrent use. It holds no buffers: source
// and rebuilt blocks come from the shardio allocator, so a repair queue
// that builds one per rebuild stops allocating them once the first
// rebuild has warmed it.
type Rebuilder struct {
	g     geom
	code  blockRebuilder
	stats *counters
}

// NewRebuilder validates opts and returns a ready Rebuilder. The codec
// must offer single-block rebuilds (*rs.Code does). Options.HedgeAfter
// is ignored: a rebuild never hedges.
func NewRebuilder(opts Options) (*Rebuilder, error) {
	g, err := opts.geometry()
	if err != nil {
		return nil, err
	}
	code, ok := g.codec.(blockRebuilder)
	if !ok {
		return nil, fmt.Errorf("stream: codec %T cannot rebuild single blocks", g.codec)
	}
	g.straggler.HedgeAfter = 0
	return &Rebuilder{g: g, code: code, stats: newCounters(g.metrics, "rebuild")}, nil
}

// Stats returns a snapshot of the pipeline counters. Reconstructed
// counts rebuilt stripes; ShardsCorrupted and ShardFailures count
// sources retired for a bad block checksum and for any other reason;
// StripesHealed counts stripes completed through a spare.
func (rb *Rebuilder) Stats() Stats { return rb.stats.snapshot() }

// errBlockChecksum retires a source whose block failed verification.
var errBlockChecksum = errors.New("stream: shard block checksum mismatch")

// verifiedReader passes a shard's block stream through while checking
// every block's CRC-32C trailer: the Read that would complete a block
// whose checksum does not match fails with errBlockChecksum instead,
// as does every Read after it. Verification therefore runs on the
// source's own reader goroutine, and to the shard scheduler a corrupt
// block is one more way for a source to die.
type verifiedReader struct {
	r         io.Reader
	shardSize int
	pos       int // bytes of the current block passed through so far
	sum       uint32
	trailer   [crcSize]byte
	err       error
}

func (v *verifiedReader) Read(p []byte) (int, error) {
	if v.err != nil {
		return 0, v.err
	}
	if rem := v.shardSize + crcSize - v.pos; len(p) > rem {
		p = p[:rem] // never read across a block boundary
	}
	n, err := v.r.Read(p)
	b := p[:n]
	if data := min(v.shardSize-v.pos, n); data > 0 {
		v.sum = gf.CRC32CUpdate(v.sum, b[:data])
		v.pos += data
		b = b[data:]
	}
	if len(b) > 0 {
		v.pos += copy(v.trailer[v.pos-v.shardSize:], b)
	}
	if v.pos == v.shardSize+crcSize {
		if binary.LittleEndian.Uint32(v.trailer[:]) != v.sum {
			v.err = errBlockChecksum
			return 0, v.err
		}
		v.pos, v.sum = 0, 0
	}
	return n, err
}

// Rebuild reads stripes blocks from each non-nil entry of shards (k+m
// entries in stripe order, at least k present, every one positioned at
// its first block) and writes shard target's blocks, trailers
// included, to w. shards[target] must be nil. Every reader given is
// read every stripe, so hand it exactly k and keep the rest as spares:
// when a source fails, spare is called for a replacement positioned at
// the failing stripe, as often as it takes to get back to k usable
// blocks. A nil spare, or one that returns an error, fails the rebuild
// with an error wrapping ErrTooManyCorrupt; the blocks before the
// failing stripe have been written by then, so w must only commit on
// success. With Options.CloseReaders, every reader given or obtained
// from spare is closed on return.
func (rb *Rebuilder) Rebuild(ctx context.Context, shards []io.Reader, target int, w io.Writer, stripes int64, spare SpareFunc) error {
	k, n := rb.g.k, rb.g.k+rb.g.m
	shardSize, blockSize := rb.g.shardSize, rb.g.blockSize
	owned := append([]io.Reader(nil), shards...)
	if rb.g.closeRead {
		// Closing a body whose shard goroutine is still blocked in Read
		// unblocks it, so the goroutines grp.Close signalled exit
		// promptly (this defer runs after that one).
		defer func() {
			for _, r := range owned {
				if c, ok := r.(io.Closer); ok {
					c.Close()
				}
			}
		}()
	}
	if len(shards) != n {
		return fmt.Errorf("stream: got %d shard readers, want k+m=%d", len(shards), n)
	}
	if target < 0 || target >= n {
		return fmt.Errorf("stream: rebuild target %d out of range [0,%d)", target, n)
	}
	if shards[target] != nil {
		return fmt.Errorf("stream: rebuild target %d was given as a source", target)
	}
	source := func(r io.Reader) io.Reader { return &verifiedReader{r: r, shardSize: shardSize} }
	readers := make([]io.Reader, n)
	present := 0
	for i, r := range shards {
		if r != nil {
			readers[i] = source(r)
			present++
		}
	}
	if present < k {
		return fmt.Errorf("stream: only %d shard readers present, need at least k=%d", present, k)
	}
	grp, err := shardio.NewGroup(readers, rb.g.straggler)
	if err != nil {
		return err
	}
	defer grp.Close()

	// retired marks sources already charged to a failure counter: the
	// group re-reports a dead shard on every later stripe.
	retired := make([]bool, n)

	produce := func(ctx context.Context, push func(*job) bool) error {
		for seq := int64(0); seq < stripes; seq++ {
			span := rb.g.trace.Begin(seq)
			st, err := grp.Next(ctx)
			if err != nil {
				return nil // only context cancellation; run() reports it
			}
			// Charge sources that failed this stripe, and while that
			// leaves fewer than k blocks, bring in a spare at this stripe
			// and gather its block into the stripe already in hand.
			healed := false
			var firstErr error
			for {
				got := 0
				for i, state := range st.States {
					if state == shardio.StateOK {
						got++
					}
					if retired[i] || (state != shardio.StateDead && state != shardio.StateEOF) {
						continue
					}
					retired[i] = true
					err := st.Errs[i]
					if state == shardio.StateEOF {
						err = io.ErrUnexpectedEOF
					}
					if errors.Is(err, errBlockChecksum) {
						rb.stats.shardsCorrupted.Add(1)
					} else {
						rb.stats.shardFailures.Add(1)
					}
					if firstErr == nil {
						firstErr = fmt.Errorf("shard %d: %w", i, err)
					}
				}
				if span != nil {
					span.Event("read", fmt.Sprintf("got=%d states=%s", got, statesAttr(st.States)))
				}
				if got >= k {
					break
				}
				serr := errors.New("no spare source")
				if spare != nil {
					var idx int
					var r io.Reader
					if idx, r, serr = spare(ctx, seq); serr == nil {
						owned = append(owned, r)
						serr = grp.Attach(idx, source(r), seq)
					}
				}
				if serr == nil {
					healed = true
					serr = grp.Fill(ctx, st)
				}
				if serr != nil {
					st.Release()
					span.Event("error", "too few usable source blocks")
					span.End()
					if ctx.Err() != nil {
						return nil // run() reports the cancellation
					}
					return fmt.Errorf("stream: rebuild stripe %d: %d of %d source blocks usable after %v, and %v: %w",
						seq, got, k, firstErr, serr, ErrTooManyCorrupt)
				}
			}
			rb.stats.retries.Add(st.Retries)
			rb.stats.workerPanics.Add(st.Panics)
			var transients uint64
			for _, t := range st.Transients {
				transients += t
			}
			rb.stats.transientFaults.Add(transients)
			if healed {
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
			j.seq, j.stripe, j.span = seq, st, span
			if !push(j) {
				return nil
			}
		}
		return nil
	}

	work := func(j *job) error {
		start := time.Now()
		j.buf = shardio.GetBuffer(blockSize)
		sum, err := rb.code.RebuildSum(j.blocks, target, j.buf[:shardSize])
		if err != nil {
			return fmt.Errorf("stream: rebuild stripe %d: %w", j.seq, err)
		}
		binary.LittleEndian.PutUint32(j.buf[shardSize:], sum)
		rb.stats.reconstructed.Add(1)
		rb.stats.observe(time.Since(start))
		j.span.Event("rebuild", "")
		return nil
	}

	deliver := func(j *job) error {
		if _, err := w.Write(j.buf[:blockSize]); err != nil {
			return fmt.Errorf("stream: write shard %d: %w", target, err)
		}
		rb.stats.stripes.Add(1)
		rb.stats.bytesOut.Add(uint64(blockSize))
		j.span.Event("emit", "")
		return nil
	}

	release := func(j *job) {
		if j.buf != nil {
			shardio.PutBuffer(j.buf)
		}
		j.stripe.Release()
		j.span.End()
		jobs.put(j)
	}

	return run(ctx, rb.g, rb.stats, produce, work, deliver, release)
}
