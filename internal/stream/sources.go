package stream

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"dialga/internal/gf"
)

// SpareFunc opens a replacement source for a read in progress. A read
// calls it only on evidence that a stripe needs one, and names the
// evidence: reason is "dead" (a source failed or ended early),
// "corrupt" (a block failed its trailer) or "late" (the stripe's
// deadline passed with fewer than k blocks in hand). It returns the
// index of a shard the read has not been given and a reader positioned
// at the first byte of that shard's block number block, counted from the
// read's first stripe. The read owns the reader from then on. An error
// means no spare is left.
type SpareFunc func(ctx context.Context, block int64, reason string) (idx int, r io.Reader, err error)

// errBlockChecksum is what a verifiedReader returns for a block whose
// trailer does not match, and how a shard goroutine tells it from a
// failed read: the block is an erasure for its stripe, and the shard
// serves the next one.
var errBlockChecksum = errors.New("stream: shard block checksum mismatch")

// verifiedReader passes a shard's block stream through while checking
// every block's CRC-32C trailer: the Read that would complete a block
// whose checksum does not match returns errBlockChecksum instead, the
// block consumed, and the next Read starts the next block. Verification
// therefore runs once per block, on the shard's own reader goroutine,
// before the gather loop sees the block.
type verifiedReader struct {
	r         io.Reader
	shardSize int
	pos       int // bytes of the current block passed through so far
	sum       uint32
	trailer   [crcSize]byte
}

func (v *verifiedReader) Read(p []byte) (int, error) {
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
		ok := binary.LittleEndian.Uint32(v.trailer[:]) == v.sum
		v.pos, v.sum = 0, 0
		if !ok {
			return 0, errBlockChecksum
		}
	}
	return n, err
}

// sources is the shard side of one read, a Decode or a Rebuild: a
// group over the readers it was given, each behind a verifiedReader,
// and the one rule by which a read takes on more.
type sources struct {
	grp       *group
	k         int
	shardSize int
	stats     *counters
	spare     SpareFunc // nil once no spare is left
	spareErr  error     // why none is
	owned     []io.Reader
	retired   []bool // shards already charged to ShardFailures
	failure   error  // the first of those failures
}

// openSources checks that shards holds k+m readers, at least k of them
// present, and starts reading them. The caller must close the sources;
// when openSources fails it has closed them itself.
func openSources(g geom, stats *counters, shards []io.Reader, spare SpareFunc) (*sources, error) {
	s := &sources{k: g.k, shardSize: g.shardSize, stats: stats, spare: spare,
		owned: slices.Clone(shards), retired: make([]bool, len(shards))}
	readers := make([]io.Reader, len(shards))
	present := 0
	for i, r := range shards {
		if r != nil {
			readers[i] = &verifiedReader{r: r, shardSize: s.shardSize}
			present++
		}
	}
	var err error
	switch {
	case len(shards) != g.k+g.m:
		err = fmt.Errorf("stream: got %d shard readers, want k+m=%d", len(shards), g.k+g.m)
	case present < g.k:
		err = fmt.Errorf("stream: only %d shard readers present, need at least k=%d", present, g.k)
	default:
		s.grp = newGroup(readers, g)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close stops the group and then closes every reader given or brought
// in that is an io.Closer: closing a body whose shard goroutine is
// still blocked in Read unblocks that Read, so an abandoned straggler's
// connection is let go promptly instead of when the remote end gives up.
// A reader's Close must therefore be safe to call concurrently with a
// blocked Read, as an http.Response.Body's is.
func (s *sources) close() {
	if s.grp != nil {
		s.grp.close()
	}
	for _, r := range s.owned {
		if c, ok := r.(io.Closer); ok {
			c.Close()
		}
	}
}

// gather collects stripe seq's blocks. While fewer than k of them are
// good it acts on the evidence in the stripe — a shard that died or
// ended early, a block that failed its trailer, a deadline that passed
// short — by bringing a spare in at this stripe and filling its block
// into the stripe in hand; with no spare left it waits out the live
// shards the stripe went ahead without, so a guess about latency never
// decides whether data is readable. It returns a stripe with at least k
// good blocks, or one nothing was read into (every source ended or is
// gone: the caller's to judge), and how many spares came in for it.
// Otherwise the error wraps ErrTooManyCorrupt, or is ctx's.
func (s *sources) gather(ctx context.Context, seq int64) (*shardStripe, int, error) {
	st, err := s.grp.next(ctx)
	spares := 0
	for err == nil {
		var good, dead, corrupt, skipped int
		for i, state := range st.States {
			switch state {
			case stateOK:
				good++
			case stateCorrupt:
				corrupt++
			case stateSlow, stateOpen:
				skipped++
			case stateDead, stateEOF:
				if !s.retired[i] {
					dead++
				}
			}
		}
		switch {
		case good >= s.k || good+corrupt+skipped == 0:
			s.account(st, seq, good+corrupt > 0, corrupt)
			return st, spares, nil
		case s.spare != nil:
			// Each spare answers one piece of evidence, in this order.
			reason := "late"
			if spares < dead {
				reason = "dead"
			} else if spares < dead+corrupt {
				reason = "corrupt"
			}
			var idx int
			var r io.Reader
			if idx, r, err = s.spare(ctx, seq, reason); err == nil {
				s.owned = append(s.owned, r)
				if err = s.grp.attach(idx, &verifiedReader{r: r, shardSize: s.shardSize}, seq); err == nil {
					spares++
					err = s.grp.fill(ctx, st)
					continue
				}
			}
			s.spare, s.spareErr, err = nil, err, nil
		case skipped > 0:
			err = s.grp.await(ctx, st)
		case ctx.Err() != nil:
			err = ctx.Err() // a spare open cut short is no verdict on the data
		default:
			s.account(st, seq, true, corrupt)
			err = fmt.Errorf("stream: stripe %d: only %d of %d required shard blocks usable: %w", seq, good, s.k, ErrTooManyCorrupt)
			for _, cause := range []error{s.failure, s.spareErr} {
				if cause != nil {
					err = fmt.Errorf("%w; %v", err, cause)
				}
			}
		}
	}
	if st != nil {
		st.release()
	}
	return nil, spares, err
}

// account charges a gathered stripe's counters: its breaker trips and
// reader panics, its corrupt blocks, and the shards that failed at it —
// once each, a dead shard and, if anything was read, one that ended
// while its peers still had blocks.
func (s *sources) account(st *shardStripe, seq int64, read bool, corrupt int) {
	s.stats.breakerTrips.Add(st.Trips)
	s.stats.workerPanics.Add(st.Panics)
	s.stats.shardsCorrupted.Add(uint64(corrupt))
	if st.Hedged {
		s.stats.hedgedReads.Add(1)
	}
	for i, state := range st.States {
		if s.retired[i] || state != stateDead && (state != stateEOF || !read) {
			continue
		}
		s.retired[i] = true
		s.stats.shardFailures.Add(1)
		if s.failure == nil {
			err := st.Errs[i]
			if state == stateEOF {
				err = io.ErrUnexpectedEOF
			}
			s.failure = fmt.Errorf("stream: shard %d failed at stripe %d: %w", i, seq, err)
		}
	}
}
