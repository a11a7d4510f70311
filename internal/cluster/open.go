package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"dialga/internal/node"
	"dialga/internal/shardfile"
)

// openedShard is one shard open attempt that produced a stream.
type openedShard struct {
	idx  int
	h    shardfile.Header
	body io.ReadCloser
}

// agreeing finds the set of opened shards that describe the same object
// a read should decode, by shardfile.Vote: lead indexes one of its
// members (-1 when got is empty) and n is its size.
func agreeing(got []openedShard) (lead, n int) {
	return shardfile.Vote(len(got), func(i int) shardfile.Header { return got[i].h })
}

// shardOpener opens the shards one read decodes from — a GET, a range
// GET, a rebuild — in the order the gateway's router gives, under one
// map generation: k to start with (open), and a spare mid-stream only
// when a stripe comes up short (spare). Every shard is asked for the
// read's object bytes, and its node serves the blocks that carry them.
// Each body opened at the read's window is a timedBody among its peers,
// so closing it reports the node's read sample; a failed open is
// reported here.
type shardOpener struct {
	g         *Gateway
	st        *mapState
	object    string
	placement Placement
	class     string
	peers     *readPeers // the bodies opened at the read's window

	candidates  []int // the shard indices not tried yet, most preferred first
	off, length int64 // the object bytes every shard is asked for

	header             shardfile.Header // what the opened shards agree on; Index is meaningless
	win                shardfile.Window // the read's bytes and blocks, as header cuts them
	failures, notFound int
	firstErr           error
}

func (g *Gateway) newShardOpener(st *mapState, object string, placement Placement, class string) *shardOpener {
	return &shardOpener{g: g, st: st, object: object, placement: placement, class: class,
		peers: &readPeers{s: g.router}, candidates: g.router.split(object, placement)}
}

// skip drops shard idx from the candidates: the shard a rebuild is for.
func (o *shardOpener) skip(idx int) {
	if i := slices.Index(o.candidates, idx); i >= 0 {
		o.candidates = slices.Delete(o.candidates, i, i+1)
	}
}

// take removes and returns the n most preferred candidates.
func (o *shardOpener) take(n int) []int {
	wave := o.candidates[:n]
	o.candidates = o.candidates[n:]
	return wave
}

// failed records why a shard could not be used. A failure that is not a
// 404 is the more telling diagnosis, so it displaces an earlier 404 as
// the reported cause.
func (o *shardOpener) failed(err error) {
	o.failures++
	if errors.Is(err, node.ErrNotFound) {
		o.notFound++
	}
	if o.firstErr == nil || (errors.Is(o.firstErr, node.ErrNotFound) && !errors.Is(err, node.ErrNotFound)) {
		o.firstErr = err
	}
}

// unavailable is the error of a read that got only opened of the shards
// it needed; what says how it fell short. It wraps node.ErrNotFound
// only if nothing opened and every failure was a clean 404 — the object
// is absent. Any other failure in the mix means the object may exist
// but be unreadable right now: a 502, not a 404.
func (o *shardOpener) unavailable(opened int, what string) error {
	if opened == 0 && o.failures > 0 && o.notFound == o.failures {
		return fmt.Errorf("%w on all %d shards", node.ErrNotFound, o.failures)
	}
	cause := o.firstErr
	if cause == nil {
		cause = errors.New("no shards reachable")
	}
	return fmt.Errorf("%s: %w", what, cause)
}

// outvoted closes a shard whose header disagrees with the set being
// read and records it as a failure.
func (o *shardOpener) outvoted(s openedShard) {
	s.body.Close()
	o.countFailure(s.idx)
	o.failed(fmt.Errorf("shard %d from %s: header disagrees with the other shards about the object",
		s.idx, o.placement[s.idx].ID))
}

// countFailure counts a shard that could not be used against its node.
func (o *shardOpener) countFailure(idx int) {
	o.st.series[o.placement[idx].ID].openFailures.Inc()
}

// openShard opens shard idx at the object bytes [off, off+length). A
// failure is counted against the node and, unless the caller gave up
// first, reported to the sideliner; a header that does not match the
// cluster geometry is a failure too. A spare opened mid-stream amortizes
// its open over fewer blocks than the read's peers, so it is not one of
// them. Safe to call concurrently.
func (o *shardOpener) openShard(ctx context.Context, idx int, off, length int64) (openedShard, error) {
	g := o.g
	info := o.placement[idx]
	fail := func(err error) (openedShard, error) {
		o.countFailure(idx)
		return openedShard{}, fmt.Errorf("shard %d from %s: %w", idx, info.ID, err)
	}
	cli, err := g.clientFor(o.st, info.ID)
	if err != nil {
		return fail(err)
	}
	start := g.router.clock.Now()
	h, body, err := cli.WithClass(o.class).OpenShard(ctx, o.object, idx, off, length)
	took := g.router.clock.Now().Sub(start)
	if err != nil {
		if ctx.Err() == nil {
			g.router.failed(info.ID, err)
		}
		return fail(err)
	}
	if off == o.off && length == o.length {
		body = o.peers.timed(info.ID, body, h.BlockSize(), took)
	}
	if int(h.Index) != idx || int(h.K) != g.k || int(h.M) != g.m {
		body.Close()
		return fail(fmt.Errorf("header (k=%d m=%d index=%d) does not match cluster geometry", h.K, h.M, h.Index))
	}
	return openedShard{idx: idx, h: h, body: body}, nil
}

// open asks candidates for the object bytes [off, off+length) (see
// shardfile.Header.Cut; (0, -1): whole shards) until k shards that agree
// on the object are streaming, and returns them as k+m readers, nil
// where unopened, with the read cut from the header they agree on in
// o.win. Shards must be one encoding (shardfile.Header.SameEncoding):
// the set agreeing picks leads, a shard it outvotes is closed and
// counted as an open failure, and the next candidate — a spare for
// reason "open" — is tried in its place, as for an open that fails.
// Each round opens every candidate still needed at once, and the next
// round starts only when they have all answered: a GET, a range GET and
// a rebuild alike ask for their k shards together, and more only as some
// fail. Sidelined nodes come last in the candidates, those whose opens
// fail at the very end, so they are asked only when the rest cannot make
// k. With fewer than k it fails with unavailable's error.
func (o *shardOpener) open(ctx context.Context, off, length int64) ([]io.Reader, error) {
	k := o.g.k
	o.off, o.length = off, length
	var got []openedShard
	for round := 0; ; round++ {
		lead, leadN := agreeing(got)
		need := min(k-leadN, len(o.candidates))
		if need <= 0 {
			readers := make([]io.Reader, len(o.placement))
			for _, s := range got {
				if s.h.SameEncoding(got[lead].h) {
					readers[s.idx] = s.body
					continue
				}
				o.outvoted(s)
			}
			if leadN >= k {
				o.header = got[lead].h
				o.win = o.header.Cut(off, length)
				return readers, nil
			}
			closeReaders(readers)
			return nil, o.unavailable(leadN, fmt.Sprintf("only %d of %d shards available", leadN, k))
		}
		if round > 0 {
			o.g.spares["open"].Add(uint64(need))
		}
		idxs := o.take(need)
		opened := make([]openedShard, len(idxs))
		errs := make([]error, len(idxs))
		var wg sync.WaitGroup
		for i, idx := range idxs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				opened[i], errs[i] = o.openShard(ctx, idx, off, length)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				o.failed(err)
			} else {
				got = append(got, opened[i])
			}
		}
	}
}

// spare is the read's stream.SpareFunc: the next candidate that agrees
// with the open shards about the object, counted under reason, asked
// for the read's remaining bytes from the start of the window's block
// block on. Every candidate that fails is recorded, so running out of
// them says why.
func (o *shardOpener) spare(ctx context.Context, block int64, reason string) (int, io.Reader, error) {
	off, length := o.off, o.length
	if block > 0 {
		end := o.win.Off + o.win.Len
		off = (o.win.Block + block) * int64(o.header.ShardSize) * int64(o.header.K)
		length = end - off
	}
	for len(o.candidates) > 0 {
		idx := o.take(1)[0]
		s, err := o.openShard(ctx, idx, off, length)
		if err != nil {
			o.failed(err)
			continue
		}
		if !s.h.SameEncoding(o.header) {
			o.outvoted(s)
			continue
		}
		o.g.spares[reason].Inc()
		return idx, s.body, nil
	}
	if o.firstErr != nil {
		return 0, nil, fmt.Errorf("no spare shard left to open: %w", o.firstErr)
	}
	return 0, nil, errors.New("no spare shard left to open")
}

func closeReaders(readers []io.Reader) {
	for _, rd := range readers {
		if c, ok := rd.(io.Closer); ok {
			c.Close()
		}
	}
}
