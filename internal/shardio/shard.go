package shardio

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime/debug"
	"time"
)

// request asks a shard goroutine for the block of stripe seq. The
// goroutine skip-reads any blocks between its stream position and seq
// first, so shards sidelined by an open breaker stay stripe-aligned.
type request struct {
	seq int64
	buf []byte
}

// result is a shard goroutine's answer to one request. Exactly one
// result is sent per request, so the results channel (capacity = shard
// count) can never block a send.
type result struct {
	shard      int
	seq        int64
	buf        []byte
	err        error         // terminal failure; nil for delivered blocks and clean EOF
	eof        bool          // clean EOF at a block boundary, at or before seq
	corrupt    bool          // the block was read whole and its reader rejected it
	panicked   bool          // err is a *PanicError
	dur        time.Duration // wall time of the final block read, incl. retries
	transients int           // transient errors absorbed reading this request
	retries    int           // backoff retries spent on this request
}

// errClosed reports a read abandoned because the group was closed
// mid-backoff.
var errClosed = errors.New("shardio: group closed")

// runShard serves block requests for shard i until the group closes:
// it waits for a request, serves it, and sends the result. It owns the
// reader: all Reads for the shard happen here, so a slow read blocks
// only this goroutine while the gather loop moves on. The reader is
// read only to serve a request — never ahead of one. pos is the block
// index r is positioned at.
func (g *Group) runShard(i int, r io.Reader, pos int64) {
	defer g.wg.Done()
	// Deterministic full-jitter source: fixed Seed => fixed schedule.
	rng := &jitter{seed: int64(g.opts.Seed ^ uint64(i)*0x9e3779b97f4a7c15)}
	var scratch []byte
	for {
		var req request
		select {
		case <-g.stop:
			return
		case req = <-g.req[i]:
		}
		res := result{shard: i, seq: req.seq, buf: req.buf}
		g.serve(i, r, rng, &scratch, &pos, req, &res)
		select {
		case g.results <- res:
		case <-g.stop:
			return
		}
	}
}

// jitter is a shard's backoff randomness, built on first use: nearly
// every shard reads its stream without one retry, and a math/rand
// source is 5 KB a shard would otherwise allocate per stream.
type jitter struct {
	seed int64
	r    *rand.Rand
}

func (j *jitter) Int63n(n int64) int64 {
	if j.r == nil {
		j.r = rand.New(rand.NewSource(j.seed))
	}
	return j.r.Int63n(n)
}

// serve fulfills one request, converting panics (a misbehaving reader
// implementation) into a typed error instead of killing the process.
func (g *Group) serve(i int, r io.Reader, rng *jitter, scratch *[]byte, pos *int64, req request, res *result) {
	defer func() {
		if p := recover(); p != nil {
			res.err = &PanicError{
				Stage: fmt.Sprintf("shard %d reader", i),
				Value: p,
				Stack: debug.Stack(),
			}
			res.panicked = true
		}
	}()
	// Catch up: consume the blocks between the reader's position and
	// the requested stripe (skipped while the breaker was open or the
	// shard was sidelined as slow); nobody wants their bytes, corrupt or
	// not.
	for *pos < req.seq {
		if *scratch == nil {
			*scratch = make([]byte, g.opts.BlockSize)
		}
		eof, err := g.readBlock(r, rng, *scratch, res)
		*pos++
		if eof {
			res.eof = true
			return
		}
		if err != nil && !isCorrupt(err) {
			res.err = err
			return
		}
	}
	start := g.clock.Now()
	eof, err := g.readBlock(r, rng, req.buf, res)
	*pos++
	res.dur = g.clock.Now().Sub(start)
	switch {
	case eof:
		res.eof = true
	case isCorrupt(err):
		res.corrupt = true
	default:
		res.err = err
	}
}

// Transient read errors are retried in place: at most maxRetries times
// per block, retry i after a sleep drawn uniformly from
// [0, backoff<<(i-1)] (full jitter, seeded by Options.Seed).
const (
	maxRetries = 3
	backoff    = 500 * time.Microsecond
)

// readBlock reads one full block, absorbing up to maxRetries transient
// errors with exponential full-jitter backoff. A clean EOF before the
// first byte returns eof=true; a mid-block EOF or any other failure is
// terminal.
func (g *Group) readBlock(r io.Reader, rng *jitter, buf []byte, res *result) (eof bool, err error) {
	n := 0
	for attempt := 0; ; {
		m, err := io.ReadFull(r, buf[n:])
		n += m
		switch {
		case err == nil:
			return false, nil
		case err == io.EOF && n == 0:
			return true, nil
		case isTransient(err) && attempt < maxRetries:
			attempt++
			res.retries++
			res.transients++
			d := time.Duration(rng.Int63n(int64(backoff)<<(attempt-1) + 1))
			if !g.sleep(d) {
				return false, errClosed
			}
		default:
			return false, err
		}
	}
}

// sleep pauses for d or until the group closes; it reports whether the
// full duration elapsed.
func (g *Group) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := g.clock.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C():
		return true
	case <-g.stop:
		return false
	}
}
