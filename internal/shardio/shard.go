package shardio

import (
	"fmt"
	"io"
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
	shard    int
	seq      int64
	buf      []byte
	err      error         // terminal failure; nil for delivered blocks and clean EOF
	eof      bool          // clean EOF at a block boundary, at or before seq
	corrupt  bool          // the block was read whole and its reader rejected it
	panicked bool          // err is a *PanicError
	dur      time.Duration // wall time of the requested block's read
}

// runShard serves block requests for shard i until the group closes:
// it waits for a request, serves it, and sends the result. It owns the
// reader: all Reads for the shard happen here, so a slow read blocks
// only this goroutine while the gather loop moves on. The reader is
// read only to serve a request — never ahead of one. pos is the block
// index r is positioned at.
func (g *Group) runShard(i int, r io.Reader, pos int64) {
	defer g.wg.Done()
	var scratch []byte
	for {
		var req request
		select {
		case <-g.stop:
			return
		case req = <-g.req[i]:
		}
		res := result{shard: i, seq: req.seq, buf: req.buf}
		g.serve(i, r, &scratch, &pos, req, &res)
		select {
		case g.results <- res:
		case <-g.stop:
			return
		}
	}
}

// serve fulfills one request, converting panics (a misbehaving reader
// implementation) into a typed error instead of killing the process.
func (g *Group) serve(i int, r io.Reader, scratch *[]byte, pos *int64, req request, res *result) {
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
		eof, err := readBlock(r, *scratch)
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
	eof, err := readBlock(r, req.buf)
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

// readBlock reads one full block, once. A clean EOF before the first
// byte returns eof=true. A Corrupt error rejects this block only; any
// other error is terminal, even one that calls itself Transient: a
// stream that broke mid-block has lost its place (a broken HTTP body
// never returns the bytes it dropped), so the shard is dead and a spare
// or parity takes over (stream's sources.gather).
func readBlock(r io.Reader, buf []byte) (eof bool, err error) {
	n, err := io.ReadFull(r, buf)
	if err == io.EOF && n == 0 {
		return true, nil
	}
	return false, err
}
