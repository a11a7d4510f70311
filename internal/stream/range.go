package stream

import (
	"context"
	"fmt"
	"io"
)

// DecodeRange reconstructs the byte window [off, off+length) of a
// stream whose full payload is size bytes, writing exactly the window
// to w. The shard readers must be positioned at the first block of
// stripe off/StripeSize — the stripe containing the window's first
// byte — which is where a whole-shard reader already is when off is 0;
// remote callers get there with a block-windowed shard fetch. Work and
// I/O are proportional to the stripes the window covers, not to the
// stream: the leading partial stripe is decoded and trimmed locally,
// and decoding stops after the window's last stripe.
//
// A stripe that comes up short takes a spare from spare, when it is not
// nil, at its own block of the window (see SpareFunc): the window's
// first stripe is block 0. Like Decode, DecodeRange closes every
// reader given or brought in that is an io.Closer when it returns.
//
// off == 0 with length == size and a nil spare is exactly Decode.
// length is clamped to the end of the stream.
func (d *Decoder) DecodeRange(ctx context.Context, shards []io.Reader, w io.Writer, size, off, length int64, spare SpareFunc) error {
	stripe := int64(d.g.stripeSize)
	if off < 0 || off > size {
		return fmt.Errorf("stream: decode range offset %d outside stream of %d bytes", off, size)
	}
	if length < 0 || off+length > size {
		length = size - off
	}
	// The decodable unit is the stripe: back the window's start up to
	// its stripe boundary, decode through the window's end, and drop
	// the lead-in bytes on the way to w. Decode's own size handling
	// trims the final stripe.
	start := off / stripe * stripe
	window := off + length - start
	rw := &rangeWriter{w: w, skip: off - start}
	return d.decode(ctx, shards, rw, window, spare)
}

// rangeWriter discards the first skip bytes and passes the rest
// through — the lead-in of a range's first stripe, decoded because
// reconstruction needs whole stripes but not part of the range.
type rangeWriter struct {
	w    io.Writer
	skip int64
}

func (r *rangeWriter) Write(p []byte) (int, error) {
	n := len(p)
	if r.skip > 0 {
		if int64(n) <= r.skip {
			r.skip -= int64(n)
			return n, nil
		}
		p = p[r.skip:]
		r.skip = 0
	}
	if _, err := r.w.Write(p); err != nil {
		return 0, err
	}
	return n, nil
}
