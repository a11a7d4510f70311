package cluster

import (
	"context"
	"errors"
	"io"
	"math"
	"slices"
	"sync"

	"dialga/internal/obs"
	"dialga/internal/shardfile"
	"dialga/internal/stream"
)

// gone is the position of an upload that needs no more stripes.
const gone = math.MaxInt

// putWindow is how many encoded stripes a put without retries holds at
// once: the slack between its fastest and slowest live upload, 12 MiB
// at the defaults, whatever the object's size.
const putWindow = 8

// lentStripes is one put's encoded stripes, lent by the encoder
// (stream.Encoder.EncodeStripes) and read where they lie by the k+m
// shard uploads: publish appends them in order, each upload attempt's
// body walks them from stripe 0, and nothing is copied until net/http
// copies a block into its socket buffer.
//
// How long a stripe stays lent is the list's one setting. With window 0
// every stripe is kept until release, at the end of the put — that is
// the retry spool: an attempt is restartable from its first byte and
// idempotent at the node (tmp file, then rename), so a retry is a
// fresh body over stripes that still exist, not a private copy of
// them. With a window the list holds at most that many stripes:
// publish waits while it is full, and a stripe goes back to the allocator
// as soon as every live upload has read past it — the put that needs
// memory for a window, not for the object, and cannot retry.
type lentStripes struct {
	ctx         context.Context
	window      int
	stripeBytes int        // encoded bytes per stripe, for the gauge
	retained    *obs.Gauge // cluster_put_retained_bytes

	mu      sync.Mutex
	wake    chan struct{}    // closed, and replaced, whenever the fields below change
	base    int              // sequence number of stripes[0]
	stripes []*stream.Stripe // stripes base, base+1, …: pointers, the bytes stay where the encoder put them
	pos     []int            // per shard: the first stripe its upload still needs, or gone
	done    bool             // the encoder has returned; err is how
	err     error
}

func newLentStripes(ctx context.Context, shards, window, stripeBytes int, retained *obs.Gauge) *lentStripes {
	return &lentStripes{
		ctx: ctx, window: window, stripeBytes: stripeBytes, retained: retained,
		wake: make(chan struct{}), pos: make([]int, shards),
	}
}

// signal wakes everyone waiting on the list. Callers hold mu.
func (l *lentStripes) signal() {
	close(l.wake)
	l.wake = make(chan struct{})
}

// publish is the encoder's emit: it takes over the stripe. With a
// window it first waits, for as long as ctx lives, until the list has
// room.
func (l *lentStripes) publish(st *stream.Stripe) error {
	l.mu.Lock()
	for l.window > 0 && len(l.stripes) >= l.window {
		wait := l.wake
		l.mu.Unlock()
		select {
		case <-wait:
		case <-l.ctx.Done():
			st.Release()
			return l.ctx.Err()
		}
		l.mu.Lock()
	}
	l.stripes = append(l.stripes, st)
	l.retained.Add(float64(l.stripeBytes))
	l.trim()
	l.signal()
	l.mu.Unlock()
	return nil
}

// finish records that no more stripes are coming, and why.
func (l *lentStripes) finish(err error) {
	l.mu.Lock()
	l.done, l.err = true, err
	l.signal()
	l.mu.Unlock()
}

// stripe returns stripe seq if it has been published. If not, it
// returns either the channel that closes when the list next changes or,
// once the encoder is done, the error that ended it. (An encoder done
// without error has published every stripe a body reads: the put
// finishes clean only when its source gave exactly the declared size.)
func (l *lentStripes) stripe(seq int) (*stream.Stripe, <-chan struct{}, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i := seq - l.base; i < len(l.stripes) {
		return l.stripes[i], nil, nil
	}
	if !l.done {
		return nil, l.wake, nil
	}
	return nil, nil, l.err
}

// verdict says whether the put has finished its source clean: nil, nil
// once it has; the channel to wait on while the encoder runs; the error
// that failed it.
func (l *lentStripes) verdict() (<-chan struct{}, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.done {
		return l.wake, nil
	}
	return nil, l.err
}

// advance records that shard's upload needs no stripe before seq (gone:
// it needs none at all). Only a windowed list acts on it.
func (l *lentStripes) advance(shard, seq int) {
	l.mu.Lock()
	l.pos[shard] = seq
	l.trim()
	l.mu.Unlock()
}

// trim releases the stripes every live upload has read
// past, when the list is a window. Callers hold mu.
func (l *lentStripes) trim() {
	if l.window == 0 {
		return
	}
	n := min(slices.Min(l.pos)-l.base, len(l.stripes))
	if n <= 0 {
		return
	}
	l.drop(n)
	l.signal()
}

// drop releases the list's first n stripes. Callers hold mu.
func (l *lentStripes) drop(n int) {
	for _, st := range l.stripes[:n] {
		st.Release()
	}
	l.stripes = slices.Delete(l.stripes, 0, n) // shifts down and clears the tail
	l.base += n
	l.retained.Add(-float64(n * l.stripeBytes))
}

// release ends the loan: every stripe still held goes back to the
// allocator. The put calls it once every upload has returned — and each
// upload seals its bodies before it returns, so nothing can be reading.
func (l *lentStripes) release() {
	l.mu.Lock()
	l.drop(len(l.stripes))
	l.mu.Unlock()
}

// errBodySealed is what a sealed upload body's Read returns.
var errBodySealed = errors.New("cluster: shard upload body read after its attempt ended")

// lentBody is one upload attempt's request body: the shard file's
// header, then the shard's (block, trailer) of stripe 0, 1, … read in
// place from the lent stripes, waiting for the encoder where it has to.
// Len is exact, so the upload carries a Content-Length.
//
// The body holds back its last byte until the put has checked that its
// source gave exactly the declared size (lentStripes.finish(nil)); if
// the put fails instead, the body fails. A node commits a shard only
// once it has read the whole file, so no node replaces the previous
// version's shard with one of a put whose source was short or long.
//
// net/http may still call Read from its write loop after RoundTrip has
// returned (a node that answers before it has read the body, a cancelled
// request), so the attempt seals its body before its stripes may go
// back to the allocator: seal waits out a Read that is copying, and every
// later Read fails without touching a stripe.
type lentBody struct {
	l         *lentStripes
	shard     int
	blockSize int

	mu     sync.Mutex
	sealed bool
	hdr    []byte // header bytes not yet read
	left   int64  // bytes not yet read, header included
	seq    int    // the stripe being read
	off    int    // bytes of its block (payload, then trailer) already read
}

func (l *lentStripes) body(shard int, h shardfile.Header) *lentBody {
	return &lentBody{
		l: l, shard: shard, blockSize: int(h.BlockSize()),
		hdr: h.Marshal(), left: h.ExpectedFileSize(),
	}
}

// Len is the bytes the body has left, which is how node.Client learns
// the upload's Content-Length.
func (b *lentBody) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int(b.left)
}

func (b *lentBody) Read(p []byte) (int, error) {
	for {
		n, wait, err := b.readReady(p)
		if n > 0 || err != nil || len(p) == 0 {
			return n, err
		}
		// Not under b.mu: seal must not have to wait for the encoder.
		select {
		case <-wait:
		case <-b.l.ctx.Done():
			return 0, b.l.ctx.Err()
		}
	}
}

// readReady fills p with as much of the body as is already encoded. With
// nothing to give it returns the error that says why, or the channel to
// wait on for the next stripe.
func (b *lentBody) readReady(p []byte) (n int, wait <-chan struct{}, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.sealed {
		return 0, nil, errBodySealed
	}
	for n < len(p) && b.left > 0 {
		room := p[n:]
		if int64(len(room)) >= b.left { // this read would end the body
			if wait, err = b.l.verdict(); err != nil {
				break
			}
			if wait != nil {
				if b.left == 1 {
					break
				}
				room = room[:b.left-1]
			}
		}
		src := b.hdr
		if len(src) == 0 {
			var st *stream.Stripe
			if st, wait, err = b.l.stripe(b.seq); st == nil {
				break
			}
			payload, trailer := st.Block(b.shard)
			if b.off < len(payload) {
				src = payload[b.off:]
			} else {
				src = trailer[b.off-len(payload):]
			}
		}
		c := copy(room, src)
		n += c
		b.left -= int64(c)
		if len(b.hdr) > 0 {
			b.hdr = b.hdr[c:]
		} else if b.off += c; b.off == b.blockSize {
			b.seq, b.off = b.seq+1, 0
			b.l.advance(b.shard, b.seq)
		}
	}
	if b.left == 0 && n == 0 {
		err = io.EOF
	}
	if n > 0 {
		return n, nil, nil
	}
	return 0, wait, err
}

// seal ends the attempt's use of the lent stripes: it returns once no
// Read is copying from one, and no later Read will.
func (b *lentBody) seal() {
	b.mu.Lock()
	b.sealed = true
	b.mu.Unlock()
}
