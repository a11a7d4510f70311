package cluster

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"dialga/internal/node"
	"dialga/internal/obs"
	"dialga/internal/shardfile"
)

// header builds shard idx's shardfile header for an object of size
// bytes encoded with the gateway's geometry in shardSize-byte shards,
// stamped with the put's generation.
func (g *Gateway) header(idx int, size int64, shardSize int, gen uint64) shardfile.Header {
	stripeSize := uint64(shardSize * g.k)
	stripes := (uint64(size) + stripeSize - 1) / stripeSize
	return shardfile.Header{
		Version: shardfile.VersionV4,
		K:       uint32(g.k), M: uint32(g.m), Index: uint32(idx),
		ShardSize:   uint32(shardSize),
		StripeCount: stripes,
		FileSize:    uint64(size),
		Algo:        shardfile.AlgoCRC32C,
		Generation:  gen,
	}
}

// nextGeneration draws a put's generation: the wall clock in
// nanoseconds, made strictly increasing within this gateway, so of two
// puts to one key the later one's shards are the newer.
func (g *Gateway) nextGeneration() uint64 {
	for {
		last := g.lastGen.Load()
		gen := max(uint64(time.Now().UnixNano()), last+1)
		if g.lastGen.CompareAndSwap(last, gen) {
			return gen
		}
	}
}

// PutObject encodes size bytes from r into K+M shards streamed
// concurrently to the object's placement. Every shard upload carries a
// full shardfile (header + checksummed blocks), so each node validates
// its shard independently and a node directory is scrubbable with
// dialga-encode -mode verify.
//
// Every shard's header carries the put's generation, drawn once here
// and the same on every upload attempt, so a reader tells this put's
// shards from any other version's. No upload lands before the put has
// read exactly size bytes from r: each body holds back its last byte
// until then (lentBody), so a source that is short or long fails the
// put and leaves the previous version whole.
//
// A put is acknowledged once WriteQuorum shard uploads have landed.
// Transient upload failures (connection errors, throttling, 5xx) are
// retried per shard with backoff and full jitter, reading the put's
// encoded stripes again from the first; a shard that still cannot land
// does not fail the put as long as quorum holds: the next repair scan
// finds it owed, like any other damage, once its node answers. Below
// quorum the put fails. If fewer than K shards landed, they are
// deleted best-effort; with K or more the new version is readable, so
// they stay (they have already replaced the old version's shards) and
// the scan restores their redundancy. Returns the placement used.
func (g *Gateway) PutObject(ctx context.Context, object string, r io.Reader, size int64, class string) (Placement, error) {
	if size < 0 {
		return nil, fmt.Errorf("cluster: put %q needs a known size", object)
	}
	st := g.snap()
	placement, err := st.cmap.Place(object, g.k+g.m)
	if err != nil {
		return nil, err
	}

	enc, err := g.encoderFor(size)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	n := g.k + g.m
	window := 0 // retries need every stripe kept until the put ends
	if g.retries < 0 {
		window = putWindow
	}
	gen := g.nextGeneration()
	lent := newLentStripes(ctx, n, window, n*enc.BlockSize(), g.retained)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cli, err := g.clientFor(st, placement[i].ID)
		if err != nil {
			// No destination for this shard; it must not hold the window.
			lent.advance(i, gone)
			errs[i] = fmt.Errorf("shard %d -> %s: %w", i, placement[i].ID, err)
			continue
		}
		wg.Add(1)
		go func(i int, cli *node.Client) {
			defer wg.Done()
			h := g.header(i, size, enc.ShardSize(), gen)
			if err := g.uploadShard(ctx, object, placement[i].ID, cli.WithClass(class), lent, h); err != nil {
				errs[i] = fmt.Errorf("shard %d -> %s: %w", i, placement[i].ID, err)
			}
		}(i, cli)
	}

	// Count input bytes locally: the encoder's Stats() aggregates across
	// every pipeline sharing the registry, so it cannot size-check one put.
	// The ctx wrapper bounds cancellation latency: the encoder's
	// producer loop reads the caller's reader without watching ctx, so
	// a trickling (or stalled-between-reads) source would otherwise
	// keep the whole put — stripes, uploader goroutines and all — alive
	// long after the caller gave up.
	cr := &countingReader{r: readerCtx(ctx, r)}
	encErr := enc.EncodeStripes(ctx, cr, lent.publish)
	if encErr == nil && cr.n != size {
		encErr = fmt.Errorf("read %d bytes, expected %d", cr.n, size)
	}
	if encErr != nil {
		// Cancelled before the uploads can see why: a failure the encoder
		// caused is then never mistaken for one worth a retry.
		cancel()
	}
	lent.finish(encErr)
	wg.Wait()
	lent.release()

	fail := func(err error) (Placement, error) {
		g.counter("cluster_puts_total", "Object puts, by result.",
			obs.Label{Key: "result", Value: "error"}).Inc()
		return nil, fmt.Errorf("cluster: put %q: %w", object, err)
	}
	if encErr != nil {
		// No upload gave its node the last byte, so none landed.
		return fail(encErr)
	}

	landed := 0
	var firstErr error
	for i, err := range errs {
		if err == nil {
			landed++
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		g.counter("cluster_put_shard_failures_total",
			"Shard uploads that failed permanently during puts, by node.",
			obs.Label{Key: "node", Value: string(placement[i].ID)}).Inc()
	}
	if landed < g.quorum {
		// Not enough durability to ack. The landed shards replaced the
		// old version's by rename: below K they decode nothing, so they
		// go; from K up they are the readable version, and deleting them
		// would lose the old one too. They are cleared best-effort, on a
		// fresh context (ours may already be cancelled): a put that fails
		// is stale the moment the client retries.
		if landed < g.k {
			cleanCtx, cleanCancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cleanCancel()
			for i, err := range errs {
				if err == nil {
					if cli, cerr := g.clientFor(st, placement[i].ID); cerr == nil {
						cli.WithClass(class).DeleteShard(cleanCtx, object, i)
					}
				}
			}
		}
		return fail(fmt.Errorf("only %d of %d shards landed, quorum is %d: %w",
			landed, n, g.quorum, firstErr))
	}

	result := "ok"
	if landed < n {
		result = "degraded"
		g.counter("cluster_put_degraded_total",
			"Puts acknowledged at quorum with one or more shards owed to repair.").Inc()
	}
	g.counter("cluster_puts_total", "Object puts, by result.",
		obs.Label{Key: "result", Value: result}).Inc()
	g.counter("cluster_put_bytes_total", "Object payload bytes written.").Add(uint64(size))
	g.putSizes.Observe(float64(enc.ShardSize()))
	return placement, nil
}

// uploadShard sends one shard of a put to its node, reading the lent
// stripes in place. A transient failure is retried, with linearly
// growing, fully-jittered backoff, as a fresh body from stripe 0 — the
// stripes are still there, and the node commits by rename, so an
// attempt can simply be made again. Failures never tear down the put:
// the other shards' uploads are unaffected, and the caller decides
// afterwards whether quorum held.
func (g *Gateway) uploadShard(ctx context.Context, object string, id NodeID, cli *node.Client, lent *lentStripes, h shardfile.Header) error {
	idx := int(h.Index)
	// Whatever ends the upload, a windowed list stops waiting for it —
	// after the last attempt's body is sealed.
	defer lent.advance(idx, gone)
	for attempt := 0; ; attempt++ {
		body := lent.body(idx, h)
		err := cli.PutShard(ctx, object, idx, body)
		body.seal()
		if err == nil || !node.Transient(err) || attempt >= g.retries {
			return err
		}
		t := time.NewTimer(putBackoff(object, idx, attempt+1))
		select {
		case <-ctx.Done():
			t.Stop()
			return err // the put is over; the attempt's own error says more than ctx's
		case <-t.C:
		}
		g.counter("cluster_put_shard_retries_total",
			"Shard uploads started again after a transient failure during puts, by node.",
			obs.Label{Key: "node", Value: string(id)}).Inc()
	}
}

// putBackoffBase is the span of the first retry's jitter; attempt n
// draws from n times it.
const putBackoffBase = 50 * time.Millisecond

// putBackoff is the delay before retry attempt (1-based) of one shard's
// upload: full jitter over [0, attempt·putBackoffBase), keyed by the
// attempt's own identity. Uploads that one node failure cuts together
// belong to different objects, so they draw different delays and do not
// retry in step; a seeded chaos run still replays its exact schedule.
func putBackoff(object string, shard, attempt int) time.Duration {
	span := time.Duration(attempt) * putBackoffBase
	h := mix(fnv64(object) ^ uint64(shard)<<32 ^ uint64(attempt))
	return time.Duration(h % uint64(span))
}

// readerCtx wraps r so each Read first checks ctx: once the put's
// context ends, the next read fails instead of letting a slow source
// hold the pipeline open. (A single Read already blocked inside r is
// beyond rescue — this bounds the damage to one call.)
func readerCtx(ctx context.Context, r io.Reader) io.Reader {
	return &ctxReader{ctx: ctx, r: r}
}

type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c *ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}

// countingReader tallies bytes as the encoder consumes them.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
