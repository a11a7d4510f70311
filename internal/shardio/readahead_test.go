package shardio

import (
	"bytes"
	"context"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"dialga/internal/obs"
)

// countReader counts completed Reads — the rendezvous tests use to
// know a shard goroutine has finished prefetching before any request
// is issued.
type countReader struct {
	r     io.Reader
	reads atomic.Int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.reads.Add(1)
	return n, err
}

// waitReads polls (no sleeps, bounded by deadline) until every counter
// reaches want.
func waitReads(t *testing.T, crs []*countReader, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		done := true
		for _, c := range crs {
			if c.reads.Load() < want {
				done = false
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("prefetch did not reach %d reads per shard", want)
		}
	}
}

// TestReadaheadServesFromBuffer creates a group with readahead enabled
// and waits for every shard to prefetch its full depth before issuing
// the first request. Stripe 0 and 1 must then be readahead hits on
// every shard, and the delivered bytes must be the prefetched ones —
// not re-reads.
func TestReadaheadServesFromBuffer(t *testing.T) {
	const n, stripes, depth = 3, 6, 2
	shards := mkShards(n, stripes)
	readers := make([]io.Reader, n)
	crs := make([]*countReader, n)
	for i := range readers {
		crs[i] = &countReader{r: bytes.NewReader(shards[i])}
		readers[i] = crs[i]
	}
	reg := obs.NewRegistry()
	g := newTestGroup(t, readers, Options{Quorum: n, Readahead: depth, Metrics: reg})
	waitReads(t, crs, depth)

	hits := reg.Counter("shardio_readahead_hits_total", "")
	for s := 0; s < stripes; s++ {
		st, err := g.Next(context.Background())
		if err != nil {
			t.Fatalf("stripe %d: %v", s, err)
		}
		for i := 0; i < n; i++ {
			want := shards[i][s*testBlock : (s+1)*testBlock]
			if !bytes.Equal(st.Blocks[i], want) {
				t.Fatalf("stripe %d shard %d: wrong bytes from readahead path", s, i)
			}
		}
		st.Release()
	}
	// The first depth stripes per shard were buffered before any
	// request existed, so at least n*depth hits are guaranteed; later
	// stripes may or may not hit depending on scheduling.
	if got := hits.Value(); got < n*depth {
		t.Fatalf("readahead hits = %d, want >= %d", got, n*depth)
	}
	// Clean EOF after the last stripe must flow through the readahead
	// path too: every shard's terminal marker reports StateEOF.
	st, err := g.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if st.States[i] != StateEOF {
			t.Fatalf("post-stream shard %d state = %v, want StateEOF", i, st.States[i])
		}
	}
	st.Release()
}

// TestServeFromReadaheadQueue pins the queue semantics directly:
// skipped stripes are useless prefetches, a matching stripe is a hit
// with the buffers swapped, and a terminal marker answers any later
// request.
func TestServeFromReadaheadQueue(t *testing.T) {
	reg := obs.NewRegistry()
	g := &Group{opts: Options{BlockSize: 4}}
	g.raHits = reg.Counter("shardio_readahead_hits_total", "")
	g.raUseless = reg.Counter("shardio_readahead_useless_total", "")

	mkbuf := func(fill byte) []byte {
		b := GetBuffer(4)
		for i := range b {
			b[i] = fill
		}
		return b
	}

	// Empty queue: not served.
	ra := []raBlock{}
	res := result{buf: GetBuffer(4)}
	if g.serveFromReadahead(&ra, request{seq: 0, buf: res.buf}, &res) {
		t.Fatal("empty queue reported served")
	}

	// Queue [0,1,2], request seq 2: 0 and 1 useless, 2 is a hit.
	ra = []raBlock{
		{seq: 0, buf: mkbuf(0xa0), dur: time.Millisecond},
		{seq: 1, buf: mkbuf(0xa1), dur: time.Millisecond},
		{seq: 2, buf: mkbuf(0xa2), dur: 7 * time.Millisecond, retries: 1, transients: 1},
	}
	res = result{buf: GetBuffer(4)}
	if !g.serveFromReadahead(&ra, request{seq: 2, buf: res.buf}, &res) {
		t.Fatal("hit not served")
	}
	if len(ra) != 0 {
		t.Fatalf("queue left with %d entries, want 0", len(ra))
	}
	if res.buf[0] != 0xa2 {
		t.Fatalf("served buffer byte = %#x, want the prefetched 0xa2", res.buf[0])
	}
	if res.dur != 7*time.Millisecond || res.retries != 1 || res.transients != 1 {
		t.Fatalf("hit did not carry the measured read stats: %+v", res)
	}
	if got := reg.Counter("shardio_readahead_useless_total", "").Value(); got != 2 {
		t.Fatalf("useless = %d, want 2", got)
	}
	if got := reg.Counter("shardio_readahead_hits_total", "").Value(); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}

	// Terminal EOF marker at seq 4 answers a request for seq 9.
	ra = []raBlock{{seq: 4, eof: true}}
	res = result{buf: GetBuffer(4)}
	if !g.serveFromReadahead(&ra, request{seq: 9, buf: res.buf}, &res) {
		t.Fatal("eof marker not served")
	}
	if !res.eof || res.err != nil || res.buf != nil {
		t.Fatalf("eof result = %+v, want eof with nil buf", res)
	}
}
