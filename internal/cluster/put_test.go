package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dialga/internal/fault"
	"dialga/internal/node"
	"dialga/internal/obs"
	"dialga/internal/shardfile"
)

// putHook is a shard transport that hands the shard PUTs sent to one
// host to fn, with the PUT's ordinal at that host, and passes every
// other request — and any PUT fn answers (nil, nil) to — through.
type putHook struct {
	base http.RoundTripper
	host string // set once the test knows its placement, before the put
	fn   func(req *http.Request, n int) (*http.Response, error)
	puts atomic.Int32
}

func (h *putHook) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPut && req.URL.Host == h.host {
		if resp, err := h.fn(req, int(h.puts.Add(1))-1); resp != nil || err != nil {
			return resp, err
		}
	}
	return h.base.RoundTrip(req)
}

// hookedCluster starts a six-node RS(4,2) cluster acking at five
// shards, its shard transport under a putHook.
func hookedCluster(t *testing.T, retries int) (*testCluster, *putHook) {
	hook := &putHook{base: &http.Transport{DisableKeepAlives: true}}
	tc := startClusterOpts(t, 6, 4, 2, func(o *GatewayOptions) {
		o.WriteQuorum = 5
		o.PutRetries = retries
		o.HTTPClient = &http.Client{Transport: hook}
	})
	return tc, hook
}

func (tc *testCluster) retainedBytes() float64 {
	return tc.reg.Gauge("cluster_put_retained_bytes", "").Value()
}

// topBlockSize is the bytes per shard per stripe, trailer included, of
// an object that fills the configured stripe.
func (tc *testCluster) topBlockSize() int {
	return tc.gw.rungs[len(tc.gw.rungs)-1] + 4 // the CRC-32C trailer
}

// TestPutBackoffSpreadsAcrossObjects: the retry jitter is keyed by the
// upload's own identity, so the uploads one node failure cuts together —
// the same shard slot of many objects — retry at different times, and a
// seeded run still replays the same schedule.
func TestPutBackoffSpreadsAcrossObjects(t *testing.T) {
	const shard, objects = 2, 64
	seen := map[time.Duration]bool{}
	for i := 0; i < objects; i++ {
		object := fmt.Sprintf("obj-%d", i)
		d := putBackoff(object, shard, 1)
		if d < 0 || d >= putBackoffBase {
			t.Fatalf("%s attempt 1: delay %v outside [0, %v)", object, d, putBackoffBase)
		}
		seen[d] = true
		if d2 := putBackoff(object, shard, 2); d2 < 0 || d2 >= 2*putBackoffBase {
			t.Fatalf("%s attempt 2: delay %v outside [0, %v)", object, d2, 2*putBackoffBase)
		}
		if again := putBackoff(object, shard, 1); again != d {
			t.Fatalf("%s: delay %v, then %v for the same attempt", object, d, again)
		}
	}
	if len(seen) < 48 {
		t.Fatalf("%d objects drew only %d distinct delays, want >= 48", objects, len(seen))
	}
}

// TestPutMidStreamCutReplaysByReference: one node's upload is cut, with
// a transient error, in the middle of its second block — after the
// first stripe has gone out whole. The retry is a fresh body over the
// same lent stripes, and must leave all six shard files byte-identical
// to those of a put nothing happened to.
func TestPutMidStreamCutReplaysByReference(t *testing.T) {
	tc, hook := hookedCluster(t, 0)
	ctx := context.Background()
	payload := clusterPayload(810, 5*64*1024+999) // five full stripes and a tail
	tc.put(ctx, "clean", payload)

	const object, cutShard = "cut", 4
	place, err := tc.gw.Place(object)
	if err != nil {
		t.Fatal(err)
	}
	blockSize := tc.topBlockSize()
	plan, err := fault.Parse(fmt.Sprintf("err@%d", shardfile.HeaderSizeV4+blockSize+blockSize/2))
	if err != nil {
		t.Fatal(err)
	}
	hook.host = place[cutShard].Addr
	hook.fn = func(req *http.Request, n int) (*http.Response, error) {
		if n > 0 {
			return nil, nil
		}
		out := req.Clone(req.Context())
		out.Body = io.NopCloser(fault.NewReader(req.Body, plan))
		return hook.base.RoundTrip(out)
	}
	tc.put(ctx, object, payload)

	if n := hook.puts.Load(); n != 2 {
		t.Fatalf("%d uploads to the cut node, want the cut one and its retry", n)
	}
	if v := tc.counter("cluster_put_shard_retries_total", obs.Label{Key: "node", Value: string(place[cutShard].ID)}); v != 1 {
		t.Fatalf("cluster_put_shard_retries_total{%s} = %d, want 1", place[cutShard].ID, v)
	}
	if v := tc.counter("cluster_put_degraded_total"); v != 0 {
		t.Fatalf("cluster_put_degraded_total = %d, want 0: the retry should have landed", v)
	}
	// The two puts' shards differ in their generation alone.
	for idx := 0; idx < 6; idx++ {
		cut, clean := tc.shardFile(object, idx), tc.shardFile("clean", idx)
		hCut, errCut := shardfile.Parse(bytes.NewReader(cut))
		hClean, errClean := shardfile.Parse(bytes.NewReader(clean))
		hCut.Generation = hClean.Generation
		if errCut != nil || errClean != nil || hCut != hClean ||
			!bytes.Equal(cut[shardfile.HeaderSizeV4:], clean[shardfile.HeaderSizeV4:]) {
			t.Errorf("shard %d of the put that was cut differs from the clean put's", idx)
		}
	}
	tc.mustGet(ctx, object, payload)
	if v := tc.retainedBytes(); v != 0 {
		t.Fatalf("cluster_put_retained_bytes = %v after the puts, want 0", v)
	}
}

// TestPutSealsBodyAgainstLateReads: net/http may go on reading a
// request body from its write loop after RoundTrip has returned. Here a
// transport does exactly that to a failed attempt's body — slowly, so
// it is still at it when the put has finished and later puts are
// encoding into the stripes the first one gave back. What it read must
// be the shard file's own bytes, and it must be stopped by the seal, not
// by running out of body. Run under -race: reading a recycled stripe is
// a data race with the encoder writing it.
func TestPutSealsBodyAgainstLateReads(t *testing.T) {
	tc, hook := hookedCluster(t, 0)
	ctx := context.Background()
	const object, lateShard = "late", 1
	place, err := tc.gw.Place(object)
	if err != nil {
		t.Fatal(err)
	}
	var late bytes.Buffer
	lateErr := make(chan error, 1)
	hook.host = place[lateShard].Addr
	hook.fn = func(req *http.Request, n int) (*http.Response, error) {
		if n > 0 {
			return nil, nil
		}
		go func() {
			buf := make([]byte, 1024)
			for {
				n, err := req.Body.Read(buf)
				late.Write(buf[:n])
				if err != nil {
					lateErr <- err
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
		return nil, errors.New("connection reset by test")
	}

	payload := clusterPayload(820, 20*64*1024)
	tc.put(ctx, object, payload)
	for i := 0; i < 3; i++ { // the same encoder, the same pooled stripes, other bytes
		tc.put(ctx, fmt.Sprintf("next-%d", i), clusterPayload(uint64(821+i), 20*64*1024))
	}

	select {
	case err := <-lateErr:
		if !errors.Is(err, errBodySealed) {
			t.Fatalf("the late reader ended with %v, want the seal's error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the late reader was never stopped")
	}
	if want := tc.shardFile(object, lateShard); !bytes.HasPrefix(want, late.Bytes()) {
		t.Fatalf("the late reader's %d bytes are not a prefix of the shard file", late.Len())
	}
	tc.mustGet(ctx, object, payload)
}

// TestPutWindowBoundsRetainedStripes: with PutRetries -1 the lent
// stripes are a window. One node accepts its upload and never reads it:
// a 64-stripe put then holds exactly putWindow stripes and draws no more
// of its source than the pipeline's depth beyond them, for as long as
// the node stalls — and finishes degraded once the node fails.
func TestPutWindowBoundsRetainedStripes(t *testing.T) {
	tc, hook := hookedCluster(t, -1)
	const object, stalledShard, stripes, stripeSize = "windowed", 3, 64, 64 * 1024
	place, err := tc.gw.Place(object)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	hook.host = place[stalledShard].Addr
	hook.fn = func(req *http.Request, _ int) (*http.Response, error) {
		select {
		case <-release:
		case <-req.Context().Done():
		}
		return nil, errors.New("stalled node gave up")
	}

	payload := clusterPayload(830, stripes*stripeSize)
	var drawn atomic.Int64 // source bytes the encoder has read
	src := readerFunc(func(p []byte) (int, error) {
		n, err := bytes.NewReader(payload[drawn.Load():]).Read(p)
		drawn.Add(int64(n))
		return n, err
	})
	done := make(chan error, 1)
	go func() {
		_, err := tc.gw.PutObject(context.Background(), object, src, int64(len(payload)), node.ClassForeground)
		done <- err
	}()

	full := float64(putWindow * 6 * tc.topBlockSize())
	deadline := time.Now().Add(10 * time.Second)
	for settled := 0; settled < 20; { // the window fills, then stays exactly full
		switch v := tc.retainedBytes(); {
		case v > full:
			t.Fatalf("%v bytes lent, the window is %v", v, full)
		case v == full:
			settled++
		case time.Now().After(deadline):
			t.Fatalf("%v bytes lent after 10 s, want a full window of %v", v, full)
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("the put returned (%v) while a node still held the window", err)
	default:
	}
	// The encoder is blocked publishing: beyond the window it has read at
	// most its own pipeline's depth.
	if limit := int64(putWindow+2*runtime.GOMAXPROCS(0)+2) * stripeSize; drawn.Load() > limit {
		t.Fatalf("%d source bytes read behind a stalled window, want at most %d of %d", drawn.Load(), limit, len(payload))
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("put with one failed node: %v", err)
	}
	if v := tc.counter("cluster_put_degraded_total"); v != 1 {
		t.Fatalf("cluster_put_degraded_total = %d, want 1", v)
	}
	if v := tc.retainedBytes(); v != 0 {
		t.Fatalf("cluster_put_retained_bytes = %v after the put, want 0", v)
	}
	tc.mustGet(context.Background(), object, payload)
}

type readerFunc func(p []byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// sinkShards is a shard transport that reads an upload to its end and
// acknowledges it, so a test can count what the gateway allocates
// without the nodes' share.
type sinkShards struct{}

func (sinkShards) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPut {
		return nil, fmt.Errorf("sinkShards: unexpected %s %s", req.Method, req.URL.RequestURI())
	}
	n, err := io.Copy(io.Discard, req.Body)
	req.Body.Close()
	if err != nil || n != req.ContentLength {
		return nil, fmt.Errorf("sinkShards: read %d of %d declared bytes: %v", n, req.ContentLength, err)
	}
	return &http.Response{StatusCode: http.StatusCreated, Body: http.NoBody, Request: req}, nil
}

// TestPutSteadyStateAllocation: once the allocator holds a put's
// stripes, an 8 MiB PutObject allocates under 1 MiB on the gateway's
// side — six uploads, the stripe list, the pipeline it builds — where
// every put used to allocate ~66 MiB: each shard once more in its retry
// spool and again for every doubling on the way there.
func TestPutSteadyStateAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations swamp the measurement")
	}
	infos := make([]NodeInfo, 6)
	for i := range infos {
		infos[i] = NodeInfo{ID: NodeID(fmt.Sprintf("n%d", i)), Addr: fmt.Sprintf("sink:%d", i), Rack: fmt.Sprintf("r%d", i)}
	}
	cmap, err := New(infos)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := NewGateway(GatewayOptions{Map: cmap, K: 4, M: 2, Metrics: obs.NewRegistry(), HTTPClient: &http.Client{Transport: sinkShards{}}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	payload := clusterPayload(840, 8<<20)
	var mu sync.Mutex // one put at a time, whatever -parallel says
	put := func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := gw.PutObject(ctx, "big", bytes.NewReader(payload), int64(len(payload)), node.ClassForeground); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for i := 0; i < 5; i++ {
		put()
	}
	perPut := make([]uint64, 21)
	for i := range perPut {
		perPut[i] = put()
	}
	slices.Sort(perPut)
	t.Logf("bytes allocated per 8 MiB PUT: min %d, median %d, max %d", perPut[0], perPut[10], perPut[20])
	if perPut[10] > 1<<20 {
		t.Fatalf("%d bytes allocated per PUT, want under 1 MiB", perPut[10])
	}
	// Large objects take the top rung, and only it.
	if counts, _, total := gw.putSizes.Snapshot(); counts[len(gw.rungs)-1] != total {
		t.Fatalf("8 MiB puts stored at shard sizes %v, want all at the top rung", counts)
	}
}

// startedPuts is a shard transport that reports each shard upload as it
// starts, then sends it detached from the put's cancellation, the way
// an upload whose bytes are already on the wire outruns it: an upload
// fails only if its body does.
type startedPuts struct {
	base    http.RoundTripper
	started chan int // buffered for one put's first attempts; a retry's start is not reported
}

func (s *startedPuts) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPut {
		select {
		case s.started <- 1:
		default:
		}
		req = req.WithContext(context.WithoutCancel(req.Context()))
	}
	return s.base.RoundTrip(req)
}

// overwriteFromWrongSize puts v1, 300,000 bytes, then overwrites it
// declaring the same size from a source that serves served bytes of
// another payload. The source holds back its end (io.EOF, after any
// bytes past the declared size) until every upload of the overwrite has
// started and the encoder has read the rest, so each node is part-way
// through the new shard when the put learns the size was wrong. The put
// must fail, and every shard, and so every GET, must still be v1's.
func overwriteFromWrongSize(t *testing.T, served int) {
	tc := startCluster(t, 6, 4, 2)
	starts := &startedPuts{base: &http.Transport{DisableKeepAlives: true}, started: make(chan int, 6)}
	gw, err := NewGateway(GatewayOptions{Map: tc.cmap, K: 4, M: 2, StripeSize: 64 * 1024,
		HTTPClient: &http.Client{Transport: starts}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const object, size = "wrong-size", 300_000
	v1 := clusterPayload(91, size)
	tc.put(ctx, object, v1)

	src := bytes.NewReader(clusterPayload(92, served))
	head := io.LimitReader(src, int64(min(served, size)))
	drained, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	source := readerFunc(func(p []byte) (int, error) {
		if n, _ := head.Read(p); n > 0 {
			return n, nil
		}
		once.Do(func() { close(drained) })
		<-release
		return src.Read(p)
	})
	errc := make(chan error, 1)
	go func() {
		_, err := gw.PutObject(ctx, object, source, size, node.ClassForeground)
		errc <- err
	}()
	<-drained
	for range 6 {
		<-starts.started
	}
	close(release)
	want := fmt.Sprintf("read %d bytes, expected %d", served, size)
	if err := <-errc; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("overwrite from a %d-byte source declared at %d: %v, want %q", served, size, err, want)
	}
	tc.mustGet(ctx, object, v1)
	if n, err := NewRepairer(tc.gw, nil, tc.reg).ScanOnce(ctx); err != nil || n != 0 {
		t.Fatalf("scan after the failed overwrite queued %d, %v; want every shard still v1's", n, err)
	}
}

// TestPutShortSourceKeepsPrevious: a source that ends 100 bytes short
// of its declared size does not replace the previous version.
func TestPutShortSourceKeepsPrevious(t *testing.T) { overwriteFromWrongSize(t, 300_000-100) }

// TestPutLongSourceKeepsPrevious: a source that runs 100 bytes past its
// declared size does not replace, or delete, the previous version.
func TestPutLongSourceKeepsPrevious(t *testing.T) { overwriteFromWrongSize(t, 300_000+100) }
