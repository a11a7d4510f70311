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
	"testing"
	"time"

	"dialga/internal/fault"
	"dialga/internal/node"
	"dialga/internal/obs"
	"dialga/internal/stream"
)

// getObjectRange streams the object bytes [off, off+length) into w
// (see OpenObjectRange for the off/length conventions).
func (g *Gateway) getObjectRange(ctx context.Context, object string, w io.Writer, off, length int64, class string) error {
	o, err := g.OpenObjectRange(ctx, object, off, length, class)
	if err != nil {
		return err
	}
	return o.WriteTo(ctx, w)
}

// TestGetSourcesMustAgree overwrites an object with one of a different
// size while the node holding shard 0 — first in router order — is
// down, so that node keeps a valid shard of the old version. A read is
// sized by what its shards agree on, not by the first header to
// arrive: it returns the new version's bytes, the stale shard is closed
// and counted as an open failure, and the next candidate takes its
// place.
func TestGetSourcesMustAgree(t *testing.T) {
	for _, tc := range []struct {
		name             string
		oldSize, newSize int
	}{
		{"other stripe count", 100_000, 200_000},
		{"same stripe count, other file size", 190_000, 200_000},
		{"stale shard is the longer one", 200_000, 100_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, tap := tappedCluster(t, func(o *GatewayOptions) {
				o.WriteQuorum = 5
			})
			ctx := context.Background()
			const object, stale = "overwritten", 0
			place, err := c.gw.Place(object)
			if err != nil {
				t.Fatal(err)
			}
			staleNode := place[stale].ID
			c.put(ctx, object, clusterPayload(701, tc.oldSize))
			c.node(staleNode).stop()
			newPayload := clusterPayload(702, tc.newSize)
			c.put(ctx, object, newPayload) // degraded: the stale node keeps the old shard
			c.node(staleNode).start()
			failures := func() uint64 {
				return c.counter("cluster_open_failures_total", obs.Label{Key: "node", Value: string(staleNode)})
			}

			before := failures()
			tap.take()
			c.mustGet(ctx, object, newPayload)
			if got := shardsAsked(tap.take(), 4); got != "0,1,2,3|4" {
				t.Fatalf("read asked shards %s, want the outvoted shard replaced by the next candidate", got)
			}
			if got := failures() - before; got != 1 {
				t.Fatalf("cluster_open_failures_total{node=%s} moved %d, want 1", staleNode, got)
			}

			// A range read asks every shard for its bytes alone, and is
			// sized by what the k windows that open agree on: no stat, and
			// no whole shard opened on the way, stale shard or not.
			tap.take()
			var mid bytes.Buffer
			if err := c.gw.getObjectRange(ctx, object, &mid, 50_000, 1000, node.ClassForeground); err != nil ||
				!bytes.Equal(mid.Bytes(), newPayload[50_000:51_000]) {
				t.Fatalf("range read of bytes 50000-50999: %v, %d bytes", err, mid.Len())
			}
			for _, req := range tap.take() {
				if !strings.HasPrefix(req, "GET /v1/shard/") || !strings.Contains(req, "?off=") {
					t.Fatalf("range read sent %s, want only windowed shard GETs", req)
				}
			}
			o, err := c.gw.OpenObjectRange(ctx, object, -1000, -1, node.ClassForeground)
			if err != nil {
				t.Fatal(err)
			}
			if o.Size() != int64(tc.newSize) || o.Off() != int64(tc.newSize-1000) {
				t.Fatalf("range read sized %d at offset %d, want %d at %d", o.Size(), o.Off(), tc.newSize, tc.newSize-1000)
			}
			var tail bytes.Buffer
			if err := o.WriteTo(ctx, &tail); err != nil || !bytes.Equal(tail.Bytes(), newPayload[tc.newSize-1000:]) {
				t.Fatalf("range read of the last 1000 bytes: %v, %d bytes", err, tail.Len())
			}
		})
	}
}

// TestUnsatisfiableRangeReadsNoBlocks: a range past the end of the
// object costs k header-only shard GETs — no stat, no block — and is
// refused with the size those k shards agree on; and a range read of
// an object too few nodes can serve fails after one round of opens.
func TestUnsatisfiableRangeReadsNoBlocks(t *testing.T) {
	tc, tap := tappedCluster(t, nil)
	ctx := context.Background()
	payload := clusterPayload(750, 100_000)
	tc.put(ctx, "obj", payload)
	place, _ := tc.gw.Place("obj")
	header := tc.shardHeader("obj", 0).Size()
	served := tap.served.Load()
	tap.take()

	var re *RangeError
	err := tc.gw.getObjectRange(ctx, "obj", io.Discard, 100_000, 10, node.ClassForeground)
	if !errors.As(err, &re) || re.Size != 100_000 {
		t.Fatalf("range past the end: %v, want a RangeError carrying the size", err)
	}
	reqs := tap.take()
	if got := shardsAsked(reqs); got != "0,1,2,3" || len(reqs) != 4 {
		t.Fatalf("unsatisfiable range sent %v, want k shard GETs", reqs)
	}
	if got := tap.served.Load() - served; got != 4*header {
		t.Fatalf("unsatisfiable range was served %d bytes, want k headers of %d and no block", got, header)
	}

	for _, idx := range []int{1, 2, 3} {
		tc.node(place[idx].ID).stop()
	}
	err = tc.gw.getObjectRange(ctx, "obj", io.Discard, 0, 10, node.ClassForeground)
	if err == nil || errors.As(err, &re) || errors.Is(err, node.ErrNotFound) {
		t.Fatalf("range read with three nodes down: %v, want unavailable", err)
	}
	if got := shardsAsked(tap.take(), 4); got != "0,1,2,3|4,5" {
		t.Fatalf("unavailable range read asked shards %s, want each once: k, then the two left", got)
	}
}

// waveGate holds every request until the wave it expects has all
// arrived, for at most two seconds.
type waveGate struct {
	mu            sync.Mutex
	size, arrived int
	full          chan struct{}
}

func (w *waveGate) expect(n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.size, w.arrived, w.full = n, 0, make(chan struct{})
}

// wait reports whether the wave filled up in time. A wave that did not
// is let through, so the read it holds can finish.
func (w *waveGate) wait() bool {
	w.mu.Lock()
	w.arrived++
	full := w.full
	if w.arrived == w.size {
		close(full)
	}
	w.mu.Unlock()
	select {
	case <-full:
		return true
	case <-time.After(2 * time.Second):
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.full == full && w.arrived < w.size {
		w.size = w.arrived
		close(full)
	}
	return false
}

// TestReadOpensItsShardsAtOnce: a GET, a range GET and a rebuild each
// ask for their k shards all at once. Every shard GET is held
// until its whole wave has arrived, so a read that asked for one shard
// after another would never fill a wave.
func TestReadOpensItsShardsAtOnce(t *testing.T) {
	tc, tap := tappedCluster(t, nil)
	ctx := context.Background()
	payload := clusterPayload(770, 300_000)
	tc.put(ctx, "obj", payload)
	var gate waveGate
	tap.mu.Lock()
	tap.onSend = func(req *http.Request) {
		if req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/v1/shard/") && !gate.wait() {
			t.Errorf("%s held 2s: the rest of its wave never came", req.URL.Path)
		}
	}
	tap.mu.Unlock()
	tap.take()

	gate.expect(4)
	tc.mustGet(ctx, "obj", payload)
	if got := shardsAsked(tap.take()); got != "0,1,2,3" {
		t.Fatalf("GET asked shards %s", got)
	}
	gate.expect(4)
	var part bytes.Buffer
	if err := tc.gw.getObjectRange(ctx, "obj", &part, 100_000, 50_000, node.ClassForeground); err != nil ||
		!bytes.Equal(part.Bytes(), payload[100_000:150_000]) {
		t.Fatalf("range GET: %v", err)
	}
	if got := shardsAsked(tap.take()); got != "0,1,2,3" {
		t.Fatalf("range GET asked shards %s", got)
	}
	tc.deleteShard(ctx, "obj", 0)
	gate.expect(4)
	if err := NewRepairer(tc.gw, nil, tc.reg).RepairOne(ctx, "obj", 0); err != nil {
		t.Fatal(err)
	}
	if got := shardsAsked(tap.take()); got != "1,2,3,4" {
		t.Fatalf("rebuild asked shards %s", got)
	}
}

// spareCount reads cluster_read_spares_total for one reason.
func (tc *testCluster) spareCount(reason string) uint64 {
	return tc.counter("cluster_read_spares_total", obs.Label{Key: "reason", Value: reason})
}

// TestHealthyGetReadsK: a GET on a healthy cluster, whole or by range,
// is served exactly k shard bodies — k store opens on the nodes, and on
// the wire k shard GETs and nothing else: k whole shard files, or k
// headers with the blocks the range needs — and opens no spare.
func TestHealthyGetReadsK(t *testing.T) {
	tc, tap := tappedCluster(t, nil)
	ctx := context.Background()
	payload := clusterPayload(780, 300_000) // five stripes of four 16 KiB blocks
	tc.put(ctx, "obj", payload)
	file := int64(len(tc.shardFile("obj", 0)))
	h := tc.shardHeader("obj", 0)
	for _, read := range []struct {
		name        string
		off, length int64 // -1, -1: the whole object
		shardBytes  int64 // what each shard body serves
	}{
		{"whole", -1, -1, file},
		{"range", 70_000, 100_000, h.Size() + 2*h.BlockSize()}, // stripes 1 and 2
	} {
		gets, served := tc.counter("node_store_gets_total"), tap.served.Load()
		tap.take()
		if read.off < 0 {
			tc.mustGet(ctx, "obj", payload)
		} else {
			var part bytes.Buffer
			if err := tc.gw.getObjectRange(ctx, "obj", &part, read.off, read.length, node.ClassForeground); err != nil ||
				!bytes.Equal(part.Bytes(), payload[read.off:read.off+read.length]) {
				t.Fatalf("%s GET: %v, %d bytes", read.name, err, part.Len())
			}
		}
		reqs := tap.take()
		if got := shardsAsked(reqs); got != "0,1,2,3" || countPrefix(reqs, "GET /v1/shard/") != len(reqs) {
			t.Fatalf("healthy %s GET sent %v, want k shard GETs of the first k", read.name, reqs)
		}
		if got := tc.counter("node_store_gets_total") - gets; got != 4 {
			t.Fatalf("%s GET: node_store_gets_total moved %d, want k=4", read.name, got)
		}
		if got := tap.served.Load() - served; got != 4*read.shardBytes {
			t.Fatalf("%s GET: shard bodies served %d bytes, want k=4 of %d", read.name, got, read.shardBytes)
		}
	}
	for _, reason := range []string{"open", "dead", "corrupt", "late"} {
		if got := tc.spareCount(reason); got != 0 {
			t.Fatalf("cluster_read_spares_total{reason=%s} = %d on a healthy GET", reason, got)
		}
	}
}

// TestRangeGetHealsCorruptBlock: a flipped byte in the one block a range
// read needs from a shard is an erasure like any other. The read opens
// exactly one spare window, at that block, and returns the exact bytes.
func TestRangeGetHealsCorruptBlock(t *testing.T) {
	tc, tap := tappedCluster(t, nil)
	ctx := context.Background()
	const stripe = 64 * 1024
	payload := clusterPayload(790, 4*stripe) // four stripes
	tc.put(ctx, "obj", payload)
	corruptBlock(t, tc, "obj", 0, 1)
	tap.take()

	var out bytes.Buffer
	if err := tc.gw.getObjectRange(ctx, "obj", &out, stripe+100, 200, node.ClassForeground); err != nil {
		t.Fatalf("range read across a corrupt block: %v", err)
	}
	if !bytes.Equal(out.Bytes(), payload[stripe+100:stripe+300]) {
		t.Fatal("range read returned the wrong bytes")
	}
	reqs := tap.take()
	if got := shardsAsked(reqs, 4); got != "0,1,2,3|4" {
		t.Fatalf("range read asked shards %s, want k windows and one spare", got)
	}
	if countPrefix(reqs, "GET /v1/shard/obj/4?off=65636&len=200") != 1 {
		t.Fatalf("requests %v, want the spare's window at block 1", reqs)
	}
	if got := tc.spareCount("corrupt"); got != 1 {
		t.Fatalf("cluster_read_spares_total{reason=corrupt} = %d, want 1", got)
	}
}

// TestLateStripeBringsSpare: on a fresh gateway, with no sideline
// history to steer around it, one node among the first k is slow on
// every body read. The first stripe's deadline passes with k-1 blocks
// in hand, and that evidence — not an up-front spare — brings one spare
// in, counted as late. It serves the rest of the read, so the GET takes
// a fraction of what the slow node would cost stripe by stripe, and the
// bytes are exact.
func TestLateStripeBringsSpare(t *testing.T) {
	faults := fault.NewTransport(&http.Transport{DisableKeepAlives: true})
	tc := startClusterOpts(t, 6, 4, 2, func(o *GatewayOptions) {
		o.HTTPClient = &http.Client{Transport: faults}
		o.HedgeAfter = 30 * time.Millisecond // dialga-node's default
	})
	ctx := context.Background()
	const stripes, delay = 16, 200 * time.Millisecond // a slow body Read sleeps delay/2 at least
	payload := clusterPayload(640, stripes*64*1024)
	tc.put(ctx, "obj", payload)
	place, err := tc.gw.Place("obj")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse(fmt.Sprintf("slow@0+%d", delay.Microseconds()))
	if err != nil {
		t.Fatal(err)
	}
	faults.Set(tc.node(place[1].ID).addr, plan)

	start := time.Now()
	tc.mustGet(ctx, "obj", payload)
	if took, limit := time.Since(start), stripes*delay/4; took >= limit {
		t.Fatalf("GET took %v with a slow node among the first k, want under %v", took, limit)
	}
	if got := tc.spareCount("late"); got != 1 {
		t.Fatalf("cluster_read_spares_total{reason=late} = %d, want 1", got)
	}
	for _, reason := range []string{"open", "dead", "corrupt"} {
		if got := tc.spareCount(reason); got != 0 {
			t.Fatalf("cluster_read_spares_total{reason=%s} = %d, want 0", reason, got)
		}
	}
}

// settleGoroutines waits for the goroutine count to come back to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		time.Sleep(20 * time.Millisecond) // paces the poll; the 5 s deadline decides the outcome
		now := runtime.NumGoroutine()
		if now <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<17)
			t.Fatalf("goroutines base=%d now=%d:\n%s", base, now, buf[:runtime.Stack(buf, true)])
		}
	}
}

// checkIdleBudget asserts what every pipeline's buffers come to once
// they are back: at most stream.IdleBudget bytes idle, in lists that
// are not empty.
func checkIdleBudget(t *testing.T) {
	t.Helper()
	held := 0
	for size, n := range stream.IdleBuffers() {
		if n == 0 {
			t.Fatalf("an empty list of %d-byte buffers was left behind", size)
		}
		held += size * n
	}
	if held > stream.IdleBudget {
		t.Fatalf("%d bytes idle, over the %d-byte budget", held, stream.IdleBudget)
	}
}

// TestConcurrentGetsShareAllocator drives full and ranged reads, each
// through a decoder of its own, from eight goroutines at once: every
// read is byte-exact, the blocks they release are there for the next,
// the budget holds, and nothing is left running. CI runs it under
// -race -count=10.
func TestConcurrentGetsShareAllocator(t *testing.T) {
	tc := startCluster(t, 6, 4, 2)
	ctx := context.Background()
	payloads := make([][]byte, 4)
	for i := range payloads {
		payloads[i] = clusterPayload(uint64(720+i), 300_000+i*70_001)
		tc.put(ctx, objectName(i), payloads[i])
	}
	tc.mustGet(ctx, objectName(0), payloads[0])
	base := runtime.NumGoroutine()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				obj := (w + i) % len(payloads)
				want := payloads[obj]
				var out bytes.Buffer
				if i%2 == 0 {
					if err := tc.gw.GetObject(ctx, objectName(obj), &out, node.ClassForeground); err != nil {
						t.Errorf("get %d: %v", obj, err)
						return
					}
				} else {
					off, n := int64(1000*w+i), int64(150_000)
					want = want[off : off+n]
					if err := tc.gw.getObjectRange(ctx, objectName(obj), &out, off, n, node.ClassForeground); err != nil {
						t.Errorf("range get %d: %v", obj, err)
						return
					}
				}
				if !bytes.Equal(out.Bytes(), want) {
					t.Errorf("object %d: read %d bytes that differ from the %d put", obj, out.Len(), len(want))
					return
				}
			}
		}(w)
	}
	wg.Wait()

	block := shardSizeFor(tc.gw.rungs, int64(len(payloads[0])), 4) + 4
	if stream.IdleBuffers()[block] == 0 {
		t.Fatalf("no %d-byte block idle after 48 reads released theirs", block)
	}
	checkIdleBudget(t)
	settleGoroutines(t, base)
}

func objectName(i int) string { return "shared-" + string(rune('a'+i)) }

// TestIdleBudgetHoldsAcrossRungs: puts, GETs, range GETs and rebuilds
// at every rung of dialga-node's default ladder — the top one with an
// object whose stripes alone pass the budget — and at 28 shard sizes
// no gateway of this geometry writes, as stored headers may name, leave
// at most stream.IdleBudget bytes idle, and no empty list behind.
func TestIdleBudgetHoldsAcrossRungs(t *testing.T) {
	tc := startClusterOpts(t, 6, 4, 2, func(o *GatewayOptions) { o.StripeSize = 1 << 20 })
	ctx := context.Background()
	top := tc.gw.rungs[len(tc.gw.rungs)-1]
	payload := clusterPayload(730, stream.IdleBudget*3/4) // 1.5× the budget in stripes
	rep := NewRepairer(tc.gw, nil, tc.reg)
	exercise := func(object string, want []byte, idx int) {
		t.Helper()
		tc.mustGet(ctx, object, want)
		var part bytes.Buffer
		if err := tc.gw.getObjectRange(ctx, object, &part, 100, 1000, node.ClassForeground); err != nil ||
			!bytes.Equal(part.Bytes(), want[100:1100]) {
			t.Fatalf("range read of %s: %v, %d bytes", object, err, part.Len())
		}
		tc.deleteShard(ctx, object, idx)
		if err := rep.RepairOne(ctx, object, idx); err != nil {
			t.Fatalf("rebuild %s shard %d: %v", object, idx, err)
		}
	}
	for i, shardSize := range tc.gw.rungs {
		object, size := fmt.Sprintf("rung-%d", shardSize), 4*shardSize
		if shardSize == top {
			size = len(payload)
		}
		tc.put(ctx, object, payload[:size])
		exercise(object, payload[:size], i%6)
	}
	checkIdleBudget(t)

	for i := 0; i < 28; i++ {
		shardSize := 5000 + 997*i // between rungs, never on one
		object, want := fmt.Sprintf("foreign-%d", shardSize), payload[:6*shardSize+i]
		tc.storeAt(ctx, ladderObject{name: object, payload: want, shardSize: shardSize})
		exercise(object, want, i%6)
	}
	checkIdleBudget(t)
}

// TestHeapDoesNotClimb: 200 sequential 8 MiB GETs, each through a
// decoder of its own, leave the heap where the first ones left it, give
// or take the allocator's budget. Each GET used to strand its block
// buffers for two GC cycles, and the live heap climbed 53 → 258 MB
// across a 5 s get_8m window (DESIGN.md).
func TestHeapDoesNotClimb(t *testing.T) {
	gets := 200
	if raceEnabled {
		gets = 20 // the same shape, at the race detector's speed
	}
	tc := startClusterOpts(t, 6, 4, 2, func(o *GatewayOptions) { o.StripeSize = 1 << 20 })
	ctx := context.Background()
	tc.put(ctx, "big", clusterPayload(750, 8<<20))
	shards := memShards{}
	for idx := 0; idx < 6; idx++ {
		shards[fmt.Sprintf("/v1/shard/big/%d", idx)] = tc.shardFile("big", idx)
	}
	gw, err := NewGateway(GatewayOptions{
		Map: tc.cmap, K: 4, M: 2,
		HedgeAfter: 30 * time.Millisecond,
		HTTPClient: &http.Client{Transport: shards},
	})
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	// Slack for what is not a buffer: goroutine stacks, pooled jobs and
	// stripes, registry series.
	const slack = 8 << 20
	base := heap()
	for i := 1; i <= gets; i++ {
		if err := gw.GetObject(ctx, "big", io.Discard, node.ClassForeground); err != nil {
			t.Fatal(err)
		}
		if i%(gets/4) == 0 {
			if now := heap(); now > base+stream.IdleBudget+slack {
				t.Fatalf("after %d GETs the heap is %d MiB, from %d MiB: over the %d MiB budget plus %d MiB slack",
					i, now>>20, base>>20, stream.IdleBudget>>20, slack>>20)
			}
		}
	}
	checkIdleBudget(t)
}

// memShards is a shard transport that answers whole-shard GETs from
// memory, so a test can count what the gateway allocates without the
// nodes' share.
type memShards map[string][]byte // request path -> shard file

func (m memShards) RoundTrip(req *http.Request) (*http.Response, error) {
	raw, ok := m[req.URL.Path]
	if !ok || req.Method != http.MethodGet || req.URL.RawQuery != "" {
		return nil, fmt.Errorf("memShards: unexpected %s %s", req.Method, req.URL.RequestURI())
	}
	return &http.Response{
		StatusCode: http.StatusOK, ContentLength: int64(len(raw)),
		Body: io.NopCloser(bytes.NewReader(raw)), Request: req,
	}, nil
}

// TestGetSteadyStateAllocation: once the allocator holds a GET's
// blocks, an 8 MiB GetObject allocates under 64 KiB on the gateway's
// side — shard opens, scheduler, the pipeline it builds — where every
// GET used to allocate its own ~3 MiB of block buffers.
func TestGetSteadyStateAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations swamp the measurement")
	}
	tc := startClusterOpts(t, 6, 4, 2, func(o *GatewayOptions) { o.StripeSize = 1 << 20 })
	ctx := context.Background()
	tc.put(ctx, "big", clusterPayload(740, 8<<20))
	shards := memShards{}
	for idx := 0; idx < 6; idx++ {
		shards[fmt.Sprintf("/v1/shard/big/%d", idx)] = tc.shardFile("big", idx)
	}
	gw, err := NewGateway(GatewayOptions{
		Map: tc.cmap, K: 4, M: 2,
		HedgeAfter: 30 * time.Millisecond, // dialga-node's default
		HTTPClient: &http.Client{Transport: shards},
	})
	if err != nil {
		t.Fatal(err)
	}
	get := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := gw.GetObject(ctx, "big", io.Discard, node.ClassForeground); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for i := 0; i < 5; i++ {
		get()
	}
	// The median: a read that happens to run deeper into its window than
	// any before it still adds a block or two to the allocator.
	perGet := make([]uint64, 21)
	for i := range perGet {
		perGet[i] = get()
	}
	slices.Sort(perGet)
	t.Logf("bytes allocated per 8 MiB GET: min %d, median %d, max %d", perGet[0], perGet[10], perGet[20])
	if perGet[10] > 64<<10 {
		t.Fatalf("%d bytes allocated per GET, want under 64 KiB", perGet[10])
	}
}
