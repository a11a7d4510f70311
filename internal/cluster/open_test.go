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

	"dialga/internal/node"
	"dialga/internal/obs"
	"dialga/internal/stream"
)

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
			c, tap := tappedCluster(t, 71, func(o *GatewayOptions) {
				o.WriteQuorum = 5
				o.PutBackoff = time.Millisecond
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
			if got := shardsAsked(tap.take()); got != "0,1,2,3,4,5" {
				t.Fatalf("read asked shards %s, want the outvoted shard replaced by the next candidate", got)
			}
			if got := failures() - before; got != 1 {
				t.Fatalf("cluster_open_failures_total{node=%s} moved %d, want 1", staleNode, got)
			}

			// A range read takes its size from one stat — here the stale
			// shard's — and cuts its window again once the k shards it
			// opens say otherwise. It learns that from the windows alone:
			// no whole shard is opened on the way.
			tap.take()
			var mid bytes.Buffer
			if err := c.gw.GetObjectRange(ctx, object, &mid, 50_000, 1000, node.ClassForeground); err != nil ||
				!bytes.Equal(mid.Bytes(), newPayload[50_000:51_000]) {
				t.Fatalf("range read of bytes 50000-50999: %v, %d bytes", err, mid.Len())
			}
			for _, req := range tap.take() {
				if strings.HasPrefix(req, "GET /v1/shard/") && !strings.Contains(req, "?block=") {
					t.Fatalf("range read opened a whole shard: %s", req)
				}
			}
			if tc.newSize < tc.oldSize {
				// The stale size puts the last 1000 bytes in blocks the
				// current shards do not have; that read fails, as it always
				// has, until repair replaces the stale shard.
				return
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

// TestUnsatisfiableRangeOpensNothing: a range past the end of the
// object is refused on the stat alone, and a range read of an object
// too few nodes can serve fails after one round of opens.
func TestUnsatisfiableRangeOpensNothing(t *testing.T) {
	tc, tap := tappedCluster(t, 75, nil)
	ctx := context.Background()
	payload := clusterPayload(750, 100_000)
	tc.put(ctx, "obj", payload)
	place, _ := tc.gw.Place("obj")
	tap.take()

	var re *RangeError
	err := tc.gw.GetObjectRange(ctx, "obj", io.Discard, 100_000, 10, node.ClassForeground)
	if !errors.As(err, &re) || re.Size != 100_000 {
		t.Fatalf("range past the end: %v, want a RangeError carrying the size", err)
	}
	if got := shardsAsked(tap.take()); got != "" {
		t.Fatalf("unsatisfiable range opened shards %s", got)
	}

	for _, idx := range []int{1, 2, 3} {
		tc.node(place[idx].ID).stop()
	}
	err = tc.gw.GetObjectRange(ctx, "obj", io.Discard, 0, 10, node.ClassForeground)
	if err == nil || errors.As(err, &re) || errors.Is(err, node.ErrNotFound) {
		t.Fatalf("range read with three nodes down: %v, want unavailable", err)
	}
	if got := shardsAsked(tap.take()); got != "0,1,2,3,4,5" {
		t.Fatalf("unavailable range read asked shards %s, want each once", got)
	}
}

// settleGoroutines waits for the goroutine count to come back to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
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

// TestSharedDecoderConcurrentGets drives the gateway's cached decoders
// — one hedged for full reads, one unhedged for ranges — from eight
// goroutines at once: every read is byte-exact, both kinds kept using
// the decoder they started with, and nothing is left running. CI runs
// it under -race -count=10.
func TestSharedDecoderConcurrentGets(t *testing.T) {
	tc := startCluster(t, 6, 4, 2, 0, 72)
	ctx := context.Background()
	payloads := make([][]byte, 4)
	for i := range payloads {
		payloads[i] = clusterPayload(uint64(720+i), 300_000+i*70_001)
		tc.put(ctx, objectName(i), payloads[i])
	}
	tc.mustGet(ctx, objectName(0), payloads[0])
	full := tc.gw.decoders.entries[0].val
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
					if err := tc.gw.GetObjectRange(ctx, objectName(obj), &out, off, n, node.ClassForeground); err != nil {
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

	if len(tc.gw.decoders.entries) != 2 {
		t.Fatalf("%d decoders cached, want one hedged and one not", len(tc.gw.decoders.entries))
	}
	for _, c := range tc.gw.decoders.entries {
		if c.key.hedged && c.val != full {
			t.Fatal("full reads did not keep the decoder they started with")
		}
	}
	settleGoroutines(t, base)
}

func objectName(i int) string { return "shared-" + string(rune('a'+i)) }

// TestDecoderCacheIsBounded: the cache holds a full-read and a
// ranged-read decoder for every rung of the ladder, so reads of the
// gateway's own objects, of every size in rotation, build each decoder
// exactly once; but shard sizes come from stored headers, so the cache
// they key must not grow with them.
func TestDecoderCacheIsBounded(t *testing.T) {
	tc := startCluster(t, 6, 4, 2, 0, 73)
	ctx := context.Background()
	payload := clusterPayload(730, 200_000)
	built := map[*stream.Decoder]bool{}
	for round := 0; round < 3; round++ {
		for _, shardSize := range tc.gw.rungs {
			object, size := fmt.Sprintf("rung-%d", shardSize), 4*shardSize
			if shardSize == tc.gw.rungs[len(tc.gw.rungs)-1] {
				size = len(payload) // the top rung, several stripes
			}
			if round == 0 {
				tc.put(ctx, object, payload[:size])
			}
			tc.mustGet(ctx, object, payload[:size])
			var part bytes.Buffer
			if err := tc.gw.GetObjectRange(ctx, object, &part, 100, 1000, node.ClassForeground); err != nil ||
				!bytes.Equal(part.Bytes(), payload[100:1100]) {
				t.Fatalf("range read of %s: %v, %d bytes", object, err, part.Len())
			}
		}
		for _, c := range tc.gw.decoders.entries {
			if round > 0 && !built[c.val] {
				t.Fatalf("round %d built the decoder for %+v again", round, c.key)
			}
			built[c.val] = true
		}
		if len(built) != 2*len(tc.gw.rungs) || len(built) != tc.gw.decoders.max {
			t.Fatalf("round %d: %d decoders built for %d rungs, cache bound %d", round, len(built), len(tc.gw.rungs), tc.gw.decoders.max)
		}
	}

	first, err := tc.gw.decoderFor(1024, true)
	if err != nil {
		t.Fatal(err)
	}
	for size := 2048; size < 2048+2*tc.gw.decoders.max; size++ {
		if _, err := tc.gw.decoderFor(size, true); err != nil {
			t.Fatal(err)
		}
		// Kept warm by use, the first survives every eviction.
		if again, _ := tc.gw.decoderFor(1024, true); again != first {
			t.Fatalf("decoder in use was evicted at size %d", size)
		}
	}
	if len(tc.gw.decoders.entries) != tc.gw.decoders.max {
		t.Fatalf("%d decoders cached, want %d", len(tc.gw.decoders.entries), tc.gw.decoders.max)
	}
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

// TestGetSteadyStateAllocation: once the gateway's decoder is warm, an
// 8 MiB GetObject allocates under 64 KiB on the gateway's side — shard
// opens, scheduler, pipeline — where every GET used to allocate its own
// ~3 MiB of block buffers.
func TestGetSteadyStateAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations swamp the measurement")
	}
	tc := startClusterOpts(t, 6, 4, 2, 0, 74, func(o *GatewayOptions) { o.StripeSize = 1 << 20 })
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
	// any before it still grows the pool by a block or two.
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
