package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dialga/internal/node"
	"dialga/internal/obs"
	"dialga/internal/shardfile"
	"dialga/internal/stream"
)

// shardTap is the gateway's shard transport with a tap on it: it logs
// every request line, counts response bodies opened and closed and the
// bytes read from them, and can run a hook as a request goes out.
type shardTap struct {
	base http.RoundTripper

	mu       sync.Mutex
	requests []string // "GET /v1/shard/obj/3?off=131072&len=118928"
	onSend   func(*http.Request)

	opened, closed atomic.Int32
	served         atomic.Int64 // response body bytes the gateway read
}

func (s *shardTap) RoundTrip(req *http.Request) (*http.Response, error) {
	s.mu.Lock()
	s.requests = append(s.requests, req.Method+" "+req.URL.RequestURI())
	hook := s.onSend
	s.mu.Unlock()
	if hook != nil {
		hook(req)
	}
	resp, err := s.base.RoundTrip(req)
	if err == nil {
		s.opened.Add(1)
		resp.Body = &tappedBody{ReadCloser: resp.Body, tap: s}
	}
	return resp, err
}

type tappedBody struct {
	io.ReadCloser
	tap  *shardTap
	once sync.Once
}

func (b *tappedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.tap.served.Add(int64(n))
	return n, err
}

func (b *tappedBody) Close() error {
	b.once.Do(func() { b.tap.closed.Add(1) })
	return b.ReadCloser.Close()
}

// take returns the requests logged since the last take.
func (s *shardTap) take() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.requests
	s.requests = nil
	return out
}

func countPrefix(reqs []string, prefix string) int {
	n := 0
	for _, r := range reqs {
		if strings.HasPrefix(r, prefix) {
			n++
		}
	}
	return n
}

// tappedCluster is startClusterOpts with a shardTap under the gateway.
func tappedCluster(t *testing.T, mod func(*GatewayOptions)) (*testCluster, *shardTap) {
	t.Helper()
	tap := &shardTap{base: &http.Transport{DisableKeepAlives: true}}
	tc := startClusterOpts(t, 6, 4, 2, func(o *GatewayOptions) {
		o.HTTPClient = &http.Client{Transport: tap}
		if mod != nil {
			mod(o)
		}
	})
	return tc, tap
}

func (tc *testCluster) shardPath(object string, idx int) string {
	tc.t.Helper()
	p, err := tc.gw.Place(object)
	if err != nil {
		tc.t.Fatal(err)
	}
	return shardfile.Path(filepath.Join(tc.node(p[idx].ID).dir, object), idx)
}

func (tc *testCluster) shardFile(object string, idx int) []byte {
	tc.t.Helper()
	raw, err := os.ReadFile(tc.shardPath(object, idx))
	if err != nil {
		tc.t.Fatal(err)
	}
	return raw
}

func (tc *testCluster) shardHeader(object string, idx int) shardfile.Header {
	tc.t.Helper()
	h, err := shardfile.Parse(bytes.NewReader(tc.shardFile(object, idx)))
	if err != nil {
		tc.t.Fatal(err)
	}
	return h
}

func (tc *testCluster) deleteShard(ctx context.Context, object string, idx int) {
	tc.t.Helper()
	p, _ := tc.gw.Place(object)
	cli, _ := tc.gw.Client(p[idx].ID)
	if err := cli.DeleteShard(ctx, object, idx); err != nil {
		tc.t.Fatal(err)
	}
}

func (tc *testCluster) put(ctx context.Context, object string, payload []byte) {
	tc.t.Helper()
	if _, err := tc.gw.PutObject(ctx, object, bytes.NewReader(payload), int64(len(payload)), node.ClassForeground); err != nil {
		tc.t.Fatal(err)
	}
}

func (tc *testCluster) counter(name string, labels ...obs.Label) uint64 {
	return tc.reg.Counter(name, "", labels...).Value()
}

// TestRepairRebuildsShardFilesExactly deletes each shard index of an
// object in turn and rebuilds it: the shard file RepairOne leaves on
// the node is byte-identical to the one PutObject wrote — header,
// blocks, trailers, data and parity alike — and it took exactly k
// source GETs and one PUT to get there.
func TestRepairRebuildsShardFilesExactly(t *testing.T) {
	tc, tap := tappedCluster(t, nil)
	ctx := context.Background()
	const object = "exact"
	tc.put(ctx, object, clusterPayload(301, 200_000)) // 64 KiB stripes: three full, one padded
	rep := NewRepairer(tc.gw, nil, tc.reg)

	for idx := 0; idx < 6; idx++ {
		want := tc.shardFile(object, idx)
		tc.deleteShard(ctx, object, idx)
		tap.take()
		readBefore := tc.counter("cluster_repair_read_bytes_total")
		wroteBefore := tc.counter("cluster_repair_bytes_total")

		if err := rep.RepairOne(ctx, object, idx); err != nil {
			t.Fatalf("repair shard %d: %v", idx, err)
		}
		if got := tc.shardFile(object, idx); !bytes.Equal(got, want) {
			t.Fatalf("shard %d: rebuilt file (%d bytes) differs from the one the put wrote (%d bytes)", idx, len(got), len(want))
		}
		reqs := tap.take()
		if gets, puts := countPrefix(reqs, "GET /v1/shard/"), countPrefix(reqs, "PUT /v1/shard/"); gets != 4 || puts != 1 || len(reqs) != 5 {
			t.Fatalf("shard %d: repair issued %v, want exactly 4 shard GETs and 1 PUT", idx, reqs)
		}
		if got := tc.counter("cluster_repair_read_bytes_total") - readBefore; got != 4*uint64(len(want)) {
			t.Fatalf("shard %d: cluster_repair_read_bytes_total moved %d, want %d (k shard files)", idx, got, 4*len(want))
		}
		if got := tc.counter("cluster_repair_bytes_total") - wroteBefore; got != uint64(len(want)) {
			t.Fatalf("shard %d: cluster_repair_bytes_total moved %d, want %d", idx, got, len(want))
		}
	}
	if tap.opened.Load() != tap.closed.Load() {
		t.Fatalf("%d response bodies opened, %d closed", tap.opened.Load(), tap.closed.Load())
	}
	tc.mustGet(ctx, object, clusterPayload(301, 200_000))
}

// TestRepairRewritesLegacyShard: a node holding one shard of an object
// in the retired trailer-less v2 framing — the payload intact, nothing
// to verify it by — holds a damaged shard. A GET reads around it as one
// erasure, the scan reports it as a bad header, and the repair rewrites
// it to exactly the v3 file the put wrote.
func TestRepairRewritesLegacyShard(t *testing.T) {
	tc, _ := tappedCluster(t, nil)
	ctx := context.Background()
	const object, legacy = "legacy", 2
	payload := clusterPayload(601, 200_000)
	tc.put(ctx, object, payload)
	want := tc.shardFile(object, legacy)
	h, err := shardfile.Parse(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	v2 := append([]byte(nil), want[:40]...)
	binary.LittleEndian.PutUint32(v2[4:], 2)
	for s := int64(0); s < int64(h.StripeCount); s++ {
		off := h.Size() + s*h.BlockSize()
		v2 = append(v2, want[off:off+int64(h.ShardSize)]...)
	}
	if err := os.WriteFile(tc.shardPath(object, legacy), v2, 0o644); err != nil {
		t.Fatal(err)
	}
	place, err := tc.gw.Place(object)
	if err != nil {
		t.Fatal(err)
	}
	failures := obs.Label{Key: "node", Value: string(place[legacy].ID)}

	tc.mustGet(ctx, object, payload)
	if got := tc.counter("cluster_open_failures_total", failures); got != 1 {
		t.Fatalf("cluster_open_failures_total{node=%s} = %d after the GET, want the v2 shard's one", place[legacy].ID, got)
	}

	rep := NewRepairer(tc.gw, nil, tc.reg)
	if queued, err := rep.ScanOnce(ctx); err != nil || queued != 1 {
		t.Fatalf("scan queued %d, %v: want the v2 shard", queued, err)
	}
	if got := tc.counter("cluster_scrub_damaged_total", obs.Label{Key: "status", Value: "bad-header"}); got != 1 {
		t.Fatalf("cluster_scrub_damaged_total{status=bad-header} = %d, want 1", got)
	}
	if repaired, failed := rep.DrainOnce(ctx); repaired != 1 || failed != 0 {
		t.Fatalf("repaired=%d failed=%d, want 1/0", repaired, failed)
	}
	if got := tc.shardFile(object, legacy); !bytes.Equal(got, want) {
		t.Fatalf("repaired shard (%d bytes) differs from the v3 file the put wrote (%d bytes)", len(got), len(want))
	}
}

// TestRepairSpareOpensAtFailingBlock: a source with one silently
// corrupt block is replaced mid-stream by a spare opened at that block;
// the rebuilt file is still exact, and the budget is charged the k
// shard files plus only the spare's remainder.
func TestRepairSpareOpensAtFailingBlock(t *testing.T) {
	tc, tap := tappedCluster(t, nil)
	ctx := context.Background()
	const object = "spare"
	tc.put(ctx, object, clusterPayload(303, 250_000)) // four stripes
	want := tc.shardFile(object, 0)
	h, err := shardfile.Parse(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}

	// Flip one payload bit in block 2 of shard 1 — a first-k source.
	raw := tc.shardFile(object, 1)
	raw[h.Size()+2*h.BlockSize()+100] ^= 0x08
	if err := os.WriteFile(tc.shardPath(object, 1), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	tc.deleteShard(ctx, object, 0)
	tap.take()

	if err := NewRepairer(tc.gw, nil, tc.reg).RepairOne(ctx, object, 0); err != nil {
		t.Fatal(err)
	}
	if got := tc.shardFile(object, 0); !bytes.Equal(got, want) {
		t.Fatal("rebuilt shard differs from the one the put wrote")
	}
	reqs := tap.take()
	if countPrefix(reqs, "GET /v1/shard/") != 5 || countPrefix(reqs, "GET /v1/shard/"+object+"/5?off=131072&len=118928") != 1 {
		t.Fatalf("requests %v, want 4 whole-shard GETs and shard 5 from block 2", reqs)
	}
	wantRead := 4*uint64(len(want)) + uint64(h.Size()) + 2*uint64(h.BlockSize())
	if got := tc.counter("cluster_repair_read_bytes_total"); got != wantRead {
		t.Fatalf("cluster_repair_read_bytes_total = %d, want %d", got, wantRead)
	}
	if tap.opened.Load() != tap.closed.Load() {
		t.Fatalf("%d response bodies opened, %d closed", tap.opened.Load(), tap.closed.Load())
	}
}

// TestRepairOutOfSparesSaysWhy: a source turns out corrupt mid-rebuild
// and the only spare sits on a stopped node. The rebuild fails, and its
// error names the node the spare could not be opened from — not just
// that no spare was left.
func TestRepairOutOfSparesSaysWhy(t *testing.T) {
	tc, _ := tappedCluster(t, nil)
	ctx := context.Background()
	const object = "no-spare"
	tc.put(ctx, object, clusterPayload(304, 250_000)) // four stripes
	raw := tc.shardFile(object, 1)
	h, err := shardfile.Parse(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	raw[h.Size()+2*h.BlockSize()+100] ^= 0x08 // block 2 of a first-k source
	if err := os.WriteFile(tc.shardPath(object, 1), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	place, err := tc.gw.Place(object)
	if err != nil {
		t.Fatal(err)
	}
	tc.deleteShard(ctx, object, 0)
	tc.node(place[5].ID).stop() // the spare's node

	err = NewRepairer(tc.gw, nil, tc.reg).RepairOne(ctx, object, 0)
	if want := fmt.Sprintf("shard 5 from %s", place[5].ID); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("RepairOne = %v, want an error naming %q", err, want)
	}
	if !errors.Is(err, stream.ErrTooManyCorrupt) {
		t.Fatalf("RepairOne = %v, want it to wrap stream.ErrTooManyCorrupt", err)
	}
}

// TestRepairSourcesMustAgree: a node that was down across an overwrite
// comes back holding a shard of the old version whose block checksums
// are all valid. Rebuilding from it would fold two versions into a
// shard whose own checksums verify, so a source whose header disagrees
// with the others about the object is an open failure: a spare takes
// its place, and with fewer than k sources in agreement the task fails,
// commits nothing, and stays queued.
func TestRepairSourcesMustAgree(t *testing.T) {
	for _, tc := range []struct {
		name         string
		oldSize      int
		newSize      int
		alsoLost     []int // shards of the new version deleted besides the target
		wantRepaired int
	}{
		{"other stripe count", 100_000, 200_000, nil, 1},
		{"same stripe count, other file size", 190_000, 200_000, nil, 1},
		{"fewer than k agree", 100_000, 200_000, []int{4}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := tappedCluster(t, func(o *GatewayOptions) {
				o.WriteQuorum = 5
			})
			ctx := context.Background()
			const object, stale, target = "overwritten", 1, 0
			place, err := c.gw.Place(object)
			if err != nil {
				t.Fatal(err)
			}
			staleNode := place[stale].ID

			c.put(ctx, object, clusterPayload(401, tc.oldSize))
			c.node(staleNode).stop()
			newPayload := clusterPayload(402, tc.newSize)
			c.put(ctx, object, newPayload) // degraded: the stale node keeps the old shard
			c.node(staleNode).start()

			want := c.shardFile(object, target)
			for _, idx := range append([]int{target}, tc.alsoLost...) {
				c.deleteShard(ctx, object, idx)
			}
			failuresBefore := c.counter("cluster_open_failures_total", obs.Label{Key: "node", Value: string(staleNode)})

			rep := NewRepairer(c.gw, nil, c.reg)
			rep.enqueue(repairTask{Object: object, Index: target}, c.gw.m-1, 0)
			repaired, failed := rep.DrainOnce(ctx)
			if repaired != tc.wantRepaired || failed != 1-tc.wantRepaired {
				t.Fatalf("repaired=%d failed=%d, want %d/%d", repaired, failed, tc.wantRepaired, 1-tc.wantRepaired)
			}
			if got := c.counter("cluster_open_failures_total", obs.Label{Key: "node", Value: string(staleNode)}) - failuresBefore; got != 1 {
				t.Fatalf("cluster_open_failures_total{node=%s} moved %d, want 1", staleNode, got)
			}
			if tc.wantRepaired == 1 {
				if got := c.shardFile(object, target); !bytes.Equal(got, want) {
					t.Fatal("rebuilt shard is not the new version's shard")
				}
				c.mustGetSkipping(ctx, object, newPayload, stale)
				return
			}
			if rep.pending() != 1 {
				t.Fatalf("pending = %d, want the failed task requeued", rep.pending())
			}
			if _, err := os.Stat(c.shardPath(object, target)); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("target shard after a failed rebuild: %v, want it absent", err)
			}
		})
	}
}

// mustGetSkipping reads the object back with one shard's node stopped,
// so the read cannot be served from (or confused by) that shard.
func (tc *testCluster) mustGetSkipping(ctx context.Context, object string, want []byte, skip int) {
	tc.t.Helper()
	p, _ := tc.gw.Place(object)
	n := tc.node(p[skip].ID)
	n.stop()
	defer n.start()
	tc.mustGet(ctx, object, want)
}

// TestRepairReleasesEverything: whichever way RepairOne ends — sources
// short, upload refused, context cancelled as the upload starts — every
// shard body it opened is closed, no goroutine is left behind, and no
// node is left holding a .put-*.tmp or a half-written shard.
func TestRepairReleasesEverything(t *testing.T) {
	tc, tap := tappedCluster(t, nil)
	ctx := context.Background()
	payload := clusterPayload(501, 1_000_000)
	for _, object := range []string{"short", "refused", "cancelled", "fine"} {
		tc.put(ctx, object, payload)
	}
	rep := NewRepairer(tc.gw, nil, tc.reg)
	// Warm whatever the first repair starts for good.
	tc.deleteShard(ctx, "fine", 2)
	if err := rep.RepairOne(ctx, "fine", 2); err != nil {
		t.Fatal(err)
	}
	settle := func() int {
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
		return runtime.NumGoroutine()
	}
	base := settle()

	// Sources short: three shards gone, so only three can open.
	for _, idx := range []int{0, 1, 2} {
		tc.deleteShard(ctx, "short", idx)
	}
	if err := rep.RepairOne(ctx, "short", 0); err == nil {
		t.Fatal("repair with three sources succeeded")
	}

	// Upload refused: the destination node is down.
	place, _ := tc.gw.Place("refused")
	tc.deleteShard(ctx, "refused", 3)
	tc.node(place[3].ID).stop()
	if err := rep.RepairOne(ctx, "refused", 3); err == nil {
		t.Fatal("repair onto a stopped node succeeded")
	}
	tc.node(place[3].ID).start()

	// Cancelled the moment the upload request goes out, with the source
	// streams open and the pipeline running.
	tc.deleteShard(ctx, "cancelled", 4)
	cctx, cancel := context.WithCancel(ctx)
	tap.mu.Lock()
	tap.onSend = func(req *http.Request) {
		if req.Method == http.MethodPut {
			cancel()
		}
	}
	tap.mu.Unlock()
	err := rep.RepairOne(cctx, "cancelled", 4)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled repair returned %v, want context.Canceled in the chain", err)
	}
	tap.mu.Lock()
	tap.onSend = nil
	tap.mu.Unlock()

	deadline := time.Now().Add(5 * time.Second)
	for {
		now := settle()
		if now <= base && tap.opened.Load() == tap.closed.Load() {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<17)
			t.Fatalf("goroutines base=%d now=%d, bodies opened=%d closed=%d:\n%s",
				base, now, tap.opened.Load(), tap.closed.Load(), buf[:runtime.Stack(buf, true)])
		}
	}

	for _, n := range tc.nodes {
		err := filepath.WalkDir(n.dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && strings.HasPrefix(d.Name(), ".put-") {
				return fmt.Errorf("%s left behind", path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for object, idx := range map[string]int{"short": 0, "refused": 3, "cancelled": 4} {
		if _, err := os.Stat(tc.shardPath(object, idx)); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s shard %d after a failed repair: %v, want it absent", object, idx, err)
		}
	}
	// Nothing was damaged by the failures: the two repairable objects
	// still rebuild and read back.
	for object, idx := range map[string]int{"refused": 3, "cancelled": 4} {
		if err := rep.RepairOne(ctx, object, idx); err != nil {
			t.Fatalf("repair %s after the failed attempt: %v", object, err)
		}
		tc.mustGet(ctx, object, payload)
	}
}
