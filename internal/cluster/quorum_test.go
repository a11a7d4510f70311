package cluster

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"dialga/internal/fault"
	"dialga/internal/node"
	"dialga/internal/obs"
	"dialga/internal/shardfile"
)

// quorumCluster starts a cluster whose gateway acks at quorum.
func quorumCluster(t *testing.T, n, k, m, quorum int) *testCluster {
	t.Helper()
	return startClusterOpts(t, n, k, m, func(o *GatewayOptions) {
		o.WriteQuorum = quorum
	})
}

func TestQuorumOptionValidation(t *testing.T) {
	cmap, err := New([]NodeInfo{
		{ID: "a", Addr: "h:1", Rack: "r1"}, {ID: "b", Addr: "h:2", Rack: "r2"},
		{ID: "c", Addr: "h:3", Rack: "r3"}, {ID: "d", Addr: "h:4", Rack: "r4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{1, 2, 5, -1} { // k=2, m=2: valid explicit range is [3,4]
		if _, err := NewGateway(GatewayOptions{Map: cmap, K: 2, M: 2, WriteQuorum: q}); err == nil {
			t.Errorf("WriteQuorum %d accepted for RS(2,2)", q)
		}
	}
	for _, q := range []int{0, 3, 4} {
		if _, err := NewGateway(GatewayOptions{Map: cmap, K: 2, M: 2, WriteQuorum: q}); err != nil {
			t.Errorf("WriteQuorum %d rejected for RS(2,2): %v", q, err)
		}
	}
}

// TestPutQuorumDegradedAck: one node down, quorum k+1 over RS(4,2) —
// the put must succeed degraded and the object must read back. The
// missed shard is found by a scan, like any other damage: while its
// node is down a scan skips it and a drain attempts no rebuild, and
// once the node is back one scan queues exactly that shard.
func TestPutQuorumDegradedAck(t *testing.T) {
	tc := quorumCluster(t, 6, 4, 2, 5)
	ctx := context.Background()

	const object = "degraded-put"
	payload := clusterPayload(41, 256_000)
	place, err := tc.gw.Place(object)
	if err != nil {
		t.Fatal(err)
	}
	downIdx := 2
	tc.node(place[downIdx].ID).stop()

	p, err := tc.gw.PutObject(ctx, object, bytes.NewReader(payload), int64(len(payload)), node.ClassForeground)
	if err != nil {
		t.Fatalf("degraded put: %v", err)
	}
	if len(p) != 6 {
		t.Fatalf("placement size %d", len(p))
	}
	tc.mustGet(ctx, object, payload)

	if v := tc.reg.Counter("cluster_put_degraded_total", "").Value(); v != 1 {
		t.Fatalf("cluster_put_degraded_total = %d, want 1", v)
	}
	if v := tc.reg.Counter("cluster_puts_total", "",
		obs.Label{Key: "result", Value: "degraded"}).Value(); v != 1 {
		t.Fatalf("cluster_puts_total{degraded} = %d, want 1", v)
	}
	if v := tc.reg.Counter("cluster_put_shard_failures_total", "",
		obs.Label{Key: "node", Value: string(place[downIdx].ID)}).Value(); v == 0 {
		t.Fatal("cluster_put_shard_failures_total for the dead node never moved")
	}

	// The node is still down: its shard is unreachable, not damaged, so
	// nothing is queued and no rebuild is attempted against it.
	rep := NewRepairer(tc.gw, nil, tc.reg)
	if n, err := rep.ScanOnce(ctx); err != nil || n != 0 {
		t.Fatalf("scan with the node down queued %d, %v; want none", n, err)
	}
	if repaired, failed := rep.DrainOnce(ctx); repaired != 0 || failed != 0 {
		t.Fatalf("drain with the node down: repaired=%d failed=%d, want nothing attempted", repaired, failed)
	}
	for _, result := range []string{"ok", "error"} {
		if v := tc.reg.Counter("cluster_repairs_total", "",
			obs.Label{Key: "result", Value: result}).Value(); v != 0 {
			t.Fatalf("cluster_repairs_total{%s} = %d with the node down, want 0", result, v)
		}
	}
	if v := tc.reg.Counter("cluster_scrub_unreachable_total", "").Value(); v != 1 {
		t.Fatalf("cluster_scrub_unreachable_total = %d, want 1", v)
	}

	// The node is back without its shard: a scan owes exactly that one.
	tc.node(place[downIdx].ID).start()
	want := repairTask{Object: object, Index: downIdx}
	if n, err := rep.ScanOnce(ctx); err != nil || n != 1 {
		t.Fatalf("scan after the node returned queued %d, %v; want 1", n, err)
	}
	if it, _ := rep.pop(); it.repairTask != want {
		t.Fatalf("scan queued %+v, want %v", it.repairTask, want)
	}
	// A later full-width rewrite of the object leaves nothing owed.
	if _, err := tc.gw.PutObject(ctx, object, bytes.NewReader(payload), int64(len(payload)), node.ClassForeground); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if n, err := rep.ScanOnce(ctx); err != nil || n != 0 {
		t.Fatalf("scan after a full rewrite queued %d, %v; want none", n, err)
	}
}

// TestPutBelowQuorumFails: with three nodes down and quorum k+1 the
// put must fail, and the shards that landed, fewer than k, must be
// cleaned up. (With k or more landed they stay: see
// TestPutFailedOverwriteKeepsAVersion.)
func TestPutBelowQuorumFails(t *testing.T) {
	tc := quorumCluster(t, 6, 4, 2, 5)
	ctx := context.Background()

	const object = "below-quorum"
	payload := clusterPayload(43, 128_000)
	place, err := tc.gw.Place(object)
	if err != nil {
		t.Fatal(err)
	}
	down := map[int]bool{0: true, 3: true, 4: true}
	for idx := range down {
		tc.node(place[idx].ID).stop()
	}

	_, err = tc.gw.PutObject(ctx, object, bytes.NewReader(payload), int64(len(payload)), node.ClassForeground)
	if err == nil {
		t.Fatal("put below quorum succeeded")
	}
	if v := tc.reg.Counter("cluster_put_degraded_total", "").Value(); v != 0 {
		t.Fatalf("cluster_put_degraded_total = %d after a failed put, want 0", v)
	}
	// Best-effort cleanup: the live nodes hold nothing for the object.
	for idx, info := range place {
		if down[idx] {
			continue
		}
		cli, _ := tc.gw.Client(info.ID)
		if _, err := cli.StatShard(ctx, object, idx); !errors.Is(err, node.ErrNotFound) {
			t.Errorf("shard %d on %s survived a failed put: %v", idx, info.ID, err)
		}
	}
}

// TestPutRetriesTransientFaults: a node whose first two requests are
// refused at the transport must still receive its shard via the
// retry path (a fresh body over the lent stripes), leaving the put fully redundant.
func TestPutRetriesTransientFaults(t *testing.T) {
	ft := fault.NewTransport(&http.Transport{DisableKeepAlives: true})
	tc := startClusterOpts(t, 6, 4, 2, func(o *GatewayOptions) {
		o.WriteQuorum = 5
		o.HTTPClient = &http.Client{Transport: ft}
	})
	ctx := context.Background()

	const object = "retry-me"
	payload := clusterPayload(47, 200_000)
	place, err := tc.gw.Place(object)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("refuse@0+2")
	if err != nil {
		t.Fatal(err)
	}
	ft.Set(place[1].Addr, plan)

	if _, err := tc.gw.PutObject(ctx, object, bytes.NewReader(payload), int64(len(payload)), node.ClassForeground); err != nil {
		t.Fatalf("put with transient refusals: %v", err)
	}
	// Third attempt (request index 2) got through: the shard is on the
	// faulted node, and the put was not even degraded.
	cli, _ := tc.gw.Client(place[1].ID)
	if st, err := cli.StatShard(ctx, object, 1); err != nil || int(st.Index) != 1 {
		t.Fatalf("shard 1 on refused node: %+v, %v", st, err)
	}
	if v := tc.reg.Counter("cluster_puts_total", "",
		obs.Label{Key: "result", Value: "ok"}).Value(); v != 1 {
		t.Fatalf("cluster_puts_total{ok} = %d, want 1", v)
	}
	if v := tc.reg.Counter("cluster_put_degraded_total", "").Value(); v != 0 {
		t.Fatalf("cluster_put_degraded_total = %d, want 0", v)
	}
	tc.mustGet(ctx, object, payload)
}

// trickleReader yields one byte every few milliseconds, forever — the
// pathological slow client that used to pin a cancelled put's
// pipeline (encoder, pipes, and uploader goroutines) indefinitely.
type trickleReader struct{}

func (trickleReader) Read(p []byte) (int, error) {
	time.Sleep(2 * time.Millisecond) // paces the reader; decides no outcome
	if len(p) > 0 {
		p[0] = 'z'
	}
	return 1, nil
}

// TestPutCancellationReleasesPipeline cancels a put fed by a trickling
// reader and requires both a prompt error return and that every
// goroutine the put spawned exits.
func TestPutCancellationReleasesPipeline(t *testing.T) {
	tc := quorumCluster(t, 6, 4, 2, 5)
	ctx, cancel := context.WithCancel(context.Background())

	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := tc.gw.PutObject(ctx, "cancelled", trickleReader{}, 1<<30, node.ClassForeground)
		done <- err
	}()
	// Lets the pipeline spin up mid-encode; decides no outcome, as a put
	// cancelled at any point must fail and release its goroutines.
	time.Sleep(50 * time.Millisecond)
	cancel()

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled put returned nil")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled put returned %v, want context.Canceled in the chain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled put never returned")
	}

	// Every pipeline goroutine must wind down. Allow generous slack
	// for unrelated runtime/net goroutines to settle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines before=%d after=%d; put leaked:\n%s", before, now, buf[:n])
		}
		time.Sleep(20 * time.Millisecond) // paces the poll; the 5 s deadline decides the outcome
	}
}

// TestPutRetryDisabled: PutRetries -1 keeps the original
// fail-fast-per-shard behaviour (a window of stripes, no retry), still under quorum rules.
func TestPutRetryDisabled(t *testing.T) {
	tc := startClusterOpts(t, 6, 4, 2, func(o *GatewayOptions) {
		o.WriteQuorum = 5
		o.PutRetries = -1
	})
	ctx := context.Background()

	const object = "no-retries"
	payload := clusterPayload(53, 100_000)
	place, err := tc.gw.Place(object)
	if err != nil {
		t.Fatal(err)
	}
	tc.node(place[5].ID).stop()
	if _, err := tc.gw.PutObject(ctx, object, bytes.NewReader(payload), int64(len(payload)), node.ClassForeground); err != nil {
		t.Fatalf("put: %v", err)
	}
	if v := tc.reg.Counter("cluster_put_degraded_total", "").Value(); v != 1 {
		t.Fatalf("cluster_put_degraded_total = %d, want 1", v)
	}
	tc.mustGet(ctx, object, payload)
	tc.node(place[5].ID).start()
	rep := NewRepairer(tc.gw, nil, nil)
	if n, err := rep.ScanOnce(ctx); err != nil || n != 1 {
		t.Fatalf("scan queued %d, %v; want shard 5 owed", n, err)
	}
	if it, _ := rep.pop(); it.Index != 5 {
		t.Fatalf("scan queued shard %d, want 5", it.Index)
	}
}

// TestRepairScanFindsStaleShardAfterCrash: a degraded same-size
// overwrite leaves the node holding data shard 0 with the old version's
// shard, whose blocks and header checksums all check out, and the
// gateway that acked the overwrite is lost. The shard names itself by
// its older generation: a GET returns the new version before any
// repair, one scan queues exactly shard 0, and the rebuilt shard
// carries the new version's generation.
func TestRepairScanFindsStaleShardAfterCrash(t *testing.T) {
	tc := quorumCluster(t, 6, 4, 2, 5)
	ctx := context.Background()
	const object = "overwritten"
	v1, v2 := clusterPayload(61, 300_000), clusterPayload(62, 300_000)
	tc.put(ctx, object, v1)
	place, err := tc.gw.Place(object)
	if err != nil {
		t.Fatal(err)
	}
	holder := tc.node(place[0].ID)
	holder.stop()
	tc.put(ctx, object, v2)

	// The crash: nothing of the acking gateway survives.
	tc.reg = obs.NewRegistry()
	tc.gw, err = NewGateway(GatewayOptions{
		Map: tc.cmap, K: 4, M: 2,
		StripeSize:  64 * 1024,
		HedgeAfter:  30 * time.Millisecond,
		Metrics:     tc.reg,
		WriteQuorum: 5,
		HTTPClient:  &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	holder.start()
	tc.mustGet(ctx, object, v2)

	rep := NewRepairer(tc.gw, nil, tc.reg)
	if n, err := rep.ScanOnce(ctx); err != nil || n != 1 {
		t.Fatalf("scan queued %d, %v; want the stale shard alone", n, err)
	}
	if v := tc.counter("cluster_scrub_damaged_total", obs.Label{Key: "status", Value: "stale"}); v != 1 {
		t.Fatalf("cluster_scrub_damaged_total{status=stale} = %d, want 1", v)
	}
	if ok, failed := rep.DrainOnce(ctx); ok != 1 || failed != 0 {
		t.Fatalf("drain repaired %d, failed %d; want 1 and 0", ok, failed)
	}
	stat := func(idx int) shardfile.Header {
		cli, _ := tc.gw.Client(place[idx].ID)
		st, err := cli.StatShard(ctx, object, idx)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if got, want := stat(0).Generation, stat(1).Generation; got != want || want == 0 {
		t.Fatalf("rebuilt shard 0 is at generation %d, the object at %d", got, want)
	}
	tc.mustGet(ctx, object, v2)
}

// putGate orders one put's uploads against another put's to the same
// key, shard by shard: an upload of a shard in wait is held until the
// other put's upload of it has landed (closed its channel), and an
// upload of a shard in landed closes that channel when it ends.
type putGate struct {
	base   http.RoundTripper
	object string
	wait   map[int]chan struct{}
	landed map[int]chan struct{}
}

func (g *putGate) RoundTrip(req *http.Request) (*http.Response, error) {
	idx := -1
	if rest, ok := strings.CutPrefix(req.URL.Path, "/v1/shard/"+g.object+"/"); ok && req.Method == http.MethodPut {
		idx, _ = strconv.Atoi(rest)
	}
	if ch := g.wait[idx]; ch != nil {
		<-ch
	}
	if ch := g.landed[idx]; ch != nil {
		defer close(ch)
	}
	return g.base.RoundTrip(req)
}

// TestPutConcurrentSameKey: two puts of the same size to one key, each
// through its own gateway, reach the nodes interleaved: on every node
// one put's shard lands and then the other's replaces it, so each node
// keeps either version. The shards' geometry is the same, and only
// their generation tells the versions apart. Every GET returns exactly
// one put's bytes, or an error.
func TestPutConcurrentSameKey(t *testing.T) {
	tc := startCluster(t, 6, 4, 2)
	ctx := context.Background()
	const object = "contended"
	payloads := [2][]byte{clusterPayload(71, 300_000), clusterPayload(72, 300_000)}
	// survivor[i] is the put whose shard i lands last, so stays.
	for _, survivor := range [][6]int{
		{0, 0, 1, 1, 1, 1},
		{1, 1, 1, 1, 0, 0},
		{0, 1, 0, 1, 0, 1},
		{1, 0, 0, 0, 1, 1},
		{0, 0, 0, 1, 1, 1},
	} {
		var gates [2]*putGate
		for p := range gates {
			gates[p] = &putGate{base: &http.Transport{DisableKeepAlives: true}, object: object,
				wait: map[int]chan struct{}{}, landed: map[int]chan struct{}{}}
		}
		for idx, last := range survivor {
			ch := make(chan struct{})
			gates[last].wait[idx], gates[1-last].landed[idx] = ch, ch
		}
		errs := make(chan error, 2)
		for p, gate := range gates {
			gw, err := NewGateway(GatewayOptions{Map: tc.cmap, K: 4, M: 2, StripeSize: 64 * 1024,
				HTTPClient: &http.Client{Transport: gate}})
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				_, err := gw.PutObject(ctx, object, bytes.NewReader(payloads[p]), int64(len(payloads[p])), node.ClassForeground)
				errs <- err
			}()
		}
		for range gates {
			if err := <-errs; err != nil {
				t.Fatalf("survivors %v: put: %v", survivor, err)
			}
		}
		var out bytes.Buffer
		err := tc.gw.GetObject(ctx, object, &out, node.ClassForeground)
		switch {
		case err != nil:
			t.Logf("survivors %v: get refused: %v", survivor, err)
		case !bytes.Equal(out.Bytes(), payloads[0]) && !bytes.Equal(out.Bytes(), payloads[1]):
			t.Fatalf("survivors %v: get returned %d bytes that are neither put's", survivor, out.Len())
		}
	}
}

// TestPutFailedOverwriteKeepsAVersion: at the default quorum (all k+m),
// an overwrite with one node down lands 5 of 6 shards and fails. Those
// 5 uploads have already replaced the acknowledged version's shards by
// rename, so deleting them would leave one shard of either version and
// neither readable. Kept, they are the version a GET returns, the stale
// shard is outvoted, and a scan owes exactly that shard.
func TestPutFailedOverwriteKeepsAVersion(t *testing.T) {
	tc := startCluster(t, 6, 4, 2)
	ctx := context.Background()
	const object = "failed-overwrite"
	v1, v2 := clusterPayload(81, 300_000), clusterPayload(82, 300_000)
	tc.put(ctx, object, v1)
	place, err := tc.gw.Place(object)
	if err != nil {
		t.Fatal(err)
	}
	down := tc.node(place[5].ID)
	down.stop()
	_, err = tc.gw.PutObject(ctx, object, bytes.NewReader(v2), int64(len(v2)), node.ClassForeground)
	if err == nil || !strings.Contains(err.Error(), "only 5 of 6 shards landed") {
		t.Fatalf("overwrite with a node down: %v, want it refused below quorum", err)
	}
	down.start()

	var out bytes.Buffer
	if err := tc.gw.GetObject(ctx, object, &out, node.ClassForeground); err != nil ||
		!(bytes.Equal(out.Bytes(), v1) || bytes.Equal(out.Bytes(), v2)) {
		t.Fatalf("get after the failed overwrite: %v, %d bytes that are neither version", err, out.Len())
	}
	rep := NewRepairer(tc.gw, nil, tc.reg)
	if n, err := rep.ScanOnce(ctx); err != nil || n != 1 {
		t.Fatalf("scan queued %d, %v; want the one stale shard", n, err)
	}
	if ok, failed := rep.DrainOnce(ctx); ok != 1 || failed != 0 {
		t.Fatalf("drain repaired %d, failed %d; want 1 and 0", ok, failed)
	}
	if n, err := rep.ScanOnce(ctx); err != nil || n != 0 {
		t.Fatalf("scan after repair queued %d, %v; want none", n, err)
	}
	tc.mustGet(ctx, object, v2)
}
