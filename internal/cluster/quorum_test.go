package cluster

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"dialga/internal/fault"
	"dialga/internal/node"
	"dialga/internal/obs"
)

// quorumCluster starts a cluster whose gateway acks at quorum, with a
// durable intent log.
func quorumCluster(t *testing.T, n, k, m, quorum int) (*testCluster, *IntentLog) {
	t.Helper()
	log, err := OpenIntentLog(filepath.Join(t.TempDir(), "intents.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	tc := startClusterOpts(t, n, k, m, func(o *GatewayOptions) {
		o.WriteQuorum = quorum
		o.Intents = log
	})
	return tc, log
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
// the put must succeed degraded, journal an intent for the missing
// shard, fire the OnDegraded hook, and the object must read back.
func TestPutQuorumDegradedAck(t *testing.T) {
	tc, log := quorumCluster(t, 6, 4, 2, 5)
	ctx := context.Background()

	var mu sync.Mutex
	var hooked []Intent
	tc.gw.SetOnDegraded(func(object string, index int) {
		mu.Lock()
		hooked = append(hooked, Intent{Object: object, Index: index})
		mu.Unlock()
	})

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

	want := []Intent{{Object: object, Index: downIdx}}
	if got := log.Pending(); len(got) != 1 || got[0] != want[0] {
		t.Fatalf("pending intents = %v, want %v", got, want)
	}
	mu.Lock()
	h := append([]Intent(nil), hooked...)
	mu.Unlock()
	if len(h) != 1 || h[0] != want[0] {
		t.Fatalf("OnDegraded saw %v, want %v", h, want)
	}
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

	// A later full-width rewrite of the object discharges the intent.
	tc.node(place[downIdx].ID).start()
	if _, err := tc.gw.PutObject(ctx, object, bytes.NewReader(payload), int64(len(payload)), node.ClassForeground); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if got := log.Pending(); len(got) != 0 {
		t.Fatalf("intents after full rewrite = %v, want none", got)
	}
}

// TestPutBelowQuorumFails: with two nodes down and quorum k+1 the put
// must fail, and the shards that landed must be cleaned up.
func TestPutBelowQuorumFails(t *testing.T) {
	tc, log := quorumCluster(t, 6, 4, 2, 5)
	ctx := context.Background()

	const object = "below-quorum"
	payload := clusterPayload(43, 128_000)
	place, err := tc.gw.Place(object)
	if err != nil {
		t.Fatal(err)
	}
	tc.node(place[0].ID).stop()
	tc.node(place[3].ID).stop()

	_, err = tc.gw.PutObject(ctx, object, bytes.NewReader(payload), int64(len(payload)), node.ClassForeground)
	if err == nil {
		t.Fatal("put below quorum succeeded")
	}
	if got := log.Pending(); len(got) != 0 {
		t.Fatalf("failed put journaled intents: %v", got)
	}
	// Best-effort cleanup: the live nodes hold nothing for the object.
	for idx, info := range place {
		if idx == 0 || idx == 3 {
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
	time.Sleep(2 * time.Millisecond)
	if len(p) > 0 {
		p[0] = 'z'
	}
	return 1, nil
}

// TestPutCancellationReleasesPipeline cancels a put fed by a trickling
// reader and requires both a prompt error return and that every
// goroutine the put spawned exits.
func TestPutCancellationReleasesPipeline(t *testing.T) {
	tc, _ := quorumCluster(t, 6, 4, 2, 5)
	ctx, cancel := context.WithCancel(context.Background())

	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := tc.gw.PutObject(ctx, "cancelled", trickleReader{}, 1<<30, node.ClassForeground)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the pipeline spin up mid-encode
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
		time.Sleep(20 * time.Millisecond)
	}
}

// TestPutRetryDisabled: PutRetries -1 keeps the original
// fail-fast-per-shard behaviour (a window of stripes, no retry), still under quorum rules.
func TestPutRetryDisabled(t *testing.T) {
	log, err := OpenIntentLog(filepath.Join(t.TempDir(), "intents.log"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	tc := startClusterOpts(t, 6, 4, 2, func(o *GatewayOptions) {
		o.WriteQuorum = 5
		o.PutRetries = -1
		o.Intents = log
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
	if got := log.Pending(); len(got) != 1 || got[0].Index != 5 {
		t.Fatalf("pending = %v, want shard 5 owed", got)
	}
	tc.mustGet(ctx, object, payload)
}

// TestIntentJournalRepairsStaleShardAfterCrash: the write-intent
// journal is what makes a degraded same-size overwrite whole after the
// gateway that acked it crashes. The node holding data shard 0 misses
// the overwrite and comes back with the old version's shard, whose
// blocks and header all check out: a scrub passes it, and only the
// journal says it is stale. Adopting the journal rebuilds it, and the
// GET returns the new version.
func TestIntentJournalRepairsStaleShardAfterCrash(t *testing.T) {
	tc, log := quorumCluster(t, 6, 4, 2, 5)
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
	if got, want := log.Pending(), []Intent{{Object: object, Index: 0}}; len(got) != 1 || got[0] != want[0] {
		t.Fatalf("pending intents = %v, want %v", got, want)
	}

	// The crash: nothing of the acking gateway survives but the log.
	tc.reg = obs.NewRegistry()
	tc.gw, err = NewGateway(GatewayOptions{
		Map: tc.cmap, K: 4, M: 2,
		StripeSize:  64 * 1024,
		HedgeAfter:  30 * time.Millisecond,
		Metrics:     tc.reg,
		WriteQuorum: 5,
		Intents:     log,
		HTTPClient:  &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	holder.start()

	rep := NewRepairer(tc.gw, nil, nil)
	if n := rep.AdoptIntents(); n != 1 {
		t.Fatalf("adopted %d intents, want 1", n)
	}
	if ok, failed := rep.DrainOnce(ctx); ok != 1 || failed != 0 {
		t.Fatalf("drain repaired %d, failed %d; want 1 and 0", ok, failed)
	}
	if got := log.Pending(); len(got) != 0 {
		t.Fatalf("intents after repair = %v, want none", got)
	}
	tc.mustGet(ctx, object, v2)
}
