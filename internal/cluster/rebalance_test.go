package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"dialga/internal/fault"
	"dialga/internal/node"
	"dialga/internal/obs"
	"dialga/internal/shardfile"
)

// TestUpdateMapValidation pins the swap rules: only strictly newer
// epochs with enough failure domains are accepted, and a surviving
// node's pooled client is reused across the swap.
func TestUpdateMapValidation(t *testing.T) {
	tc := startCluster(t, 6, 4, 2)
	cur := tc.gw.Map()

	if err := tc.gw.UpdateMap(nil); err == nil {
		t.Fatal("nil map accepted")
	}
	if err := tc.gw.UpdateMap(cur.WithEpoch(0)); err == nil {
		t.Fatal("same-epoch map accepted")
	}
	small, err := New(cur.Nodes()[:4])
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.gw.UpdateMap(small.WithEpoch(5)); err == nil {
		t.Fatal("map with too few domains for RS(4,2) accepted")
	}

	before, _ := tc.gw.Client("n0")
	if err := tc.gw.UpdateMap(cur.WithEpoch(1)); err != nil {
		t.Fatalf("valid swap rejected: %v", err)
	}
	if got := tc.gw.Map().Epoch(); got != 1 {
		t.Fatalf("epoch after swap = %d, want 1", got)
	}
	after, _ := tc.gw.Client("n0")
	if before != after {
		t.Fatal("client for unchanged node was rebuilt, not reused")
	}
	if err := tc.gw.UpdateMap(cur.WithEpoch(1)); err == nil {
		t.Fatal("replayed epoch accepted")
	}
}

// TestRepairPreemptsMigration pins the queue's scheduling contract:
// genuine repairs sort before migrations at equal urgency, lower
// redundancy preempts everything, and a queued migration is never
// demoted to a rebuild by a later repair enqueue for the same slot.
func TestRepairPreemptsMigration(t *testing.T) {
	infos := make([]NodeInfo, 6)
	for i := range infos {
		infos[i] = NodeInfo{
			ID:   NodeID(fmt.Sprintf("n%d", i)),
			Addr: fmt.Sprintf("203.0.113.%d:1", i), // never dialed
			Rack: fmt.Sprintf("r%d", i),
		}
	}
	cmap, err := New(infos)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := NewGateway(GatewayOptions{Map: cmap, K: 4, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRepairer(gw, nil, nil)

	r.enqueueItem(repairItem{
		repairTask: repairTask{Object: "moved", Index: 0},
		redundancy: 2, migrate: true, srcID: "n0",
	})
	r.enqueueItem(repairItem{
		repairTask: repairTask{Object: "later", Index: 0},
		redundancy: 2, migrate: true, srcID: "n1",
	})
	r.enqueue(repairTask{Object: "damaged", Index: 0}, 2, 0)
	// A repair report for an already-queued migration raises its
	// urgency but keeps the cheap copy as the plan.
	r.enqueue(repairTask{Object: "moved", Index: 0}, r.gw.m-1, 0)

	want := []struct {
		object  string
		migrate bool
	}{
		{"moved", true},    // redundancy lowered to m-1 by the repair enqueue
		{"damaged", false}, // repair before migration at redundancy m
		{"later", true},
	}
	for i, w := range want {
		it, ok := r.pop()
		if !ok {
			t.Fatalf("pop %d: queue empty", i)
		}
		if it.Object != w.object || it.migrate != w.migrate {
			t.Fatalf("pop %d: got %s (migrate=%v), want %s (migrate=%v)",
				i, it.Object, it.migrate, w.object, w.migrate)
		}
	}
}

// placementDiff counts the shard indices whose home differs for
// object between two maps.
func placementDiff(t *testing.T, a, b *Map, object string, n int) int {
	t.Helper()
	pa, err := a.Place(object, n)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Place(object, n)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := 0; i < n; i++ {
		if pa[i].ID != pb[i].ID {
			diff++
		}
	}
	return diff
}

// TestEpochSwapRebalanceConvergence is the acceptance test for
// versioned membership: while a seeded fault plan disturbs the
// network, the cluster map is swapped mid-workload — one node added,
// one node (a whole rack) removed. A read opened under the old epoch
// must complete byte-exact on the old epoch; reads during and after
// the swap must stay byte-exact; Rebalance plus a drain must converge
// every object onto the new placement with zero lost shards, an
// emptied removed node, and nothing left for a repair scan; and a Range
// read afterwards must match the full read's bytes while moving
// strictly fewer shard bytes.
func TestEpochSwapRebalanceConvergence(t *testing.T) {
	ft := fault.NewTransport(&http.Transport{DisableKeepAlives: true})
	tap := &shardTap{base: ft}
	tc := startClusterOpts(t, 6, 4, 2, func(o *GatewayOptions) {
		o.HTTPClient = &http.Client{Timeout: 5 * time.Second, Transport: tap}
	})
	ctx := context.Background()
	const n = 6 // k+m

	// The incoming member: a live node the serving map does not know
	// yet, in a brand-new rack.
	extra := &testNode{t: t, id: "n6", dir: t.TempDir(), addr: "127.0.0.1:0", reg: tc.reg}
	extra.start()
	t.Cleanup(extra.stop)

	oldMap := tc.gw.Map()
	var infos []NodeInfo
	for _, in := range oldMap.Nodes() {
		if in.ID == "n1" { // drop n1: rack r1 leaves the cluster
			continue
		}
		infos = append(infos, in)
	}
	infos = append(infos, NodeInfo{ID: extra.id, Addr: extra.addr, Rack: "r6", Zone: "z0"})
	newMap, err := New(infos)
	if err != nil {
		t.Fatal(err)
	}
	newMap = newMap.WithEpoch(oldMap.Epoch() + 1)

	// Pick objects that stay readable throughout the move: every
	// object loses its n1 shard, and RS(4,2) with all shards probed
	// tolerates up to m=2 displaced shards mid-migration.
	var names []string
	expectMoves := 0
	for i := 0; i < 400 && len(names) < 5; i++ {
		name := fmt.Sprintf("swap-%d", i)
		if d := placementDiff(t, oldMap, newMap, name, n); d >= 1 && d <= 2 {
			names = append(names, name)
			expectMoves += d
		}
	}
	if len(names) < 3 {
		t.Fatalf("seed yields only %d movable-but-readable objects", len(names))
	}

	const objSize = 200_000
	payloads := map[string][]byte{}
	for i, name := range names {
		payloads[name] = clusterPayload(uint64(500+i), objSize)
		if _, err := tc.gw.PutObject(ctx, name, bytes.NewReader(payloads[name]), objSize, node.ClassForeground); err != nil {
			t.Fatalf("put %s: %v", name, err)
		}
	}

	// Open a read under epoch 0, swap to epoch 1 underneath it, then
	// let it finish: it must stream byte-exact from the epoch-0 shard
	// set it opened.
	inflight, err := tc.gw.OpenObject(ctx, names[0], node.ClassForeground)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.gw.UpdateMap(newMap); err != nil {
		t.Fatalf("swap: %v", err)
	}
	if got := tc.gw.Map().Epoch(); got != 1 {
		t.Fatalf("epoch = %d, want 1", got)
	}
	var got bytes.Buffer
	if err := inflight.WriteTo(ctx, &got); err != nil {
		t.Fatalf("in-flight read across swap: %v", err)
	}
	if !bytes.Equal(got.Bytes(), payloads[names[0]]) {
		t.Fatal("in-flight read across swap: payload mismatch")
	}

	// Reads under the new epoch, before any byte has moved: displaced
	// shards are simply absent at their new homes, within tolerance.
	for name, want := range payloads {
		tc.mustGet(ctx, name, want)
	}

	// Seeded chaos on the migration destination: the first PutShard
	// attempts to the new node are refused (a transient fault), so the
	// drain must requeue and retry through it.
	refuse, err := fault.Parse("refuse@0+2")
	if err != nil {
		t.Fatal(err)
	}
	ft.Set(extra.addr, refuse)

	rep := NewRepairer(tc.gw, nil, tc.reg)
	moves, err := rep.Rebalance(ctx, oldMap)
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if moves != expectMoves {
		t.Fatalf("rebalance enqueued %d moves, placement diff says %d", moves, expectMoves)
	}

	// Foreground reads run while the queue drains.
	stop := make(chan struct{})
	readErr := make(chan error, 1)
	go func() {
		defer close(readErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for name, want := range payloads {
				var out bytes.Buffer
				if err := tc.gw.GetObject(ctx, name, &out, node.ClassForeground); err != nil {
					readErr <- fmt.Errorf("read %s during rebalance: %w", name, err)
					return
				}
				if !bytes.Equal(out.Bytes(), want) {
					readErr <- fmt.Errorf("read %s during rebalance: payload mismatch", name)
					return
				}
			}
		}
	}()

	deadline := time.Now().Add(30 * time.Second)
	for rep.pending() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("rebalance queue not drained: %d pending", rep.pending())
		}
		rep.DrainOnce(ctx)
	}
	close(stop)
	if err := <-readErr; err != nil {
		t.Fatal(err)
	}
	ft.Heal(extra.addr)

	// Converged: every shard lives at its new home, the removed node
	// is empty, a repair scan finds nothing owed, and every object
	// still reads byte-exact.
	for _, name := range names {
		p, err := newMap.Place(name, n)
		if err != nil {
			t.Fatal(err)
		}
		for idx, info := range p {
			cli, ok := tc.gw.Client(info.ID)
			if !ok {
				t.Fatalf("no client for %s", info.ID)
			}
			if _, err := cli.StatShard(ctx, name, idx); err != nil {
				t.Fatalf("%s shard %d missing at new home %s: %v", name, idx, info.ID, err)
			}
		}
	}
	left, err := node.NewClient(tc.nodes[1].addr).Objects(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("removed node still holds shards for %v", left)
	}
	if n, err := rep.ScanOnce(ctx); err != nil || n != 0 {
		t.Fatalf("scan after the rebalance queued %d, %v; want none", n, err)
	}
	for name, want := range payloads {
		tc.mustGet(ctx, name, want)
	}

	// Range reads on the rebalanced cluster: byte-identical to slices
	// of the full read, for strictly fewer shard bytes moved.
	name, payload := names[0], payloads[names[0]]
	before := tap.served.Load()
	var full bytes.Buffer
	if err := tc.gw.GetObject(ctx, name, &full, node.ClassForeground); err != nil {
		t.Fatal(err)
	}
	fullBytes := tap.served.Load() - before
	for _, win := range [][2]int64{{0, 100}, {70_000, 4_000}, {objSize - 999, 999}} {
		before = tap.served.Load()
		var part bytes.Buffer
		if err := tc.gw.getObjectRange(ctx, name, &part, win[0], win[1], node.ClassForeground); err != nil {
			t.Fatalf("range (%d,%d): %v", win[0], win[1], err)
		}
		rangeBytes := tap.served.Load() - before
		if !bytes.Equal(part.Bytes(), payload[win[0]:win[0]+win[1]]) {
			t.Fatalf("range (%d,%d): bytes differ from full-read slice", win[0], win[1])
		}
		if !bytes.Equal(part.Bytes(), full.Bytes()[win[0]:win[0]+win[1]]) {
			t.Fatalf("range (%d,%d): bytes differ from the full GET", win[0], win[1])
		}
		if rangeBytes >= fullBytes {
			t.Fatalf("range (%d,%d) moved %d shard bytes, full read %d: want strictly fewer",
				win[0], win[1], rangeBytes, fullBytes)
		}
	}
}

// TestMigrationReadsSourceOnce: a migration asks its source for the
// shard once — the GET whose header sizes the pace and the upload, no
// stat before it — and the file arrives at its new home byte for byte.
func TestMigrationReadsSourceOnce(t *testing.T) {
	tc, tap := tappedCluster(t, nil)
	ctx := context.Background()
	extra := &testNode{t: t, id: "n6", dir: t.TempDir(), addr: "127.0.0.1:0", reg: tc.reg}
	extra.start()
	t.Cleanup(extra.stop)
	tc.nodes = append(tc.nodes, extra)

	// n1 leaves, n6 joins: pick an object only n1's shard of which moves.
	oldMap := tc.gw.Map()
	var infos []NodeInfo
	var src NodeInfo
	for _, in := range oldMap.Nodes() {
		if in.ID == "n1" {
			src = in
			continue
		}
		infos = append(infos, in)
	}
	newMap, err := New(append(infos, NodeInfo{ID: extra.id, Addr: extra.addr, Rack: "r6", Zone: "z0"}))
	if err != nil {
		t.Fatal(err)
	}
	newMap = newMap.WithEpoch(oldMap.Epoch() + 1)
	var object string
	for i := 0; object == "" && i < 400; i++ {
		if name := fmt.Sprintf("move-%d", i); placementDiff(t, oldMap, newMap, name, 6) == 1 {
			object = name
		}
	}
	if object == "" {
		t.Fatal("no object moves exactly one shard")
	}
	tc.put(ctx, object, clusterPayload(540, 300_000))
	place, _ := tc.gw.Place(object)
	idx := slices.IndexFunc(place, func(n NodeInfo) bool { return n.ID == src.ID })
	want := tc.shardFile(object, idx)

	if err := tc.gw.UpdateMap(newMap); err != nil {
		t.Fatal(err)
	}
	rep := NewRepairer(tc.gw, nil, tc.reg)
	if moves, err := rep.Rebalance(ctx, oldMap); err != nil || moves != 1 {
		t.Fatalf("rebalance: %d moves, %v; want 1", moves, err)
	}
	var asked []string
	tap.mu.Lock()
	tap.onSend = func(req *http.Request) {
		if req.URL.Host == src.Addr {
			asked = append(asked, req.Method+" "+req.URL.Path)
		}
	}
	tap.mu.Unlock()
	if _, failed := rep.DrainOnce(ctx); failed != 0 || rep.pending() != 0 {
		t.Fatalf("migration failed %d times, %d pending", failed, rep.pending())
	}
	// A header-only stat would be a shard GET too.
	if countPrefix(asked, "GET /v1/shard/") != 1 {
		t.Fatalf("migration asked its source %v; want one shard GET", asked)
	}
	if tc.counter("cluster_migrations_total", obs.Label{Key: "result", Value: "copied"}) != 1 {
		t.Fatal("the shard was not copied")
	}
	if got := tc.shardFile(object, idx); !bytes.Equal(got, want) {
		t.Fatalf("shard %d changed on its way to its new home: %d bytes, were %d", idx, len(got), len(want))
	}
}

// TestMigrationReplacesStaleCopy: a migration's destination already
// holds the moved shard, but from an older put of the key. Only a copy
// at the source's generation counts as landed, so the move copies the
// current shard over the stale one instead of just deleting the source.
func TestMigrationReplacesStaleCopy(t *testing.T) {
	tc := startCluster(t, 6, 4, 2)
	ctx := context.Background()
	extra := &testNode{t: t, id: "n6", dir: t.TempDir(), addr: "127.0.0.1:0", reg: tc.reg}
	extra.start()
	t.Cleanup(extra.stop)
	tc.nodes = append(tc.nodes, extra)

	// n1 leaves, n6 joins: pick an object only n1's shard of which moves.
	oldMap := tc.gw.Map()
	var infos []NodeInfo
	for _, in := range oldMap.Nodes() {
		if in.ID != "n1" {
			infos = append(infos, in)
		}
	}
	newMap, err := New(append(infos, NodeInfo{ID: extra.id, Addr: extra.addr, Rack: "r6", Zone: "z0"}))
	if err != nil {
		t.Fatal(err)
	}
	newMap = newMap.WithEpoch(oldMap.Epoch() + 1)
	var object string
	for i := 0; object == "" && i < 400; i++ {
		if name := fmt.Sprintf("stale-move-%d", i); placementDiff(t, oldMap, newMap, name, 6) == 1 {
			object = name
		}
	}
	if object == "" {
		t.Fatal("no object moves exactly one shard")
	}
	place, _ := tc.gw.Place(object)
	idx := slices.IndexFunc(place, func(n NodeInfo) bool { return n.ID == "n1" })

	tc.put(ctx, object, clusterPayload(550, 200_000))
	if err := node.NewClient(extra.addr).PutShard(ctx, object, idx, bytes.NewReader(tc.shardFile(object, idx))); err != nil {
		t.Fatal(err)
	}
	latest := clusterPayload(551, 200_000)
	tc.put(ctx, object, latest)
	want := tc.shardFile(object, idx)

	if err := tc.gw.UpdateMap(newMap); err != nil {
		t.Fatal(err)
	}
	rep := NewRepairer(tc.gw, nil, tc.reg)
	if moves, err := rep.Rebalance(ctx, oldMap); err != nil || moves != 1 {
		t.Fatalf("rebalance: %d moves, %v; want 1", moves, err)
	}
	if _, failed := rep.DrainOnce(ctx); failed != 0 || rep.pending() != 0 {
		t.Fatalf("migration failed %d times, %d pending", failed, rep.pending())
	}
	if tc.counter("cluster_migrations_total", obs.Label{Key: "result", Value: "copied"}) != 1 {
		t.Fatal("the stale copy at the destination was taken for the moved shard")
	}
	if got := tc.shardFile(object, idx); !bytes.Equal(got, want) {
		t.Fatal("the moved shard is not the latest put's")
	}
	tc.mustGet(ctx, object, latest)
}

// TestMigrationRecopiesTornCopy: a migration's destination holds the
// moved shard at the source's generation, but torn: it lost its last
// 100 bytes. The destination judges its own file before it answers for
// it, so the torn copy does not count as landed, and the move copies
// the whole shard over it before it deletes the source's.
func TestMigrationRecopiesTornCopy(t *testing.T) {
	tc := startCluster(t, 6, 4, 2)
	ctx := context.Background()
	extra := &testNode{t: t, id: "n6", dir: t.TempDir(), addr: "127.0.0.1:0", reg: tc.reg}
	extra.start()
	t.Cleanup(extra.stop)
	tc.nodes = append(tc.nodes, extra)

	// n1 leaves, n6 joins: pick an object only n1's shard of which moves.
	oldMap := tc.gw.Map()
	var infos []NodeInfo
	for _, in := range oldMap.Nodes() {
		if in.ID != "n1" {
			infos = append(infos, in)
		}
	}
	newMap, err := New(append(infos, NodeInfo{ID: extra.id, Addr: extra.addr, Rack: "r6", Zone: "z0"}))
	if err != nil {
		t.Fatal(err)
	}
	newMap = newMap.WithEpoch(oldMap.Epoch() + 1)
	var object string
	for i := 0; object == "" && i < 400; i++ {
		if name := fmt.Sprintf("torn-move-%d", i); placementDiff(t, oldMap, newMap, name, 6) == 1 {
			object = name
		}
	}
	if object == "" {
		t.Fatal("no object moves exactly one shard")
	}
	place, _ := tc.gw.Place(object)
	idx := slices.IndexFunc(place, func(n NodeInfo) bool { return n.ID == "n1" })

	payload := clusterPayload(560, 200_000)
	tc.put(ctx, object, payload)
	want := tc.shardFile(object, idx)
	torn := shardfile.Path(filepath.Join(extra.dir, object), idx)
	if err := os.MkdirAll(filepath.Dir(torn), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, want[:len(want)-100], 0o644); err != nil {
		t.Fatal(err)
	}

	if err := tc.gw.UpdateMap(newMap); err != nil {
		t.Fatal(err)
	}
	rep := NewRepairer(tc.gw, nil, tc.reg)
	if moves, err := rep.Rebalance(ctx, oldMap); err != nil || moves != 1 {
		t.Fatalf("rebalance: %d moves, %v; want 1", moves, err)
	}
	if _, failed := rep.DrainOnce(ctx); failed != 0 || rep.pending() != 0 {
		t.Fatalf("migration failed %d times, %d pending", failed, rep.pending())
	}
	copied := tc.counter("cluster_migrations_total", obs.Label{Key: "result", Value: "copied"})
	already := tc.counter("cluster_migrations_total", obs.Label{Key: "result", Value: "already"})
	if copied != 1 || already != 0 {
		t.Fatalf("migrations copied %d, already %d; want 1 and 0: the torn copy was taken for the moved shard", copied, already)
	}
	if got, err := os.ReadFile(torn); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("the destination holds %d bytes (%v), want the source's %d", len(got), err, len(want))
	}
	tc.mustGet(ctx, object, payload)
}
