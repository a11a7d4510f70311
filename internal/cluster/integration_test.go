package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"testing"
	"time"

	"dialga/internal/fault"
	"dialga/internal/node"
	"dialga/internal/obs"
	"dialga/internal/shardfile"
)

// testNode is one in-process cluster member on a real loopback
// listener, stoppable and restartable (optionally with a fresh empty
// store) to simulate node loss and replacement.
type testNode struct {
	t     *testing.T
	id    NodeID
	dir   string
	addr  string
	srv   *http.Server
	store *node.Store
	reg   *obs.Registry
}

func (n *testNode) start() {
	n.t.Helper()
	store, err := node.OpenStore(n.dir, n.reg)
	if err != nil {
		n.t.Fatal(err)
	}
	n.store = store
	ln, err := net.Listen("tcp", n.addr)
	if err != nil {
		n.t.Fatal(err)
	}
	if n.addr == "127.0.0.1:0" {
		n.addr = ln.Addr().String()
	}
	n.srv = &http.Server{Handler: node.NewServer(store, nil, n.reg).Handler()}
	srv := n.srv
	go srv.Serve(ln)
}

func (n *testNode) stop() {
	if n.srv != nil {
		n.srv.Close()
		n.srv = nil
		n.store.Close() // a handler still running appends nothing more
	}
}

// replace restarts the node with a brand-new empty store on the same
// address — a replacement machine racked in where the old one died.
func (n *testNode) replace() {
	n.t.Helper()
	n.stop()
	n.dir = n.t.TempDir()
	n.start()
}

type testCluster struct {
	t     *testing.T
	nodes []*testNode
	cmap  *Map
	gw    *Gateway
	reg   *obs.Registry
}

// startCluster brings up n in-process nodes (one rack each, two
// zones) and a gateway with the given geometry, hedging from
// dialga-node's default floor.
func startCluster(t *testing.T, n, k, m int) *testCluster {
	t.Helper()
	return startClusterOpts(t, n, k, m, nil)
}

// startClusterOpts is startCluster with a hook to adjust the gateway
// options (quorum, a fault transport) before it is built.
func startClusterOpts(t *testing.T, n, k, m int, mod func(*GatewayOptions)) *testCluster {
	t.Helper()
	reg := obs.NewRegistry()
	tc := &testCluster{t: t, reg: reg}
	infos := make([]NodeInfo, n)
	for i := 0; i < n; i++ {
		tn := &testNode{
			t: t, id: NodeID(fmt.Sprintf("n%d", i)),
			dir: t.TempDir(), addr: "127.0.0.1:0", reg: reg,
		}
		tn.start()
		t.Cleanup(tn.stop)
		tc.nodes = append(tc.nodes, tn)
		infos[i] = NodeInfo{
			ID: tn.id, Addr: tn.addr,
			Rack: fmt.Sprintf("r%d", i),
			Zone: fmt.Sprintf("z%d", i%2),
		}
	}
	cmap, err := New(infos)
	if err != nil {
		t.Fatal(err)
	}
	opts := GatewayOptions{
		Map: cmap, K: k, M: m,
		StripeSize: 64 * 1024,
		HedgeAfter: 30 * time.Millisecond,
		Metrics:    reg,
		// No pooled keep-alive connections: a killed-and-replaced node
		// must not be reached over a stale socket.
		HTTPClient: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
	}
	if mod != nil {
		mod(&opts)
	}
	gw, err := NewGateway(opts)
	if err != nil {
		t.Fatal(err)
	}
	tc.cmap, tc.gw = cmap, gw
	return tc
}

func (tc *testCluster) node(id NodeID) *testNode {
	for _, n := range tc.nodes {
		if n.id == id {
			return n
		}
	}
	tc.t.Fatalf("no node %s", id)
	return nil
}

func clusterPayload(seed uint64, n int) []byte {
	buf := make([]byte, n)
	st := seed
	for i := range buf {
		st = st*6364136223846793005 + 1442695040888963407
		buf[i] = byte(st >> 56)
	}
	return buf
}

func (tc *testCluster) mustGet(ctx context.Context, object string, want []byte) {
	tc.t.Helper()
	var out bytes.Buffer
	if err := tc.gw.GetObject(ctx, object, &out, node.ClassForeground); err != nil {
		tc.t.Fatalf("get %s: %v", object, err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		tc.t.Fatalf("get %s: payload mismatch (%d vs %d bytes)", object, out.Len(), len(want))
	}
}

// TestClusterLifecycle is the acceptance path: rack-disjoint PUT over
// six nodes, reads with two nodes down, replacement nodes repaired
// back to full redundancy while foreground reads keep succeeding.
func TestClusterLifecycle(t *testing.T) {
	tc := startCluster(t, 6, 4, 2)
	ctx := context.Background()

	const objects = 3
	const objSize = 300_000
	payloads := map[string][]byte{}
	for i := 0; i < objects; i++ {
		name := fmt.Sprintf("life-%d", i)
		payloads[name] = clusterPayload(uint64(100+i), objSize)
		p, err := tc.gw.PutObject(ctx, name, bytes.NewReader(payloads[name]), objSize, node.ClassForeground)
		if err != nil {
			t.Fatalf("put %s: %v", name, err)
		}
		// The stripe really is rack-disjoint on disk, not just on
		// paper: each placed node serves its shard, no domain repeats.
		domains := map[string]bool{}
		for idx, info := range p {
			if domains[info.Domain()] {
				t.Fatalf("%s: domain %s repeated", name, info.Domain())
			}
			domains[info.Domain()] = true
			cli, _ := tc.gw.Client(info.ID)
			st, err := cli.StatShard(ctx, name, idx)
			if err != nil || int(st.Index) != idx {
				t.Fatalf("%s shard %d on %s: stat %+v, %v", name, idx, info.ID, st, err)
			}
		}
	}
	for name, want := range payloads {
		tc.mustGet(ctx, name, want)
	}

	// Kill two nodes. RS(4,2) tolerates exactly two lost shards per
	// stripe, so every object must still read back.
	tc.nodes[0].stop()
	tc.nodes[1].stop()
	for name, want := range payloads {
		tc.mustGet(ctx, name, want)
	}

	// Replacement machines arrive empty; the repair queue rebuilds
	// every shard the dead nodes held, while foreground reads continue.
	tc.nodes[0].replace()
	tc.nodes[1].replace()

	stopReads := make(chan struct{})
	readsDone := make(chan error, 1)
	go func() {
		defer close(readsDone)
		for {
			select {
			case <-stopReads:
				return
			default:
			}
			for name, want := range payloads {
				var out bytes.Buffer
				if err := tc.gw.GetObject(ctx, name, &out, node.ClassForeground); err != nil {
					readsDone <- fmt.Errorf("foreground get %s during repair: %w", name, err)
					return
				}
				if !bytes.Equal(out.Bytes(), want) {
					readsDone <- fmt.Errorf("foreground get %s during repair: wrong bytes", name)
					return
				}
			}
		}
	}()

	rep := NewRepairer(tc.gw, nil, tc.reg)
	enqueued, err := rep.ScanOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	repaired, failed := rep.DrainOnce(ctx)
	close(stopReads)
	if err := <-readsDone; err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Fatalf("%d repairs failed", failed)
	}
	// Each replaced node held one shard of each object.
	if want := 2 * objects; enqueued != want || repaired != want {
		t.Fatalf("enqueued=%d repaired=%d, want %d", enqueued, repaired, want)
	}

	// Full redundancy restored: a second scan finds nothing, and every
	// placed shard stats clean on its node.
	if enqueued, err = rep.ScanOnce(ctx); err != nil || enqueued != 0 {
		t.Fatalf("post-repair scan: enqueued=%d, %v", enqueued, err)
	}
	for name := range payloads {
		p, _ := tc.gw.Place(name)
		for idx, info := range p {
			cli, _ := tc.gw.Client(info.ID)
			if _, err := cli.StatShard(ctx, name, idx); err != nil {
				t.Fatalf("%s shard %d on %s after repair: %v", name, idx, info.ID, err)
			}
		}
	}
	for name, want := range payloads {
		tc.mustGet(ctx, name, want)
	}
}

// corruptShard damages one stored shard in place, in whichever layout
// holds it, with a seeded fault plan (bit flips and zero fills past the
// header) — simulated silent media corruption for the scrub to find.
func corruptShard(t *testing.T, tc *testCluster, object string, idx int, seed uint64) {
	t.Helper()
	tc.editShard(object, idx, func(raw []byte) {
		body := int64(len(raw) - shardfile.HeaderSizeV4)
		plan := fault.Generate(seed, body, 4)
		// Keep only in-place corruption: truncation and transient errors
		// would change the shard's length or abort the rewrite.
		ops := plan.Ops[:0]
		for _, op := range plan.Ops {
			if op.Kind == fault.BitFlip || op.Kind == fault.ZeroFill {
				op.Off += shardfile.HeaderSizeV4
				ops = append(ops, op)
			}
		}
		if len(ops) == 0 {
			ops = append(ops, fault.Op{Kind: fault.BitFlip, Off: shardfile.HeaderSizeV4 + int64(seed%uint64(body)), Bit: 1})
		}
		plan.Ops = ops
		damaged, err := io.ReadAll(fault.NewReader(bytes.NewReader(raw), plan))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(damaged, raw) {
			t.Fatal("fault plan was a no-op")
		}
		copy(raw, damaged)
	})
}

// TestRepairQueueSeededCorruption corrupts shards across racks with a
// seeded fault plan, then verifies the scrub finds exactly those
// shards, the queue repairs exactly those shards, and foreground read
// latency stays bounded while repair churns.
func TestRepairQueueSeededCorruption(t *testing.T) {
	repairQueueSeededCorruption(t, 200_000, false)
}

// TestRepairQueueSeededCorruptionPacked is TestRepairQueueSeededCorruption
// over single-stripe objects, whose shards are records of the nodes'
// segments: the same damage is found and rebuilt the same way.
func TestRepairQueueSeededCorruptionPacked(t *testing.T) {
	repairQueueSeededCorruption(t, 60_000, true)
}

// repairQueueSeededCorruption runs the test over objects of objSize
// bytes, whose shards are records (packed) or files.
func repairQueueSeededCorruption(t *testing.T, objSize int, packed bool) {
	// With up to two corrupt shards per object (the RS(4,2) limit) a
	// read may need all six shards: the two beyond k come in as spares.
	tc := startCluster(t, 6, 4, 2)
	ctx := context.Background()

	const objects = 4
	payloads := map[string][]byte{}
	names := make([]string, 0, objects)
	for i := 0; i < objects; i++ {
		name := fmt.Sprintf("scrub-%d", i)
		names = append(names, name)
		payloads[name] = clusterPayload(uint64(900+i), objSize)
		if _, err := tc.gw.PutObject(ctx, name, bytes.NewReader(payloads[name]), int64(objSize), node.ClassForeground); err != nil {
			t.Fatal(err)
		}
		if got := tc.packed(name, 0); got != packed {
			t.Fatalf("%s/0 packed = %v, want %v", name, got, packed)
		}
	}
	sort.Strings(names)

	// Corrupt two shards of each object — the decode limit for
	// RS(4,2), landing on different racks by construction (placement
	// is rack-disjoint, and we damage distinct shard indices).
	const damagedShards = 2 * objects
	for i, name := range names {
		corruptShard(t, tc, name, i%3, uint64(1000+i))
		corruptShard(t, tc, name, 3+i%3, uint64(2000+i))
	}

	// A scan checks the block trailers of one slot in scrubRotation, so
	// damage inside blocks is found over one rotation of scans. They run
	// unpaced: at the drain's pace below, R scans would take 20 s.
	rep := NewRepairer(tc.gw, nil, tc.reg)
	enqueued := 0
	for i := 0; i < scrubRotation; i++ {
		n, err := rep.ScanOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		enqueued += n
	}
	if enqueued != damagedShards {
		t.Fatalf("scan enqueued %d, want %d", enqueued, damagedShards)
	}
	if got := tc.reg.Counter("cluster_scrub_damaged_total", "",
		obs.Label{Key: "status", Value: "corrupt"}).Value(); got != damagedShards {
		t.Fatalf("cluster_scrub_damaged_total{corrupt} = %d, want %d", got, damagedShards)
	}
	if got := rep.pending(); got != damagedShards {
		t.Fatalf("pending = %d, want %d", got, damagedShards)
	}

	// Pace repair hard (but foreground not at all) so the drain
	// overlaps the foreground read loop below: the bucket's 20 tokens
	// are spent first, and every rebuild waits 50 ms for its own.
	lim := NewLimiter(map[string]Rate{
		node.ClassRepair: {PerSecond: 20},
	}, tc.reg)
	for i := 0; i < 20; i++ {
		if err := lim.Admit(ctx, node.ClassRepair); err != nil {
			t.Fatal(err)
		}
	}
	rep.lim = lim

	// Foreground reads run during the entire drain; their latency must
	// stay bounded (generously — this is loopback) rather than being
	// starved behind repair traffic.
	var mu sync.Mutex
	var latencies []time.Duration
	stopReads := make(chan struct{})
	readErr := make(chan error, 1)
	go func() {
		defer close(readErr)
		for {
			select {
			case <-stopReads:
				return
			default:
			}
			name := names[len(latencies)%len(names)]
			start := time.Now()
			var out bytes.Buffer
			if err := tc.gw.GetObject(ctx, name, &out, node.ClassForeground); err != nil {
				readErr <- fmt.Errorf("foreground get %s during drain: %w", name, err)
				return
			}
			mu.Lock()
			latencies = append(latencies, time.Since(start))
			mu.Unlock()
		}
	}()

	repaired, failed := rep.DrainOnce(ctx)
	close(stopReads)
	if err := <-readErr; err != nil {
		t.Fatal(err)
	}
	if repaired != damagedShards || failed != 0 {
		t.Fatalf("repaired=%d failed=%d, want %d/0", repaired, failed, damagedShards)
	}

	// Exact accounting: every damaged shard repaired once, queue empty.
	if got := tc.reg.Counter("cluster_repairs_total", "",
		obs.Label{Key: "result", Value: "ok"}).Value(); got != damagedShards {
		t.Fatalf("cluster_repairs_total{ok} = %d, want %d", got, damagedShards)
	}
	if got := tc.reg.Counter("cluster_repairs_total", "",
		obs.Label{Key: "result", Value: "error"}).Value(); got != 0 {
		t.Fatalf("cluster_repairs_total{error} = %d, want 0", got)
	}
	if got := tc.reg.Gauge("cluster_repair_queue", "").Value(); got != 0 {
		t.Fatalf("cluster_repair_queue = %v, want 0", got)
	}
	if got := rep.pending(); got != 0 {
		t.Fatalf("pending after drain = %d", got)
	}

	// Foreground p99 during repair stays sane.
	mu.Lock()
	lats := append([]time.Duration(nil), latencies...)
	mu.Unlock()
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p99 := lats[len(lats)*99/100]
		if p99 > 5*time.Second {
			t.Fatalf("foreground p99 during repair = %v", p99)
		}
	}

	// The cluster scrubs clean, blocks and all, over another rotation
	// (unpaced, as above), and every object reads back intact. A read
	// heals around a corrupt block, so only the block scrub would see a
	// rebuild that left the damaged file in place.
	rep.lim = nil
	for i := 0; i < scrubRotation; i++ {
		if enqueued, err := rep.ScanOnce(ctx); err != nil || enqueued != 0 {
			t.Fatalf("post-repair scan %d: enqueued=%d, %v", i, enqueued, err)
		}
	}
	if got := tc.reg.Counter("cluster_scrub_damaged_total", "",
		obs.Label{Key: "status", Value: "corrupt"}).Value(); got != damagedShards {
		t.Fatalf("after the post-repair rotation cluster_scrub_damaged_total{corrupt} = %d, want %d", got, damagedShards)
	}
	for name, want := range payloads {
		tc.mustGet(ctx, name, want)
	}
}
