package cluster

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"dialga/internal/node"
	"dialga/internal/obs"
)

// TestRepairQueuePriorityOrder: tasks pop lowest-redundancy first,
// FIFO within a level, and re-enqueueing can only raise urgency.
func TestRepairQueuePriorityOrder(t *testing.T) {
	tc := startCluster(t, 6, 4, 2)
	r := NewRepairer(tc.gw, nil, tc.reg)

	r.enqueue(repairTask{Object: "healthy-ish", Index: 0}, 1, 0)
	r.enqueue(repairTask{Object: "critical", Index: 3}, 0, 0)
	r.enqueue(repairTask{Object: "healthy-ish", Index: 1}, 1, 0)
	r.enqueue(repairTask{Object: "critical-2", Index: 2}, 0, 0)
	// Already-queued task discovered again at lower redundancy climbs.
	r.enqueue(repairTask{Object: "healthy-ish", Index: 1}, 0, 0)

	if g := tc.reg.Gauge("cluster_repair_queue_priority", "",
		obs.Label{Key: "redundancy", Value: "0"}).Value(); g != 3 {
		t.Fatalf("priority-0 depth = %v, want 3", g)
	}
	if g := tc.reg.Gauge("cluster_repair_queue_priority", "",
		obs.Label{Key: "redundancy", Value: "1"}).Value(); g != 1 {
		t.Fatalf("priority-1 depth = %v, want 1", g)
	}

	want := []repairTask{
		{Object: "critical", Index: 3},    // redundancy 0, first in
		{Object: "healthy-ish", Index: 1}, // promoted to 0, keeps its older seq
		{Object: "critical-2", Index: 2},  // redundancy 0, newest
		{Object: "healthy-ish", Index: 0}, // redundancy 1
	}
	for i, w := range want {
		it, ok := r.pop()
		if !ok || it.repairTask != w {
			t.Fatalf("pop %d = %+v (ok=%v), want %v", i, it, ok, w)
		}
	}
	if _, ok := r.pop(); ok {
		t.Fatal("queue not empty")
	}
	if g := tc.reg.Gauge("cluster_repair_queue", "").Value(); g != 0 {
		t.Fatalf("total depth after drain = %v", g)
	}
}

// pending returns the number of queued tasks, repairs and migrations.
func (r *Repairer) pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.heap)
}

// TestRepairAttemptCap: a task whose rebuild cannot succeed is retried
// repairAttempts (5) times, counted, then dropped — never stranded in
// the dedup map, never spinning forever.
func TestRepairAttemptCap(t *testing.T) {
	if repairAttempts != 5 {
		t.Fatalf("repairAttempts = %d, want 5", repairAttempts)
	}
	tc := startCluster(t, 6, 4, 2)
	r := NewRepairer(tc.gw, nil, tc.reg)
	ctx := context.Background()

	// No such object anywhere: every rebuild fails to open sources.
	phantom := repairTask{Object: "phantom", Index: 0}
	if !r.enqueue(phantom, tc.gw.m-1, 0) {
		t.Fatal("enqueue")
	}
	totalFailed := 0
	for pass := 0; pass < 10 && r.pending() > 0; pass++ {
		_, failed := r.DrainOnce(ctx)
		totalFailed += failed
	}
	if r.pending() != 0 {
		t.Fatalf("task still queued after cap: pending=%d", r.pending())
	}
	if totalFailed != repairAttempts {
		t.Fatalf("failed attempts = %d, want %d", totalFailed, repairAttempts)
	}
	if v := tc.reg.Counter("cluster_repair_failures_total", "").Value(); v != repairAttempts {
		t.Fatalf("cluster_repair_failures_total = %d, want %d", v, repairAttempts)
	}
	if v := tc.reg.Counter("cluster_repair_dropped_total", "").Value(); v != 1 {
		t.Fatalf("cluster_repair_dropped_total = %d, want 1", v)
	}
	// The dedup map let go of the key: the task can be found again.
	if !r.enqueue(phantom, tc.gw.m-1, 0) {
		t.Fatal("dropped task could not be re-enqueued")
	}
}

// TestScanSetsRedundancyMin: the scan publishes the lowest live-shard
// count it saw, and prioritizes the weakest object's shards first.
func TestScanSetsRedundancyMin(t *testing.T) {
	tc := startCluster(t, 6, 4, 2)
	ctx := context.Background()

	const objSize = 60_000
	for _, name := range []string{"strong", "weak"} {
		if _, err := tc.gw.PutObject(ctx, name, bytes.NewReader(clusterPayload(83, objSize)), objSize, node.ClassForeground); err != nil {
			t.Fatal(err)
		}
	}
	// strong loses one shard (live 5), weak loses two (live 4).
	del := func(name string, idx int) {
		place, _ := tc.gw.Place(name)
		cli, _ := tc.gw.Client(place[idx].ID)
		if err := cli.DeleteShard(ctx, name, idx); err != nil {
			t.Fatal(err)
		}
	}
	del("strong", 1)
	del("weak", 0)
	del("weak", 3)

	r := NewRepairer(tc.gw, nil, tc.reg)
	if _, err := r.ScanOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if g := tc.reg.Gauge("cluster_redundancy_min", "").Value(); g != 4 {
		t.Fatalf("cluster_redundancy_min = %v, want 4", g)
	}
	// Both weak shards (redundancy 0) pop before strong's (redundancy 1).
	first, _ := r.pop()
	second, _ := r.pop()
	third, _ := r.pop()
	if first.Object != "weak" || second.Object != "weak" || third.Object != "strong" {
		t.Fatalf("pop order %s, %s, %s; want weak, weak, strong",
			first.Object, second.Object, third.Object)
	}
}

// queuedKey reports whether a task for slot idx of object is queued.
func (r *Repairer) queuedKey(object string, idx int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.queued[repairTask{Object: object, Index: idx}] != nil
}

// TestScanRotatesBlockScrub: every scan judges every placed slot by a
// header-only shard GET, except the slots at its turn of the rotation,
// which get a block scrub instead; scrubRotation scans block-scrub each
// placed slot exactly once. Damage a header shows (a deleted, a
// truncated and a bad-header shard) is queued by the first scan, and a
// bit flipped inside a block exactly once, at its slot's turn.
func TestScanRotatesBlockScrub(t *testing.T) {
	tc, tap := tappedCluster(t, nil)
	ctx := context.Background()
	const objects = 8
	for i := 0; i < objects; i++ {
		tc.put(ctx, fmt.Sprintf("rot-%d", i), clusterPayload(uint64(300+i), 150_000))
	}
	tc.deleteShard(ctx, "rot-0", 1)
	if err := os.Truncate(tc.shardPath("rot-1", 2), int64(len(tc.shardFile("rot-1", 2))-100)); err != nil {
		t.Fatal(err)
	}
	bad := tc.shardFile("rot-2", 3)
	bad[9] ^= 0x01 // a header byte: its self-CRC fails
	if err := os.WriteFile(tc.shardPath("rot-2", 3), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	// The bit flip goes in the slot of rot-3 whose turn comes last, so
	// the scans before it show that a header-only GET passes it.
	flipped := 0
	for idx := 1; idx < 6; idx++ {
		if scrubTurn("rot-3", idx) > scrubTurn("rot-3", flipped) {
			flipped = idx
		}
	}
	turn := int(scrubTurn("rot-3", flipped))
	if turn == 0 {
		t.Fatal("every slot of rot-3 is at turn 0; pick another object")
	}
	rot := tc.shardFile("rot-3", flipped)
	h := tc.shardHeader("rot-3", flipped)
	rot[h.Size()+h.BlockSize()+11] ^= 0x04
	if err := os.WriteFile(tc.shardPath("rot-3", flipped), rot, 0o644); err != nil {
		t.Fatal(err)
	}
	headerSeen := []struct {
		object string
		idx    int
	}{{"rot-0", 1}, {"rot-1", 2}, {"rot-2", 3}}

	rep := NewRepairer(tc.gw, nil, tc.reg)
	rep.scans.Store(0) // scan i of the rotation is at turn i
	tap.take()
	blockScrubs := map[string]int{}
	enqueued := 0
	for scan := 0; scan < scrubRotation; scan++ {
		n, err := rep.ScanOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		enqueued += n
		sent := map[string]string{} // "object/idx" -> the probe's route and query
		for _, req := range tap.take() {
			var slot, probe string
			if path, ok := strings.CutPrefix(req, "GET /v1/scrub/"); ok {
				slot, probe = path, "scrub"
			} else if path, ok := strings.CutPrefix(req, "GET /v1/shard/"); ok {
				slot, probe, _ = strings.Cut(path, "?")
				probe = "shard?" + probe
			} else {
				continue
			}
			if _, dup := sent[slot]; dup {
				t.Fatalf("scan %d probed %s twice", scan, slot)
			}
			sent[slot] = probe
		}
		for i := 0; i < objects; i++ {
			object := fmt.Sprintf("rot-%d", i)
			for idx := 0; idx < 6; idx++ {
				slot := fmt.Sprintf("%s/%d", object, idx)
				probe, ok := sent[slot]
				blocks := int(scrubTurn(object, idx)) == scan
				switch {
				case !ok:
					t.Fatalf("scan %d sent no probe for %s", scan, slot)
				case blocks && probe != "scrub":
					t.Fatalf("scan %d probed %s with %q, want a block scrub at its turn", scan, slot, probe)
				case !blocks && probe != "shard?off=0&len=0":
					t.Fatalf("scan %d probed %s with %q, want a header-only shard GET", scan, slot, probe)
				}
				if blocks {
					blockScrubs[slot]++
				}
			}
		}
		if len(sent) != objects*6 {
			t.Fatalf("scan %d sent %d probes for %d placed slots", scan, len(sent), objects*6)
		}
		for _, d := range headerSeen {
			if !rep.queuedKey(d.object, d.idx) {
				t.Fatalf("scan %d: %s/%d not queued", scan, d.object, d.idx)
			}
		}
		if got := rep.queuedKey("rot-3", flipped); got != (scan >= turn) {
			t.Fatalf("scan %d: bit flip in rot-3/%d (turn %d) queued = %v", scan, flipped, turn, got)
		}
	}
	if len(blockScrubs) != objects*6 {
		t.Fatalf("a rotation block-scrubbed %d of %d placed slots", len(blockScrubs), objects*6)
	}
	for slot, n := range blockScrubs {
		if n != 1 {
			t.Fatalf("a rotation block-scrubbed %s %d times, want once", slot, n)
		}
	}
	if enqueued != 4 || rep.pending() != 4 {
		t.Fatalf("a rotation queued %d (pending %d), want the 4 damaged slots once each", enqueued, rep.pending())
	}
	if got := tc.counter("cluster_scrub_damaged_total", obs.Label{Key: "status", Value: "corrupt"}); got != 1 {
		t.Fatalf("cluster_scrub_damaged_total{status=corrupt} = %d, want 1", got)
	}
}

// TestRepairQueueGaugesFromCounts: the queue-depth gauges follow the
// queue's own counts through enqueues, re-prioritizations and pops, at
// a depth where walking the heap on every change would show, and
// re-prioritizing a queued task allocates nothing.
func TestRepairQueueGaugesFromCounts(t *testing.T) {
	infos := make([]NodeInfo, 6)
	for i := range infos {
		infos[i] = NodeInfo{ID: NodeID(fmt.Sprintf("n%d", i)), Addr: fmt.Sprintf("203.0.113.%d:1", i), Rack: fmt.Sprintf("r%d", i)}
	}
	cmap, err := New(infos)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := NewGateway(GatewayOptions{Map: cmap, K: 4, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r := NewRepairer(gw, nil, reg)
	const repairs, moves = 3500, 500
	tasks := make([]repairTask, repairs+moves)
	for i := range tasks {
		tasks[i] = repairTask{Object: fmt.Sprintf("obj-%04d", i), Index: i % 6}
		r.enqueueItem(repairItem{repairTask: tasks[i], redundancy: 2, migrate: i >= repairs})
	}
	// Raise repairs 0..100 to redundancy 1, and the first 50 migrations
	// to 0 by a repair report, which keeps them migrations.
	next := 0
	if a := testing.AllocsPerRun(100, func() { r.enqueue(tasks[next], 1, 0); next++ }); a != 0 {
		t.Errorf("re-prioritizing a queued task allocates %v times, want 0", a)
	}
	for i := repairs; i < repairs+50; i++ {
		r.enqueue(tasks[i], 0, 0)
	}
	want := func(repairQ, rebalanceQ float64, byRedundancy ...float64) {
		t.Helper()
		if got := reg.Gauge("cluster_repair_queue", "").Value(); got != repairQ {
			t.Errorf("cluster_repair_queue = %v, want %v", got, repairQ)
		}
		if got := reg.Gauge("cluster_rebalance_queue", "").Value(); got != rebalanceQ {
			t.Errorf("cluster_rebalance_queue = %v, want %v", got, rebalanceQ)
		}
		for red, w := range byRedundancy {
			if got := reg.Gauge("cluster_repair_queue_priority", "",
				obs.Label{Key: "redundancy", Value: fmt.Sprint(red)}).Value(); got != w {
				t.Errorf("cluster_repair_queue_priority{redundancy=%d} = %v, want %v", red, got, w)
			}
		}
	}
	want(repairs, moves, 50, 101, repairs+moves-151)
	// Pops take the 50 migrations at 0, then the 101 repairs at 1, then
	// 849 repairs at 2.
	for i := 0; i < 1000; i++ {
		if _, ok := r.pop(); !ok {
			t.Fatal("queue ran dry")
		}
	}
	want(repairs-950, moves-50, 0, 0, repairs+moves-1000)
	for r.pending() > 0 {
		r.pop()
	}
	want(0, 0, 0, 0, 0)
}
