package cluster

import (
	"bytes"
	"context"
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
