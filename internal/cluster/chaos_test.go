package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"dialga/internal/fault"
	"dialga/internal/node"
	"dialga/internal/obs"
)

// slowChunkReader feeds its payload in small chunks with a delay, so
// a put is reliably still streaming when chaos hits it.
type slowChunkReader struct {
	b     []byte
	chunk int
	delay time.Duration
}

func (r *slowChunkReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	time.Sleep(r.delay)
	n := r.chunk
	if n > len(p) {
		n = len(p)
	}
	if n > len(r.b) {
		n = len(r.b)
	}
	copy(p, r.b[:n])
	r.b = r.b[n:]
	return n, nil
}

// TestClusterChaosQuorumConvergence is the acceptance test for the
// quorum-write / repair-scan / crash-recovery stack: a seeded,
// serializable fault plan partitions one node, blackholes another, and
// a third is killed outright in the middle of a streaming put. Every
// put the gateway ACKNOWLEDGED must decode byte-exact throughout — the
// durability contract — and once the network heals and the dead node
// returns (with its persistent shards intact, per the PPM fault
// model), scan and repair must find every shard a degraded ack owed
// and converge the cluster back to full redundancy.
func TestClusterChaosQuorumConvergence(t *testing.T) {
	ft := fault.NewTransport(&http.Transport{DisableKeepAlives: true})
	tc := startClusterOpts(t, 6, 4, 2, func(o *GatewayOptions) {
		o.WriteQuorum = 5
		// The client timeout is what bounds a blackholed request: the
		// route drops packets silently, so only our own deadline ends it.
		o.HTTPClient = &http.Client{Timeout: time.Second, Transport: ft}
	})
	ctx := context.Background()

	const objSize = 80_000
	acked := map[string][]byte{}
	put := func(name string, r io.Reader, size int64) error {
		payload := clusterPayload(uint64(len(name))*1009+77, int(size))
		if r == nil {
			r = bytes.NewReader(payload)
		}
		_, err := tc.gw.PutObject(ctx, name, r, size, node.ClassForeground)
		if err == nil {
			acked[name] = payload
		}
		return err
	}
	verifyAcked := func(phase string) {
		t.Helper()
		for name, want := range acked {
			var out bytes.Buffer
			if err := tc.gw.GetObject(ctx, name, &out, node.ClassForeground); err != nil {
				t.Fatalf("%s: acked object %s unreadable: %v", phase, name, err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("%s: acked object %s decoded wrong bytes", phase, name)
			}
		}
	}

	// Phase A: calm seas.
	for i := 0; i < 2; i++ {
		if err := put(fmt.Sprintf("calm-%d", i), nil, objSize); err != nil {
			t.Fatalf("clean put: %v", err)
		}
	}

	// Phase B: partition one rack. With K+M = 6 nodes, every placement
	// uses every node, so each put is forced through the quorum path:
	// five shards land, and the partitioned node's shard is owed.
	degraded := func() uint64 { return tc.reg.Counter("cluster_put_degraded_total", "").Value() }
	partitioned := tc.nodes[2]
	ft.Partition(partitioned.addr)
	for i := 0; i < 3; i++ {
		if err := put(fmt.Sprintf("partitioned-%d", i), nil, objSize); err != nil {
			t.Fatalf("put during partition: %v", err)
		}
	}
	if got := degraded(); got != 3 {
		t.Fatalf("degraded puts during partition = %d, want 3", got)
	}
	verifyAcked("during partition")
	ft.Heal(partitioned.addr)

	// Phase C: a blackholed route (first request hangs until the client
	// deadline; a serialized plan, same grammar the CLI takes). The
	// retry must push the shard through — a fully redundant ack.
	holePlan, err := fault.Parse("hole@0+1")
	if err != nil {
		t.Fatal(err)
	}
	ft.Set(tc.nodes[4].addr, holePlan)
	before := degraded()
	if err := put("blackholed", nil, objSize); err != nil {
		t.Fatalf("put through blackhole: %v", err)
	}
	if after := degraded(); after != before {
		t.Fatal("blackholed put was degraded; the retry should have landed the shard")
	}
	ft.Heal(tc.nodes[4].addr)

	// Phase D: kill a node in the middle of a streaming put, then keep
	// writing while it is down. Acks must continue (quorum 5 of 6), each
	// owing the killed node's shard.
	killed := tc.nodes[5]
	killPayload := clusterPayload(3001, 4*objSize)
	killDone := make(chan error, 1)
	go func() {
		r := &slowChunkReader{b: killPayload, chunk: 16 * 1024, delay: 2 * time.Millisecond}
		_, err := tc.gw.PutObject(ctx, "killed-mid-put", r, int64(len(killPayload)), node.ClassForeground)
		killDone <- err
	}()
	time.Sleep(15 * time.Millisecond) // the put is mid-stream now
	killed.stop()
	if err := <-killDone; err != nil {
		t.Fatalf("put with node killed mid-stream: %v", err)
	}
	acked["killed-mid-put"] = killPayload
	for i := 0; i < 2; i++ {
		if err := put(fmt.Sprintf("down-%d", i), nil, objSize); err != nil {
			t.Fatalf("put with node down: %v", err)
		}
	}
	verifyAcked("with node down")

	// Phase E: the dead node returns with its persistent shards intact
	// (only shards put while it was down are missing). The first scan
	// finds every shard a degraded ack owed, one per degraded put, and
	// scan-and-drain continues until the cluster converges.
	killed.start()
	rep := NewRepairer(tc.gw, nil, tc.reg)
	converged := false
	for pass := 0; pass < 6; pass++ {
		enq, err := rep.ScanOnce(ctx)
		if err != nil {
			t.Fatalf("scan pass %d: %v", pass, err)
		}
		if pass == 0 && uint64(enq) != degraded() {
			t.Fatalf("first scan queued %d shards, %d degraded puts owe one each", enq, degraded())
		}
		_, failed := rep.DrainOnce(ctx)
		if failed != 0 {
			continue
		}
		enq, err = rep.ScanOnce(ctx)
		if err != nil {
			t.Fatalf("verify scan pass %d: %v", pass, err)
		}
		if enq == 0 && rep.pending() == 0 {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatal("repair did not converge to full redundancy")
	}
	if g := tc.reg.Gauge("cluster_redundancy_min", "").Value(); g != 6 {
		t.Fatalf("cluster_redundancy_min after convergence = %v, want 6", g)
	}

	// Full redundancy, byte-exact: every shard of every acked object
	// stats clean on its placed node, and every object decodes.
	for name := range acked {
		place, err := tc.gw.Place(name)
		if err != nil {
			t.Fatal(err)
		}
		for idx, info := range place {
			cli, _ := tc.gw.Client(info.ID)
			if _, err := cli.StatShard(ctx, name, idx); err != nil {
				t.Fatalf("%s shard %d on %s after convergence: %v", name, idx, info.ID, err)
			}
		}
	}
	verifyAcked("after convergence")
	if len(acked) != 9 {
		t.Fatalf("acked %d objects, expected all 9", len(acked))
	}

	// Per-priority queue gauges read zero across the board.
	for red := 0; red <= 2; red++ {
		if g := tc.reg.Gauge("cluster_repair_queue_priority", "",
			obs.Label{Key: "redundancy", Value: fmt.Sprint(red)}).Value(); g != 0 {
			t.Fatalf("cluster_repair_queue_priority{redundancy=%d} = %v after convergence", red, g)
		}
	}
}
