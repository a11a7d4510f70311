package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"slices"
	"testing"
	"time"

	"dialga/internal/node"
	"dialga/internal/obs"
)

// waitFor polls cond every few milliseconds until it holds, failing
// the test with what after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRepairerRun drives the loop every `dialga-node -repair-interval`
// runs: on a short interval it rebuilds a deleted shard, counts a
// scan error on every tick while no node answers and keeps ticking,
// and returns the context's error once cancelled.
func TestRepairerRun(t *testing.T) {
	tc := startCluster(t, 6, 4, 2)
	ctx := context.Background()
	want := clusterPayload(7, 200_000)
	if _, err := tc.gw.PutObject(ctx, "run", bytes.NewReader(want), int64(len(want)), node.ClassForeground); err != nil {
		t.Fatal(err)
	}
	tc.deleteShard(ctx, "run", 3)

	rep := NewRepairer(tc.gw, nil, tc.reg)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- rep.Run(runCtx, 10*time.Millisecond) }()

	repaired := tc.reg.Counter("cluster_repairs_total", "", obs.Label{Key: "result", Value: "ok"})
	waitFor(t, "the deleted shard's rebuild", func() bool { return repaired.Value() == 1 })
	p, _ := tc.gw.Place("run")
	cli, _ := tc.gw.Client(p[3].ID)
	if st, err := cli.StatShard(ctx, "run", 3); err != nil || st.Index != 3 {
		t.Fatalf("rebuilt shard 3: stat %+v, %v", st, err)
	}

	for _, n := range tc.nodes {
		n.stop()
	}
	scanErrors := tc.reg.Counter("cluster_scan_errors_total", "")
	base := scanErrors.Value()
	waitFor(t, "three failed scans", func() bool { return scanErrors.Value() >= base+3 })
	if got := repaired.Value(); got != 1 {
		t.Fatalf("cluster_repairs_total{result=ok} = %d, want 1", got)
	}

	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
}

// TestGatewayListsAllObjects: GET /v1/objects/all is the union of the
// nodes' listings, with any node that does not answer skipped, and a
// 502 once none answers.
func TestGatewayListsAllObjects(t *testing.T) {
	tc := startCluster(t, 6, 4, 2)
	srv := startHTTP(t, tc)
	ctx := context.Background()
	for _, name := range []string{"b", "a"} {
		payload := clusterPayload(uint64(len(name)), 10_000)
		if _, err := tc.gw.PutObject(ctx, name, bytes.NewReader(payload), int64(len(payload)), node.ClassForeground); err != nil {
			t.Fatal(err)
		}
	}
	// Leave up two nodes that each hold only one of the objects.
	pa, _ := tc.gw.Place("a")
	pb, _ := tc.gw.Place("b")
	onlyB := pa[0].ID
	onlyA := pb[slices.IndexFunc(pb, func(n NodeInfo) bool { return n.ID != onlyB })].ID
	tc.deleteShard(ctx, "a", 0)
	tc.deleteShard(ctx, "b", slices.IndexFunc(pb, func(n NodeInfo) bool { return n.ID == onlyA }))
	for _, n := range tc.nodes {
		if n.id != onlyA && n.id != onlyB {
			n.stop()
		}
	}

	list := func() (int, []string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/v1/objects/all")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var names []string
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&names); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, names
	}
	if code, names := list(); code != http.StatusOK || !slices.Equal(names, []string{"a", "b"}) {
		t.Fatalf("listing with %s and %s up: %d %q, want 200 [a b]", onlyA, onlyB, code, names)
	}
	tc.node(onlyA).stop()
	tc.node(onlyB).stop()
	if code, _ := list(); code != http.StatusBadGateway {
		t.Fatalf("listing with every node down: %d, want 502", code)
	}
}
