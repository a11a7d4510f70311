package main

import (
	"testing"
	"time"
)

func sp(start, end int64) *span { return &span{Start: start, End: end} }

func TestSelfTime(t *testing.T) {
	parent := sp(0, 100)
	for _, c := range []struct {
		name     string
		children []*span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []*span{sp(10, 20), sp(50, 70)}, 70},
		{"overlapping count once", []*span{sp(10, 40), sp(30, 60)}, 50},
		{"nested counts once", []*span{sp(10, 90), sp(20, 30), sp(40, 50)}, 20},
		{"unsorted", []*span{sp(50, 70), sp(10, 20)}, 70},
		{"clipped to the parent", []*span{sp(-20, 10), sp(90, 150)}, 80},
		{"covering", []*span{sp(0, 100)}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRoute(t *testing.T) {
	for _, c := range []struct{ method, path, name, object, key string }{
		{"GET", "/v1/shard/big-001/3", "shard_get", "big-001", "big-001/3"},
		{"PUT", "/v1/shard/big-001/3", "shard_put", "big-001", "big-001/3"},
		{"GET", "/v1/stat/big-001/0", "stat", "big-001", "big-001/0"},
		{"GET", "/v1/scrub/x/5", "scrub", "x", "x/5"},
		{"GET", "/v1/objects", "objects", "", ""},
		{"PUT", "/v1/object/sw-007", "object_put", "sw-007", "sw-007"},
	} {
		name, object, key := route(c.method, c.path)
		if name != c.name || object != c.object || key != c.key {
			t.Errorf("route(%s %s) = %q %q %q, want %q %q %q", c.method, c.path, name, object, key, c.name, c.object, c.key)
		}
	}
}

// One GET op: loadgen -> gateway -> five shard requests, each served by
// a node span. Times in ns are chosen so every derived number is exact.
func TestSpanMetricsOneOp(t *testing.T) {
	const ms = int64(time.Millisecond)
	spans := []span{
		{ID: 1, Op: 1, Layer: layerLoadgen, Name: "get", Start: 0, End: 20 * ms, Bytes: 4000},
		{ID: 2, Parent: 1, Op: 1, Layer: layerGateway, Name: "object_get", Start: 1 * ms, End: 19 * ms},
	}
	for i := int32(0); i < 5; i++ {
		start := (2 + int64(i)) * ms // opened one after another
		end := 12 * ms
		if i == 4 {
			end = 18 * ms // the straggler
		}
		client := span{ID: 10 + i, Parent: 2, Op: 1, Layer: layerClient, Name: "shard_get",
			Key: "k/" + string(rune('0'+i)), Start: start, Header: start + ms/2, End: end, Bytes: 1000}
		server := span{ID: 20 + i, Parent: client.ID, Op: 1, Layer: layerNode, Name: "shard_get",
			Start: start, End: start + 1*ms}
		spans = append(spans, client, server)
	}
	m := spanMetrics(spans, 4, false)
	want := map[string]float64{
		"cluster.shard_requests_per_op":     5,
		"cluster.shard_bytes_per_user_byte": 1.25,
		"cluster.fanout_ms_p50":             16,  // union of [2,12] .. [6,18]
		"cluster.gateway_self_ms_p50":       2,   // 18 ms long, 16 covered
		"cluster.open_k_ms_p50":             4.5, // 4th header at 5.5 ms, gateway started at 1
		"cluster.shard_retries_per_op":      0,
		"node.serve_get_ms_p50":             1,
		"node.wire_ms_p50":                  8, // client spans 10 9 8 7 12 ms, each minus 1 ms served
		"node.slowest_shard_ratio_p50":      12.0 / 9,
		"node.requests_failed":              0,
		"cluster.small_get_ms_p50":          0, // only small_mixed has classes
	}
	for name, w := range want {
		if got := m[name]; !near(got, w) {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
}

func TestSpanMetricsRetriesAndScan(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Layer: layerLoadgen, Name: "repair", Start: 0, End: 100, Bytes: 10},
		{ID: 2, Parent: 1, Op: 1, Layer: layerClient, Name: "shard_put", Key: "a/1", Start: 0, End: 10, Failed: true},
		{ID: 3, Parent: 1, Op: 1, Layer: layerClient, Name: "shard_put", Key: "a/1", Start: 20, End: 30},
		{ID: 4, Op: 4, Layer: layerLoadgen, Name: "scan", Start: 0, End: int64(6 * time.Millisecond)},
		{ID: 5, Parent: 4, Op: 4, Layer: layerClient, Name: "objects", Start: 0, End: 1},
		{ID: 6, Parent: 4, Op: 4, Layer: layerClient, Name: "scrub", Key: "a/0", Start: 1, End: 2},
		{ID: 7, Parent: 4, Op: 4, Layer: layerClient, Name: "scrub", Key: "a/1", Start: 2, End: 3},
		{ID: 8, Parent: 4, Op: 4, Layer: layerClient, Name: "scrub", Key: "b/0", Start: 3, End: 4},
	}
	m := spanMetrics(spans, 4, false)
	if m["cluster.shard_retries_per_op"] != 1 || m["node.requests_failed"] != 1 {
		t.Errorf("retries %v failed %v, want 1 and 1", m["cluster.shard_retries_per_op"], m["node.requests_failed"])
	}
	if m["cluster.shard_requests_per_op"] != 2 {
		t.Errorf("requests per op %v, want 2: a scan is not an op", m["cluster.shard_requests_per_op"])
	}
	if !near(m["cluster.scan_ms_per_object"], 3) {
		t.Errorf("scan ms per object %v, want 3: 6 ms over objects a and b", m["cluster.scan_ms_per_object"])
	}
}
