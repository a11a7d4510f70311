package obs_test

// The served system's series, end to end: a six-node RS(4,2) cluster
// of in-process nodes and its gateway, all counting into one registry
// as a dialga-node does, driven through the operations it serves.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"dialga/internal/cluster"
	"dialga/internal/node"
	"dialga/internal/obs"
)

// served is the cluster under test: seven nodes, of which the map
// places shards on the first six (the seventh is a migration's
// destination), the gateway's HTTP API, and a repair queue.
type served struct {
	t     *testing.T
	reg   *obs.Registry
	infos []cluster.NodeInfo
	dirs  []string
	srvs  []*http.Server
	gw    *cluster.Gateway
	rep   *cluster.Repairer
	api   *httptest.Server
}

func startServed(t *testing.T) *served {
	t.Helper()
	s := &served{t: t, reg: obs.NewRegistry()}
	for i := 0; i < 7; i++ {
		s.infos = append(s.infos, cluster.NodeInfo{ID: cluster.NodeID(fmt.Sprintf("n%d", i)),
			Addr: "127.0.0.1:0", Rack: fmt.Sprintf("r%d", i), Zone: fmt.Sprintf("z%d", i%2)})
		s.dirs = append(s.dirs, t.TempDir())
		s.srvs = append(s.srvs, nil)
		s.start(i)
		t.Cleanup(func() { s.stop(i) })
	}
	cmap, err := cluster.New(s.infos[:6])
	if err != nil {
		t.Fatal(err)
	}
	s.gw, err = cluster.NewGateway(cluster.GatewayOptions{
		Map: cmap, K: 4, M: 2,
		HedgeAfter:  30 * time.Millisecond,
		Metrics:     s.reg,
		WriteQuorum: 5,
		// A stopped and restarted node must not be reached over a stale
		// pooled socket.
		HTTPClient: &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.rep = cluster.NewRepairer(s.gw, nil, s.reg)
	s.api = httptest.NewServer(s.gw.Handler())
	t.Cleanup(s.api.Close)
	return s
}

// start serves node i's store on its address (a fresh port the first
// time, the same one after a stop).
func (s *served) start(i int) {
	s.t.Helper()
	store, err := node.OpenStore(s.dirs[i], s.reg)
	if err != nil {
		s.t.Fatal(err)
	}
	ln, err := net.Listen("tcp", s.infos[i].Addr)
	if err != nil {
		s.t.Fatal(err)
	}
	s.infos[i].Addr = ln.Addr().String()
	s.srvs[i] = &http.Server{Handler: node.NewServer(store, nil, s.reg).Handler()}
	go s.srvs[i].Serve(ln)
}

func (s *served) stop(i int) {
	if s.srvs[i] != nil {
		s.srvs[i].Close()
		s.srvs[i] = nil
	}
}

func (s *served) put(object string, payload []byte) {
	s.t.Helper()
	req, err := http.NewRequest(http.MethodPut, s.api.URL+"/v1/object/"+object, bytes.NewReader(payload))
	if err != nil {
		s.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		s.t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		s.t.Fatalf("put %s: %s", object, resp.Status)
	}
}

// get reads object, or the range rng names when it is not empty, and
// checks the bytes against want.
func (s *served) get(object, rng string, want []byte) {
	s.t.Helper()
	req, err := http.NewRequest(http.MethodGet, s.api.URL+"/v1/object/"+object, nil)
	if err != nil {
		s.t.Fatal(err)
	}
	if rng != "" {
		req.Header.Set("Range", rng)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		s.t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !bytes.Equal(got, want) {
		s.t.Fatalf("get %s %q: %s, %d bytes (err %v), want %d", object, rng, resp.Status, len(got), err, len(want))
	}
}

// repair deletes shard idx of object from its node and rebuilds it.
func (s *served) repair(object string, idx int) {
	s.t.Helper()
	ctx := context.Background()
	p, err := s.gw.Place(object)
	if err != nil {
		s.t.Fatal(err)
	}
	if err := node.NewClient(p[idx].Addr).DeleteShard(ctx, object, idx); err != nil {
		s.t.Fatal(err)
	}
	if err := s.rep.RepairOne(ctx, object, idx); err != nil {
		s.t.Fatal(err)
	}
}

func payload(seed byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) ^ seed
	}
	return b
}

// TestServedOpsLookUpNoSeries: every series a served operation counts
// was resolved when its owner was built, so once each operation has
// run (and the sideliner has met the nodes it reads) a GET, a range
// GET, a put and a shard rebuild, on the gateway and the nodes alike,
// look up no series in the registry.
func TestServedOpsLookUpNoSeries(t *testing.T) {
	s := startServed(t)
	small, big := payload(1, 64<<10), payload(2, 8<<20)
	s.put("small", small)
	s.put("big", big)
	for _, op := range []struct {
		name   string
		parent float64 // lookups per op before series were resolved up front
		run    func()
	}{
		{"64 KiB GET", 17.0, func() { s.get("small", "", small) }},
		{"64 KiB range GET of an 8 MiB object", 18.0, func() { s.get("big", "bytes=1048576-1114111", big[1<<20:1<<20+64<<10]) }},
		{"64 KiB put", 14.0, func() { s.put("small", small) }},
		{"RepairOne of an 8 MiB object", 17.0, func() { s.repair("big", 1) }},
	} {
		op.run()
		const runs = 5
		before := s.reg.Lookups()
		for i := 0; i < runs; i++ {
			op.run()
		}
		if n := s.reg.Lookups() - before; n != 0 {
			t.Errorf("%s: %.1f registry lookups per op, want 0 (%.1f before series were resolved at construction)",
				op.name, float64(n)/runs, op.parent)
		}
	}
}

// family is one metric family as /metrics exposes it.
type family struct {
	name, kind string
	labels     string // the label keys of its series, sorted and comma-joined; le excluded
	help       string
}

var labelKey = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="`)

// families parses reg's exposition into its families.
func families(t *testing.T, reg *obs.Registry) map[string]family {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.Expose(&buf); err != nil {
		t.Fatal(err)
	}
	fams := map[string]family{}
	help := map[string]string{}
	keys := map[string]map[string]bool{}
	var cur string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, h, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			help[name] = h
		case strings.HasPrefix(line, "# TYPE "):
			name, kind, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			cur = name
			fams[name] = family{name: name, kind: kind, help: help[name]}
			keys[name] = map[string]bool{}
		default:
			_, lbls, ok := strings.Cut(line, "{")
			if !ok {
				continue
			}
			for _, m := range labelKey.FindAllStringSubmatch(lbls, -1) {
				if m[1] != "le" {
					keys[cur][m[1]] = true
				}
			}
		}
	}
	for name, f := range fams {
		var ks []string
		for k := range keys[name] {
			ks = append(ks, k)
		}
		slices.Sort(ks)
		f.labels = strings.Join(ks, ",")
		fams[name] = f
	}
	return fams
}

// runServedScript drives the operations the served system's series
// describe: a 64 KiB put and GET, a range GET of an 8 MiB object, a put
// and a GET with one node down, the rebuild of the shard that put owes,
// and a map change that migrates a node's shards.
func runServedScript(t *testing.T) *served {
	s := startServed(t)
	ctx := context.Background()
	small, big := payload(1, 64<<10), payload(2, 8<<20)
	s.put("small", small)
	s.put("big", big)
	s.get("small", "", small)
	s.get("big", "bytes=1048576-1114111", big[1<<20:1<<20+64<<10])

	p, err := s.gw.Place("small")
	if err != nil {
		t.Fatal(err)
	}
	down := slices.IndexFunc(s.infos, func(n cluster.NodeInfo) bool { return n.ID == p[0].ID })
	s.stop(down)
	s.put("degraded", small)  // lands at quorum, 5 of 6
	s.get("small", "", small) // shard 0's open fails; a spare stands in
	s.start(down)
	p, err = s.gw.Place("degraded")
	if err != nil {
		t.Fatal(err)
	}
	owed := slices.IndexFunc(p, func(n cluster.NodeInfo) bool { return n.ID == s.infos[down].ID })
	if err := s.rep.RepairOne(ctx, "degraded", owed); err != nil {
		t.Fatal(err)
	}

	old := s.gw.Map()
	next, err := cluster.New(append(slices.Clone(s.infos[:5]), s.infos[6]))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.gw.UpdateMap(next.WithEpoch(old.Epoch() + 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.rep.Rebalance(ctx, old); err != nil {
		t.Fatal(err)
	}
	if ok, failed := s.rep.DrainOnce(ctx); ok == 0 || failed != 0 {
		t.Fatalf("migrations: %d ok, %d failed", ok, failed)
	}
	s.get("big", "", big)
	return s
}

// TestServedSeriesContract: after the script, /metrics exposes every
// family that the same script exposed before series were resolved at
// construction, each with the same type, help and label keys. A family
// may appear sooner now, at zero, but none is renamed, re-described,
// re-labelled or dropped.
func TestServedSeriesContract(t *testing.T) {
	got := families(t, runServedScript(t).reg)
	for _, want := range servedFamilies {
		f, ok := got[want.name]
		switch {
		case !ok:
			t.Errorf("%s: not exposed", want.name)
		case f != want:
			t.Errorf("%s exposed as\n\t%+v, want\n\t%+v", want.name, f, want)
		}
	}
	// bench/measure.go and bench/spans.go read these by name.
	for _, name := range []string{"stream_hedged_reads_total", "stream_hedge_wins_total",
		"stream_reconstructed_total", "stream_stripe_latency_us", "shardio_breaker_trips_total",
		"shardio_late_blocks_dropped_total", "node_store_puts_total", "node_store_gets_total",
		"cluster_put_degraded_total", "cluster_open_failures_total"} {
		if !slices.ContainsFunc(servedFamilies, func(f family) bool { return f.name == name }) {
			t.Errorf("%s: the benchmark reads it, but the contract does not cover it", name)
		}
	}
}

// servedFamilies are the families runServedScript exposed before series
// were resolved at construction: the contract every change keeps.
var servedFamilies = []family{
	{"cluster_get_bytes_total", "counter", "", "Object payload bytes read."},
	{"cluster_gets_total", "counter", "result", "Object gets, by result."},
	{"cluster_map_epoch", "gauge", "", "Epoch of the cluster map currently serving."},
	{"cluster_map_swaps_total", "counter", "", "Cluster map generations swapped in since start."},
	{"cluster_migrate_bytes_total", "counter", "", "Shard bytes moved to new homes by rebalancing."},
	{"cluster_migrations_total", "counter", "result", "Shard migrations completed by rebalancing, by how the shard reached its new home."},
	{"cluster_node_late_reads_total", "counter", "node", "Shard reads from the node judged late against the other reads of the same request, failed opens included."},
	{"cluster_node_sidelined", "gauge", "node", "1 while the node is sidelined (asked last by reads), else 0."},
	{"cluster_open_failures_total", "counter", "node", "Shard opens that failed during object reads, by node."},
	{"cluster_put_bytes_total", "counter", "", "Object payload bytes written."},
	{"cluster_put_degraded_total", "counter", "", "Puts acknowledged at quorum with one or more shards owed to repair."},
	{"cluster_put_retained_bytes", "gauge", "", "Encoded stripe bytes puts currently lend to their shard uploads."},
	{"cluster_put_shard_failures_total", "counter", "node", "Shard uploads that failed permanently during puts, by node."},
	{"cluster_put_shard_retries_total", "counter", "node", "Shard uploads started again after a transient failure during puts, by node."},
	{"cluster_put_shard_size_bytes", "histogram", "", "Object puts by the shard size they were stored at: one bucket per rung of the ladder."},
	{"cluster_puts_total", "counter", "result", "Object puts, by result."},
	{"cluster_range_gets_total", "counter", "", "Object byte-range gets opened."},
	{"cluster_read_spares_total", "counter", "reason", "Shards reads opened beyond their first k, by the evidence that called for them (open, dead, corrupt, late)."},
	{"cluster_rebalance_moves_total", "counter", "", "Shard migrations enqueued by rebalance passes."},
	{"cluster_rebalance_queue", "gauge", "", "Shard migrations currently queued by rebalancing."},
	{"cluster_rebalance_runs_total", "counter", "", "Placement-diff rebalance passes started."},
	{"cluster_repair_bytes_total", "counter", "", "Bytes of rebuilt shard data written by the repair queue."},
	{"cluster_repair_queue", "gauge", "", "Damaged shards currently queued for rebuild."},
	{"cluster_repair_queue_priority", "gauge", "redundancy", "Damaged shards queued for rebuild, by the object's remaining redundancy."},
	{"cluster_repair_read_bytes_total", "counter", "", "Bytes of source shard data the repair queue opened to rebuild shards from."},
	{"cluster_scrub_damaged_total", "counter", "status", "Placed shards found damaged by repair scans, by kind."},
	{"cluster_scrub_ok_total", "counter", "", "Placed shards that passed a repair-scan scrub."},
	{"cluster_scrub_unreachable_total", "counter", "", "Placed shards the repair scan could not probe (node down)."},
	{"cluster_sideline_probes_total", "counter", "node,result", "Reads that probed a sidelined node after its cooldown, by node and result."},
	{"cluster_sideline_trips_total", "counter", "node", "Times the node was sidelined for reading behind its peers, including failed probes."},
	{"node_recovery_quarantined_total", "counter", "", "Torn or unreadable shard files quarantined by recovery scans."},
	{"node_recovery_runs_total", "counter", "", "Crash-recovery scans run over the local store."},
	{"node_recovery_tmp_removed_total", "counter", "", "Orphaned upload temp files removed by recovery scans."},
	{"node_requests_total", "counter", "class,route", "Shard-API requests served, by route and traffic class."},
	{"node_store_deletes_total", "counter", "", "Shard files deleted from the local store."},
	{"node_store_gets_total", "counter", "", "Shard files opened for reading from the local store."},
	{"node_store_put_seconds", "histogram", "stage", "Time a committed shard upload spent per stage: receive (blocks read, checked and written) or commit (close, stat and rename)."},
	{"node_store_puts_total", "counter", "", "Shard files accepted and committed to the local store."},
	{"node_store_rejected_total", "counter", "", "Shard uploads rejected by header or size validation."},
	{"node_store_segment_bytes", "gauge", "state", "Bytes of the store's segment log: records the index points at (live) and superseded ones compaction has yet to reclaim (dead)."},
	{"node_store_shards", "gauge", "", "Shard files currently held by the local store."},
	{"node_throttled_total", "counter", "class", "Shard-API requests rejected by admission control, by traffic class."},
	{"shardio_breaker_trips_total", "counter", "", "Shard circuit-breaker trips, including half-open re-trips."},
	{"shardio_deadline_us", "gauge", "", "Last per-stripe deadline, from the block-read latencies the stripe had in hand, microseconds."},
	{"shardio_late_blocks_dropped_total", "counter", "", "Straggler blocks that arrived after their stripe had gone ahead without them; recycled."},
	{"stream_breaker_trips_total", "counter", "pipeline", "Per-shard circuit-breaker trips, including half-open re-trips (decode)."},
	{"stream_bytes_in_total", "counter", "pipeline", "Payload bytes consumed from the input reader(s)."},
	{"stream_bytes_out_total", "counter", "pipeline", "Bytes written to the output writer(s), including parity on encode."},
	{"stream_hedge_wins_total", "counter", "pipeline", "Hedged stripes decoded without at least one straggler's block (decode)."},
	{"stream_hedged_reads_total", "counter", "pipeline", "Stripes that proceeded without a live shard that missed its deadline (decode)."},
	{"stream_reconstructed_total", "counter", "pipeline", "Stripes that needed erasure reconstruction (decode)."},
	{"stream_shard_failures_total", "counter", "pipeline", "Shard input streams that died mid-stream (decode)."},
	{"stream_shards_corrupted_total", "counter", "pipeline", "Shard blocks demoted to per-stripe erasures (decode)."},
	{"stream_stripe_latency_us", "histogram", "pipeline", "Per-stripe codec latency (encode or reconstruct time, excluding I/O)."},
	{"stream_stripes_healed_total", "counter", "pipeline", "Stripes decoded correctly despite corrupt shard blocks (decode)."},
	{"stream_stripes_total", "counter", "pipeline", "Stripes fully emitted downstream."},
	{"stream_worker_panics_total", "counter", "pipeline", "Panics recovered from pipeline stages and shard readers."},
}
