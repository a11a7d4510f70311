package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"testing"
	"time"

	"dialga/internal/node"
	"dialga/internal/obs"
	"dialga/internal/shardfile"
)

// TestShardSizeLadder pins the ladder at k = 3, so that nothing leans
// on k being a power of two: the top rung is ceil(1 MiB / 3), not a
// power of two itself, and every edge is a multiple of three.
func TestShardSizeLadder(t *testing.T) {
	const k, stripe = 3, 1 << 20
	top := (stripe + k - 1) / k
	rungs := shardSizes(top)
	if want := []int{4096, 8192, 16384, 32768, 65536, 131072, 262144, 349526}; !slices.Equal(rungs, want) {
		t.Fatalf("ladder under a %d-byte shard is %v, want %v", top, rungs, want)
	}

	type tcase struct {
		size int64
		want int
	}
	cases := []tcase{
		{0, 4096}, {1, 4096},
		{4096 * k, 4096}, {4096*k + 1, 8192},
		{stripe / 2, 262144}, {stripe/2 + 1, 262144},
		{stripe, top}, {8 * stripe, top},
	}
	for i, r := range rungs[:len(rungs)-1] {
		edge := int64(r) * k // the largest object one stripe of r-byte shards holds
		cases = append(cases, tcase{edge - 1, r}, tcase{edge, r}, tcase{edge + 1, rungs[i+1]})
	}
	for _, c := range cases {
		got := shardSizeFor(rungs, c.size, k)
		if got != c.want {
			t.Errorf("%d bytes: shard size %d, want %d", c.size, got, c.want)
		}
		if again := shardSizeFor(rungs, c.size, k); again != got {
			t.Errorf("%d bytes: shard size %d, then %d", c.size, got, again)
		}
		if c.size <= int64(top)*k && int64(got)*k < c.size {
			t.Errorf("%d bytes: one stripe of %d-byte shards does not hold it", c.size, got)
		}
	}
	// Monotone: a larger object never takes a smaller rung.
	prev := 0
	for size := int64(0); size <= 2*stripe; size += 509 {
		got := shardSizeFor(rungs, size, k)
		if got < prev {
			t.Fatalf("%d bytes: shard size %d after %d for a smaller object", size, got, prev)
		}
		prev = got
	}

	// The cap: a configured shard size under the floor is the whole ladder.
	if got := shardSizes(1024); !slices.Equal(got, []int{1024}) {
		t.Fatalf("ladder under a 1 KiB shard is %v, want just it", got)
	}
	// The defaults, RS(4,2) over 1 MiB: seven rungs, a 64 KiB object on
	// the 16 KiB one, anything past half a stripe where it always was.
	def := shardSizes(256 << 10)
	for _, c := range []tcase{{64 << 10, 16 << 10}, {512 << 10, 128 << 10}, {512<<10 + 1, 256 << 10}, {8 << 20, 256 << 10}} {
		if got := shardSizeFor(def, c.size, 4); len(def) != 7 || got != c.want {
			t.Errorf("defaults (%d rungs): %d bytes: shard size %d, want %d", len(def), c.size, got, c.want)
		}
	}
}

// ladderObject is one object of TestLadderEndToEnd: a size on one side
// of a rung's edge, and the shard size the ladder must store it at.
type ladderObject struct {
	name      string
	payload   []byte
	shardSize int
}

func (o ladderObject) header(idx int) shardfile.Header {
	stripe := uint64(o.shardSize * 4)
	return shardfile.Header{
		Version: shardfile.VersionV3, Algo: shardfile.AlgoCRC32C,
		K: 4, M: 2, Index: uint32(idx),
		ShardSize:   uint32(o.shardSize),
		StripeCount: (uint64(len(o.payload)) + stripe - 1) / stripe,
		FileSize:    uint64(len(o.payload)),
	}
}

// storeAt writes o's six shard files to their placed nodes, encoded at
// o.shardSize whatever rung the ladder would pick — as another gateway,
// or this one before the ladder, may have stored it — and returns them.
func (tc *testCluster) storeAt(ctx context.Context, o ladderObject) [][]byte {
	tc.t.Helper()
	p, err := tc.gw.pipelinesFor(o.shardSize)
	if err != nil {
		tc.t.Fatal(err)
	}
	enc := p.enc
	bufs := make([]bytes.Buffer, 6)
	writers := make([]io.Writer, 6)
	for idx := range bufs {
		bufs[idx].Write(o.header(idx).Marshal())
		writers[idx] = &bufs[idx]
	}
	if err := enc.Encode(ctx, bytes.NewReader(o.payload), writers); err != nil {
		tc.t.Fatal(err)
	}
	place, err := tc.gw.Place(o.name)
	if err != nil {
		tc.t.Fatal(err)
	}
	files := make([][]byte, 6)
	for idx := range bufs {
		files[idx] = bufs[idx].Bytes()
		cli, _ := tc.gw.Client(place[idx].ID)
		if err := cli.PutShard(ctx, o.name, idx, bytes.NewReader(files[idx])); err != nil {
			tc.t.Fatal(err)
		}
	}
	return files
}

// TestLadderEndToEnd stores, over HTTP, an object on each side of every
// rung's edge under dialga-node's default geometry and follows each
// through everything that sizes itself from a stored header: the bytes
// on disk, a full GET, ranged GETs, a degraded GET with two nodes
// stopped, the rebuild of a deleted shard, and a migration under a map
// swap.
func TestLadderEndToEnd(t *testing.T) {
	tc := startClusterOpts(t, 6, 4, 2, func(o *GatewayOptions) { o.StripeSize = 1 << 20 })
	srv := startHTTP(t, tc)
	ctx := context.Background()

	var objects []ladderObject
	add := func(size, shardSize int) {
		objects = append(objects, ladderObject{
			name:      fmt.Sprintf("rung-%d", size),
			payload:   clusterPayload(uint64(9100+len(objects)), size),
			shardSize: shardSize,
		})
	}
	add(1, 4<<10)
	for r := 4 << 10; r < 256<<10; r <<= 1 {
		add(4*r, r)     // fills one stripe of r-byte shards
		add(4*r+1, 2*r) // one byte too many for it
	}
	add(1<<20+5, 256<<10) // past a stripe: the top rung, tail padded as ever

	for _, o := range objects {
		if resp := httpPut(t, srv, o.name, o.payload); resp.StatusCode != http.StatusCreated {
			t.Fatalf("put %s: status %d", o.name, resp.StatusCode)
		}
		for idx := 0; idx < 6; idx++ {
			raw := tc.shardFile(o.name, idx)
			got, err := shardfile.Parse(bytes.NewReader(raw))
			want := o.header(idx)
			want.Version, want.Generation = shardfile.VersionV4, got.Generation
			if err != nil || got != want || got.Generation == 0 || int64(len(raw)) != want.ExpectedFileSize() {
				t.Fatalf("%s shard %d: %d bytes on disk under %+v, %v; want %d-byte shards in a %d-byte file under the header %+v",
					o.name, idx, len(raw), got, err, o.shardSize, want.ExpectedFileSize(), want)
			}
		}
		if len(o.payload) == 64<<10 && len(tc.shardFile(o.name, 0)) != 16444 {
			t.Fatalf("a 64 KiB object's shard is %d bytes, want 56 + 16384 + 4", len(tc.shardFile(o.name, 0)))
		}
	}
	counts, _, total := tc.gw.putSizes.Snapshot()
	if total != uint64(len(objects)) || counts[0] != 2 || counts[len(counts)-2] != 2 || counts[len(counts)-1] != 0 {
		t.Fatalf("cluster_put_shard_size_bytes buckets %v after %d puts, want two at the floor, two at the top, none beyond", counts, len(objects))
	}

	read := func(when string) {
		t.Helper()
		for _, o := range objects {
			size := len(o.payload)
			resp, body, err := httpGet(t, srv, o.name, "")
			if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, o.payload) {
				t.Fatalf("%s: get %s: status %d, %d of %d bytes, %v", when, o.name, resp.StatusCode, len(body), size, err)
			}
			for _, win := range [][2]int{{0, 0}, {size - 1, size - 1}, {size / 3, size/3 + min(999, size/3)}} {
				resp, body, err := httpGet(t, srv, o.name, fmt.Sprintf("bytes=%d-%d", win[0], win[1]))
				if err != nil || resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, o.payload[win[0]:win[1]+1]) {
					t.Fatalf("%s: get %s bytes %d-%d: status %d, %d bytes, %v", when, o.name, win[0], win[1], resp.StatusCode, len(body), err)
				}
			}
		}
	}
	read("all nodes up")
	tc.nodes[0].stop()
	tc.nodes[1].stop()
	read("two nodes stopped")
	tc.nodes[0].start()
	tc.nodes[1].start()

	// One rebuild per object, each of a different shard than the last:
	// byte-identical files.
	rep := NewRepairer(tc.gw, nil, tc.reg)
	for i, o := range objects {
		idx := i % 6
		want := tc.shardFile(o.name, idx)
		tc.deleteShard(ctx, o.name, idx)
		if err := rep.RepairOne(ctx, o.name, idx); err != nil {
			t.Fatalf("repair %s shard %d: %v", o.name, idx, err)
		}
		if got := tc.shardFile(o.name, idx); !bytes.Equal(got, want) {
			t.Fatalf("%s shard %d: rebuilt file (%d bytes) differs from the one the put wrote (%d bytes)", o.name, idx, len(got), len(want))
		}
	}

	// A map swap — n1's rack leaves, n6 joins — and the migration it
	// asks for: every shard file arrives at its new home as it was.
	before := map[string][]byte{}
	for _, o := range objects {
		for idx := 0; idx < 6; idx++ {
			before[fmt.Sprintf("%s/%d", o.name, idx)] = tc.shardFile(o.name, idx)
		}
	}
	extra := &testNode{t: t, id: "n6", dir: t.TempDir(), addr: "127.0.0.1:0", reg: tc.reg}
	extra.start()
	t.Cleanup(extra.stop)
	tc.nodes = append(tc.nodes, extra)
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
	if err := tc.gw.UpdateMap(newMap.WithEpoch(oldMap.Epoch() + 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Rebalance(ctx, oldMap); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); rep.pending() > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("rebalance queue not drained: %d pending", rep.pending())
		}
		rep.DrainOnce(ctx)
	}
	for _, o := range objects {
		for idx := 0; idx < 6; idx++ {
			if !bytes.Equal(tc.shardFile(o.name, idx), before[fmt.Sprintf("%s/%d", o.name, idx)]) {
				t.Fatalf("%s shard %d changed on its way to its new home", o.name, idx)
			}
		}
	}
	read("after the migration")
}

// TestOverwriteAcrossRungs overwrites one key small → 8 MiB → small,
// each time with a different node down, so each overwrite leaves one
// node holding a valid shard of the version before — stored at another
// rung. A read is sized by what its shards agree on (SameEncoding), and
// shard size is part of that: it returns the latest version's bytes,
// whole or by range, never a blend of two encodings.
func TestOverwriteAcrossRungs(t *testing.T) {
	tc := startClusterOpts(t, 6, 4, 2, func(o *GatewayOptions) {
		o.StripeSize = 1 << 20
		o.WriteQuorum = 5
	})
	ctx := context.Background()
	const object = "rewritten"
	place, err := tc.gw.Place(object)
	if err != nil {
		t.Fatal(err)
	}
	tc.put(ctx, object, clusterPayload(921, 64<<10))
	for i, size := range []int{8 << 20, 40_000} {
		down := tc.node(place[i].ID) // holds shard i, asked first or second
		down.stop()
		latest := clusterPayload(uint64(922+i), size)
		tc.put(ctx, object, latest) // degraded: the stopped node keeps the version before
		down.start()

		want := shardSizeFor(tc.gw.rungs, int64(size), 4)
		if h, err := shardfile.Parse(bytes.NewReader(tc.shardFile(object, i))); err != nil || int(h.ShardSize) == want {
			t.Fatalf("overwrite %d: shard %d should be stale, at another rung than %d: header %+v, %v", i, i, want, h, err)
		}
		tc.mustGet(ctx, object, latest)
		for _, win := range [][2]int64{{0, 1}, {int64(size) - 1, 1}, {int64(size) / 2, 1000}} {
			var part bytes.Buffer
			err := tc.gw.getObjectRange(ctx, object, &part, win[0], win[1], node.ClassForeground)
			if err != nil || !bytes.Equal(part.Bytes(), latest[win[0]:win[0]+win[1]]) {
				t.Fatalf("overwrite %d: range (%d,%d): %v, %d bytes that are not the latest version's", i, win[0], win[1], err, part.Len())
			}
		}
	}
}

// TestReadsObjectsStoredBeforeTheLadder: a 64 KiB object as gateways
// before the ladder stored it — one zero-padded stripe of 256 KiB
// shards — is read, read by range, scrubbed clean and rebuilt byte for
// byte by a gateway that would itself have stored it in 16 KiB shards:
// the header says how an object is stored, not the reader's ladder.
func TestReadsObjectsStoredBeforeTheLadder(t *testing.T) {
	tc := startClusterOpts(t, 6, 4, 2, func(o *GatewayOptions) { o.StripeSize = 1 << 20 })
	ctx := context.Background()
	const object = "old-small"
	payload := clusterPayload(931, 64<<10)
	files := tc.storeAt(ctx, ladderObject{name: object, payload: payload, shardSize: 256 << 10})

	tc.mustGet(ctx, object, payload)
	var part bytes.Buffer
	if err := tc.gw.getObjectRange(ctx, object, &part, 60_000, 5536, node.ClassForeground); err != nil ||
		!bytes.Equal(part.Bytes(), payload[60_000:]) {
		t.Fatalf("range read of the last 5536 bytes: %v, %d bytes", err, part.Len())
	}
	rep := NewRepairer(tc.gw, nil, tc.reg)
	if n, err := rep.ScanOnce(ctx); err != nil || n != 0 {
		t.Fatalf("scan found %d damaged shards, %v", n, err)
	}
	tc.deleteShard(ctx, object, 5)
	if err := rep.RepairOne(ctx, object, 5); err != nil {
		t.Fatal(err)
	}
	if got := tc.shardFile(object, 5); !bytes.Equal(got, files[5]) {
		t.Fatalf("rebuilt shard (%d bytes) differs from the stored one (%d bytes)", len(got), len(files[5]))
	}

	// Overwritten, the key moves to the rung the ladder picks.
	tc.put(ctx, object, payload)
	if got, want := len(tc.shardFile(object, 0)), 56+16384+4; got != want {
		t.Fatalf("overwritten shard is %d bytes, want %d", got, want)
	}
	tc.mustGet(ctx, object, payload)
}

// TestPutsTakeLadderRungsWithinBudget: whatever sizes arrive, a put
// stores at one of the ladder's shard sizes, so the stripes of 200
// distinct sizes come in as many buffer sizes as the ladder has rungs,
// and what the puts leave idle stays within the process's budget.
func TestPutsTakeLadderRungsWithinBudget(t *testing.T) {
	infos := make([]NodeInfo, 6)
	for i := range infos {
		infos[i] = NodeInfo{ID: NodeID(fmt.Sprintf("n%d", i)), Addr: fmt.Sprintf("sink:%d", i), Rack: fmt.Sprintf("r%d", i)}
	}
	cmap, err := New(infos)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := NewGateway(GatewayOptions{Map: cmap, K: 4, M: 2, Metrics: obs.NewRegistry(), HTTPClient: &http.Client{Transport: sinkShards{}}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	payload := clusterPayload(930, 2<<20)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		size := int64(1 + i*i*52) // 200 distinct sizes, 1 B … 2 MiB, dense at the small end
		if _, err := gw.PutObject(ctx, "sized", bytes.NewReader(payload[:size]), size, node.ClassForeground); err != nil {
			t.Fatalf("put of %d bytes: %v", size, err)
		}
		enc := gw.encoderFor(size)
		if !slices.Contains(gw.rungs, enc.ShardSize()) {
			t.Fatalf("a put of %d bytes takes %d-byte shards, not a rung of %v", size, enc.ShardSize(), gw.rungs)
		}
		seen[enc.ShardSize()] = true
	}
	counts, _, total := gw.putSizes.Snapshot()
	if len(seen) != len(gw.rungs) || total != 200 || counts[len(counts)-1] != 0 {
		t.Fatalf("200 sizes took %d of the ladder's %d rungs, buckets %v", len(seen), len(gw.rungs), counts)
	}
	checkIdleBudget(t)
}
