package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dialga/internal/node"
	"dialga/internal/obs"
	"dialga/internal/rs"
	"dialga/internal/stream"
)

// GatewayOptions configures a Gateway. Map and geometry (K, M) are
// required; everything else defaults sensibly.
type GatewayOptions struct {
	// Map is the cluster membership placement draws from. Required.
	Map *Map
	// K and M are the erasure geometry: K data + M parity shards per
	// stripe. Required; K+M must not exceed the map's failure domains.
	K, M int
	// StripeSize is the data bytes per stripe on PUT, for objects that
	// fill one: an object smaller than half of it is stored as a single
	// stripe of smaller shards (see shardSizeFor). Default
	// stream.DefaultStripeSize.
	StripeSize int
	// Router orders shards for reads. Default FirstK.
	Router Router
	// HedgeAfter enables hedged degraded reads on GET (see
	// stream.Options.HedgeAfter): a stripe whose deadline passes with K
	// blocks in hand reconstructs around the straggler, whose block is
	// recycled when it lands, and one with fewer brings a spare in. Zero
	// disables hedging.
	HedgeAfter time.Duration
	// HTTPClient is the transport shard requests ride — the hook for
	// timeouts, pooling, and fault.Transport chaos. Default
	// http.DefaultClient.
	HTTPClient *http.Client
	// Metrics receives cluster_* and the underlying stream_*/shardio_*
	// series. Nil disables.
	Metrics *obs.Registry
	// WriteQuorum is the number of shard uploads that must land before
	// a put is acknowledged. Zero means all K+M (every put fully
	// redundant at ack). Any other value must lie in [K+1, K+M]: at
	// least one shard beyond the data minimum, so an acked object
	// always survives the immediate loss of any single node. A shard
	// missing at ack time is found by the next repair scan, like any
	// other damage: it is absent, or holds an older generation.
	WriteQuorum int
	// PutRetries is the per-shard retry budget for transient upload
	// failures during a put. Zero means the default (2 retries). With
	// retries on, a put keeps its encoded stripes (size·(K+M)/K bytes,
	// one copy shared by all K+M uploads) until it ends, so a failed
	// upload can start again from stripe 0. -1 disables retries, and the
	// put then holds a window of putWindow stripes however large the
	// object: the put for objects larger than memory. Attempt n waits
	// a jittered delay under n·putBackoffBase first (see putBackoff).
	PutRetries int
}

// Gateway stripes whole objects across the cluster: PUT encodes an
// object through the streaming pipeline into K+M shard uploads placed
// rack-disjoint by Place; GET opens K shards in router order and decodes
// — degraded, hedged, and CRC-healed exactly like local reads, because
// remote shards arrive as ordinary stream readers, with a spare opened
// mid-stream only for a stripe that comes up short. Any node can host a
// gateway (placement is deterministic), so there is no metadata
// service to lose.
type Gateway struct {
	k, m    int
	rungs   []int              // the shard sizes puts choose from; see shardSizes
	pipes   map[int]*pipelines // each rung's pipelines, built once; see pipelinesFor
	router  *sideliner         // the configured Router under cross-request sidelining
	hedge   time.Duration
	reg     *obs.Registry
	hc      *http.Client
	codec   *rs.Code
	quorum  int           // shard uploads required to ack a put
	retries int           // per-shard transient retry budget (-1: disabled)
	lastGen atomic.Uint64 // the last generation a put drew

	// Resolved in NewGateway, each named for its series (per-node ones are
	// in nodeSeries); a map holds a family's series by label value.
	gets, puts, spares                                   map[string]*obs.Counter
	getBytes, putBytes, rangeGets, putDegraded, mapSwaps *obs.Counter
	mapEpoch, retained                                   *obs.Gauge
	putSizes                                             *obs.Histogram

	// state is the current membership generation: the map plus one
	// shard client per member. Every operation loads it exactly once at
	// entry, so a concurrent UpdateMap never changes the placement or
	// client set an in-flight stream is using — reads opened under
	// epoch N complete under epoch N.
	state  atomic.Pointer[mapState]
	swapMu sync.Mutex // serializes UpdateMap
}

// mapState pairs a cluster map with the shard clients built from it and
// each member's series. All are immutable once published.
type mapState struct {
	cmap    *Map
	clients map[NodeID]*node.Client
	series  map[NodeID]nodeSeries
}

// nodeSeries are the series the gateway counts against one node:
// cluster_open_failures_total, cluster_put_shard_failures_total and
// cluster_put_shard_retries_total. A node the generation does not know
// has the zero nodeSeries, which counts nothing; it is counted in
// cluster_unknown_node_total instead.
type nodeSeries struct{ openFailures, putFailures, putRetries *obs.Counter }

// ErrUnknownNode reports a placement that names a node the current map
// has no client for — a stale placement raced a membership change, or
// the map is inconsistent. Operations return it instead of panicking.
var ErrUnknownNode = errors.New("cluster: placement names unknown node")

// nodeClients returns the generation's shard clients in map order.
func (st *mapState) nodeClients() []*node.Client {
	nodes := st.cmap.Nodes()
	clients := make([]*node.Client, len(nodes))
	for i, info := range nodes {
		clients[i] = st.clients[info.ID]
	}
	return clients
}

// snap loads the current membership generation.
func (g *Gateway) snap() *mapState { return g.state.Load() }

// clientFor resolves a node's shard client within one generation,
// counting (instead of panicking on) placements that name a node the
// map does not know.
func (g *Gateway) clientFor(st *mapState, id NodeID) (*node.Client, error) {
	if c, ok := st.clients[id]; ok {
		return c, nil
	}
	// A lookup on a request's path: a node absent from the map has no series yet.
	g.reg.Counter("cluster_unknown_node_total",
		"Operations that hit a placement naming a node absent from the map, by node.",
		obs.Label{Key: "node", Value: string(id)}).Inc()
	return nil, fmt.Errorf("%w: %s (map epoch %d)", ErrUnknownNode, id, st.cmap.Epoch())
}

// dial builds a shard client for an address outside the current map —
// the migrator uses it to read shards back from nodes a map change
// removed.
func (g *Gateway) dial(addr string) *node.Client {
	return node.NewClient(addr).WithHTTPClient(g.hc)
}

// NewGateway validates opts into a Gateway.
func NewGateway(opts GatewayOptions) (*Gateway, error) {
	if opts.Map == nil {
		return nil, errors.New("cluster: gateway needs a Map")
	}
	codec, err := rs.New(opts.K, opts.M)
	if err != nil {
		return nil, err
	}
	if d := opts.Map.Domains(); opts.K+opts.M > d {
		return nil, fmt.Errorf("cluster: RS(%d,%d) needs %d failure domains, map has %d",
			opts.K, opts.M, opts.K+opts.M, d)
	}
	stripeSize := opts.StripeSize
	if stripeSize <= 0 {
		stripeSize = stream.DefaultStripeSize
	}
	router := opts.Router
	if router == nil {
		router = FirstK{}
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	quorum := opts.WriteQuorum
	switch {
	case quorum == 0:
		quorum = opts.K + opts.M // full-width ack, always self-consistent
	case quorum < opts.K+1 || quorum > opts.K+opts.M:
		return nil, fmt.Errorf("cluster: write quorum %d outside [%d, %d]",
			opts.WriteQuorum, opts.K+1, opts.K+opts.M)
	}
	retries := opts.PutRetries
	if retries == 0 {
		retries = 2
	}
	if retries < 0 {
		retries = -1
	}
	reg := opts.Metrics
	g := &Gateway{
		k:       opts.K,
		m:       opts.M,
		rungs:   shardSizes((stripeSize + opts.K - 1) / opts.K),
		pipes:   make(map[int]*pipelines),
		router:  newSideliner(router, reg),
		hedge:   opts.HedgeAfter,
		reg:     reg,
		hc:      hc,
		codec:   codec,
		quorum:  quorum,
		retries: retries,
		gets:    byLabel(reg, "cluster_gets_total", "Object gets, by result.", "result", "ok", "error"),
		puts: byLabel(reg, "cluster_puts_total", "Object puts, by result.",
			"result", "ok", "degraded", "error"),
		spares: byLabel(reg, "cluster_read_spares_total",
			"Shards reads opened beyond their first k, by the evidence that called for them (open, dead, corrupt, late).",
			"reason", "open", "dead", "corrupt", "late"),
		getBytes:  reg.Counter("cluster_get_bytes_total", "Object payload bytes read."),
		putBytes:  reg.Counter("cluster_put_bytes_total", "Object payload bytes written."),
		rangeGets: reg.Counter("cluster_range_gets_total", "Object byte-range gets opened."),
		putDegraded: reg.Counter("cluster_put_degraded_total",
			"Puts acknowledged at quorum with one or more shards owed to repair."),
		mapSwaps: reg.Counter("cluster_map_swaps_total", "Cluster map generations swapped in since start."),
		mapEpoch: reg.Gauge("cluster_map_epoch", "Epoch of the cluster map currently serving."),
		retained: reg.Gauge("cluster_put_retained_bytes",
			"Encoded stripe bytes puts currently lend to their shard uploads."),
	}
	sizes := make([]float64, len(g.rungs))
	for i, s := range g.rungs {
		sizes[i] = float64(s)
		// Building the rungs' pipelines is what validates the options.
		p, err := g.pipelinesFor(s)
		if err != nil {
			return nil, err
		}
		g.pipes[s] = p
	}
	g.putSizes = reg.Histogram("cluster_put_shard_size_bytes",
		"Object puts by the shard size they were stored at: one bucket per rung of the ladder.", sizes)
	g.mapEpoch.Set(float64(opts.Map.Epoch()))
	g.state.Store(g.buildState(opts.Map, nil))
	return g, nil
}

// byLabel resolves one counter series per value of the label key.
func byLabel(reg *obs.Registry, name, help, key string, values ...string) map[string]*obs.Counter {
	series := make(map[string]*obs.Counter, len(values))
	for _, v := range values {
		series[v] = reg.Counter(name, help, obs.Label{Key: key, Value: v})
	}
	return series
}

// buildState makes the client set for a map, reusing the previous
// generation's client for any node whose address did not change so
// connection pools survive a swap, and resolves each member's series.
func (g *Gateway) buildState(next *Map, prev *mapState) *mapState {
	st := &mapState{cmap: next, clients: make(map[NodeID]*node.Client, next.Len()),
		series: make(map[NodeID]nodeSeries, next.Len())}
	for _, n := range next.Nodes() {
		g.router.meet(n.ID)
		lbl := obs.Label{Key: "node", Value: string(n.ID)}
		st.series[n.ID] = nodeSeries{
			openFailures: g.reg.Counter("cluster_open_failures_total",
				"Shard opens that failed during object reads, by node.", lbl),
			putFailures: g.reg.Counter("cluster_put_shard_failures_total",
				"Shard uploads that failed permanently during puts, by node.", lbl),
			putRetries: g.reg.Counter("cluster_put_shard_retries_total",
				"Shard uploads started again after a transient failure during puts, by node.", lbl),
		}
		if prev != nil {
			if old, ok := prev.cmap.Get(n.ID); ok && old.Addr == n.Addr {
				st.clients[n.ID] = prev.clients[n.ID]
				continue
			}
		}
		st.clients[n.ID] = g.dial(n.Addr)
	}
	return st
}

// UpdateMap atomically swaps the cluster map for a newer generation.
// The new map must carry a higher epoch than the current one and keep
// enough failure domains for the gateway's geometry. In-flight
// operations finish on the map they started with; operations started
// after UpdateMap returns see only the new one. Swapping the map does
// not move any data — diff the placements with Repairer.Rebalance to
// converge shards onto the new map.
func (g *Gateway) UpdateMap(next *Map) error {
	if next == nil {
		return errors.New("cluster: UpdateMap needs a map")
	}
	if d := next.Domains(); g.k+g.m > d {
		return fmt.Errorf("cluster: RS(%d,%d) needs %d failure domains, new map has %d",
			g.k, g.m, g.k+g.m, d)
	}
	g.swapMu.Lock()
	defer g.swapMu.Unlock()
	cur := g.state.Load()
	if next.Epoch() <= cur.cmap.Epoch() {
		return fmt.Errorf("cluster: map epoch %d is not newer than current epoch %d",
			next.Epoch(), cur.cmap.Epoch())
	}
	g.state.Store(g.buildState(next, cur))
	g.mapEpoch.Set(float64(next.Epoch()))
	g.mapSwaps.Inc()
	return nil
}

// Map returns the gateway's current cluster map. Operations that need
// a stable view across several calls should hold on to the returned
// map rather than calling Map repeatedly.
func (g *Gateway) Map() *Map { return g.snap().cmap }

// Place returns the object's deterministic shard placement under the
// gateway's geometry and current map.
func (g *Gateway) Place(object string) (Placement, error) {
	return g.snap().cmap.Place(object, g.k+g.m)
}

// Client returns the shard client for a node in the current map.
func (g *Gateway) Client(id NodeID) (*node.Client, bool) {
	c, ok := g.snap().clients[id]
	return c, ok
}

// ObjectRead is an opened object read pinned to one map generation:
// the shards are already streaming when OpenObject returns, so the
// object's size is known before the first payload byte and a
// concurrent map swap cannot disturb the read. Stream the bytes with
// WriteTo, which releases the shards.
type ObjectRead struct {
	g        *Gateway
	object   string
	src      *shardOpener // what the shards agree on, and the candidates left to spare
	readers  []io.Reader  // k+m entries, nil where unopened
	size     int64        // full object size
	off      int64        // first payload byte this read yields
	length   int64        // payload bytes this read yields
	ranged   bool         // opened as a byte-range read
	streamed bool
}

// Size returns the full object size in bytes.
func (o *ObjectRead) Size() int64 { return o.size }

// Off returns the offset of the first byte WriteTo will produce.
func (o *ObjectRead) Off() int64 { return o.off }

// Length returns how many bytes WriteTo will produce.
func (o *ObjectRead) Length() int64 { return o.length }

// Ranged reports whether the read covers a byte range rather than the
// whole object.
func (o *ObjectRead) Ranged() bool { return o.ranged }

// WriteTo decodes the read's byte window into w — degraded, hedged,
// and CRC-healed exactly like a local read, opening a spare at the
// stripe that needs one. It consumes the shard streams; call at most
// once.
func (o *ObjectRead) WriteTo(ctx context.Context, w io.Writer) error {
	g := o.g
	if o.streamed {
		return fmt.Errorf("cluster: get %q: read already consumed", o.object)
	}
	o.streamed = true
	p, err := g.pipelinesFor(int(o.src.header.ShardSize))
	if err != nil {
		closeReaders(o.readers)
		return err
	}
	if err := p.dec.DecodeRange(ctx, o.readers, w, o.size, o.off, o.length, o.src.spare); err != nil {
		g.gets["error"].Inc()
		return fmt.Errorf("cluster: get %q: %w", o.object, err)
	}
	g.gets["ok"].Inc()
	g.getBytes.Add(uint64(o.length))
	return nil
}

// OpenObject opens a full-object read: k shards streaming under one map
// generation, size known up front.
func (g *Gateway) OpenObject(ctx context.Context, object string, class string) (*ObjectRead, error) {
	return g.openRead(ctx, object, 0, -1, false, class)
}

// GetObject streams the object's bytes into w, reconstructing from any
// k of its shards: failed nodes are skipped at open, stragglers are
// hedged around mid-stream, and corrupt blocks are healed by CRC-led
// reconstruction, each through a spare opened at the stripe that needs
// it — the full degraded-read machinery, over the network.
func (g *Gateway) GetObject(ctx context.Context, object string, w io.Writer, class string) error {
	o, err := g.OpenObject(ctx, object, class)
	if err != nil {
		return err
	}
	return o.WriteTo(ctx, w)
}

// OpenObjectRange opens a byte-range read of the object: the length
// bytes from off, where length < 0 means to the end of the object and
// off < 0 a suffix read of the last -off bytes. Each of the k shards it
// opens, like a whole read's, is asked for that range, and its node
// serves only the blocks that carry it — so the work is O(range), not
// O(object), and a spare is opened only for a stripe that comes up
// short, from that stripe on. The range is cut from the header the k
// shards agree on, by the rule the nodes use (shardfile.Header.Cut); a
// range it cannot satisfy (past the end, zero bytes, an empty object)
// returns a *RangeError carrying that size for a 416 response.
func (g *Gateway) OpenObjectRange(ctx context.Context, object string, off, length int64, class string) (*ObjectRead, error) {
	return g.openRead(ctx, object, off, length, true, class)
}

// openRead opens k shards at the object bytes [off, off+length) under
// one map generation and cuts the read from the header they agree on.
func (g *Gateway) openRead(ctx context.Context, object string, off, length int64, ranged bool, class string) (*ObjectRead, error) {
	st := g.snap()
	placement, err := st.cmap.Place(object, g.k+g.m)
	if err != nil {
		return nil, err
	}
	o := g.newShardOpener(st, object, placement, class)
	readers, err := o.open(ctx, off, length)
	if err != nil {
		g.gets["error"].Inc()
		return nil, fmt.Errorf("cluster: get %q: %w", object, err)
	}
	size := int64(o.header.FileSize)
	if ranged {
		if o.win.Len == 0 {
			closeReaders(readers)
			return nil, fmt.Errorf("cluster: get %q: %w", object, &RangeError{Size: size})
		}
		g.rangeGets.Inc()
	}
	return &ObjectRead{g: g, object: object, src: o, readers: readers,
		size: size, off: o.win.Off, length: o.win.Len, ranged: ranged}, nil
}

// DeleteObject drops every shard of the object from its placement.
// Unreachable nodes make it return an error, but reachable shards are
// deleted regardless (deletes are idempotent; re-run to finish).
func (g *Gateway) DeleteObject(ctx context.Context, object string, class string) error {
	st := g.snap()
	placement, err := st.cmap.Place(object, g.k+g.m)
	if err != nil {
		return err
	}
	var firstErr error
	for idx, info := range placement {
		cli, cerr := g.clientFor(st, info.ID)
		if cerr != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: delete %q shard %d: %w", object, idx, cerr)
			}
			continue
		}
		if err := cli.WithClass(class).DeleteShard(ctx, object, idx); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cluster: delete %q shard %d on %s: %w", object, idx, info.ID, err)
		}
	}
	return firstErr
}

// Objects lists every object any reachable node stores shards for.
func (g *Gateway) Objects(ctx context.Context) ([]string, error) {
	return listObjects(ctx, g.snap().nodeClients(), node.ClassForeground, "list")
}

// listObjects merges the object listings of clients, asked in traffic
// class: every object any of them stores shards for, sorted. A node
// that does not answer is skipped; the listing fails only when none
// answers, with who naming the caller in the error.
func listObjects(ctx context.Context, clients []*node.Client, class, who string) ([]string, error) {
	seen := make(map[string]bool)
	var names []string
	var firstErr error
	reached := 0
	for _, cli := range clients {
		list, err := cli.WithClass(class).Objects(ctx)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		reached++
		for _, name := range list {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	if reached == 0 {
		return nil, fmt.Errorf("cluster: %s: no node reachable: %w", who, firstErr)
	}
	sort.Strings(names)
	return names, nil
}
