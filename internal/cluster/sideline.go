package cluster

import (
	"errors"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dialga/internal/node"
	"dialga/internal/obs"
	"dialga/internal/shardio"
	"dialga/internal/vclock"
)

// sideliner is the gateway's memory of how its nodes read, kept across
// requests: it wraps the configured Router, learns one latency sample
// per shard body from Observe, and moves the nodes that run behind
// their peers to the back of every order the inner router returns.
//
// The rule is relative, as the paper's is: a sample is late past
// shardio.LateAfter of the other observed nodes' averages, so a fleet
// that is uniformly slow — a busy box, a cold cache — sidelines nobody,
// and no absolute number has to be right for the hardware. What lateness
// does to a node is shardio.Breaker's rule, the one a Group applies to a
// shard within a stream: a run of late samples (or failed opens)
// sidelines the node for a cooldown that doubles per consecutive trip,
// one on-time sample resets the run, and when the cooldown ends the node
// returns to its place in the order and the next sample it produces is
// its probe — on time re-admits it, late sidelines it again for longer.
//
// Sidelined means asked last, never excluded: the node's shards move to
// the back of the order, where a read that cannot get what it needs
// from the nodes in good standing still finds them — first those of
// nodes that are merely slow, last those of nodes whose last open
// failed. So a read tolerates as many bad blocks as it would with nobody
// sidelined. All of this is soft state in the Parallel Persistent
// Memory Model's sense — volatile, rebuilt by observation, safe to lose
// with the process — so none of it is journaled. Safe for concurrent
// use.
type sideliner struct {
	inner Router
	clock vclock.Clock
	reg   *obs.Registry

	mu      sync.Mutex
	nodes   map[NodeID]*nodeReads
	benched int       // nodes whose gate is tripped
	scratch []float64 // median's sort buffer
}

// nodeReads is what the sideliner knows about one node.
type nodeReads struct {
	ewma    shardio.EWMA    // per-block read samples
	gate    shardio.Breaker // tripped: the node is sidelined
	failing bool            // the last sample was a failed open

	ewmaG, sidelinedG  *obs.Gauge
	tripsC             *obs.Counter
	probeOK, probeMiss *obs.Counter
}

func newSideliner(inner Router, reg *obs.Registry) *sideliner {
	return &sideliner{inner: inner, clock: vclock.Real(), reg: reg, nodes: make(map[NodeID]*nodeReads)}
}

// nodeLocked returns id's record, creating it (and its series) on first
// sight.
func (s *sideliner) nodeLocked(id NodeID) *nodeReads {
	n := s.nodes[id]
	if n != nil {
		return n
	}
	lbl := obs.Label{Key: "node", Value: string(id)}
	probes := func(result string) *obs.Counter {
		return s.reg.Counter("cluster_sideline_probes_total",
			"Reads that probed a sidelined node after its cooldown, by node and result.",
			lbl, obs.Label{Key: "result", Value: result})
	}
	n = &nodeReads{
		ewmaG: s.reg.Gauge("cluster_node_read_ewma_us",
			"Per-node moving average of shard read samples (open plus time blocked in Read, per block), microseconds.", lbl),
		sidelinedG: s.reg.Gauge("cluster_node_sidelined",
			"1 while the node is sidelined (asked last by reads), else 0.", lbl),
		tripsC: s.reg.Counter("cluster_sideline_trips_total",
			"Times the node was sidelined for reading behind its peers, including failed probes.", lbl),
		probeOK:   probes("ok"),
		probeMiss: probes("miss"),
	}
	s.nodes[id] = n
	return n
}

// lateAfterLocked is the latency past which a sample of self is late:
// judged against the observed nodes other than self. ok is false when
// there are none.
func (s *sideliner) lateAfterLocked(self *nodeReads) (time.Duration, bool) {
	peers := s.scratch[:0]
	for _, n := range s.nodes {
		if n != self && n.ewma.Samples() > 0 {
			peers = append(peers, n.ewma.Micros())
		}
	}
	s.scratch = peers
	return shardio.LateAfter(peers)
}

// Observe takes one sample of a node: d is the open time plus the time
// blocked in Read, per block, of one shard body, or err is why its
// open failed. A 404 says something about the object and nothing about
// the node, so it is dropped; a transient failure (transport error,
// 429, 5xx) counts as a late sample; any other error reaches only the
// inner router.
func (s *sideliner) Observe(id NodeID, d time.Duration, err error) {
	if errors.Is(err, node.ErrNotFound) {
		return
	}
	s.inner.Observe(id, d, err)
	if err != nil && !node.Transient(err) {
		return
	}
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nodeLocked(id)
	n.failing = err != nil
	late := err != nil
	if err == nil {
		after, ok := s.lateAfterLocked(n)
		late = ok && d > after
		n.ewma.Observe(d)
		n.ewmaG.Set(n.ewma.Micros())
	}
	tripped, probe := n.gate.Observe(now, late)
	switch {
	case tripped && probe:
		n.probeMiss.Inc()
		n.tripsC.Inc()
	case tripped:
		s.benched++
		n.sidelinedG.Set(1)
		n.tripsC.Inc()
	case probe:
		s.benched--
		n.sidelinedG.Set(0)
		n.probeOK.Inc()
	}
}

// split returns the inner router's order with the shards of sidelined
// nodes moved to the back: first those of nodes that still answer, then
// those of nodes whose last open failed, each group in the inner order.
// A read opens from the front, so it reaches a failing node only for a
// shard it cannot do without.
func (s *sideliner) split(object string, p Placement) []int {
	order := s.inner.Order(object, p)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.benched == 0 {
		return order
	}
	now := s.clock.Now()
	var slow, failing []int
	front := 0
	for _, idx := range order {
		n := s.nodes[p[idx].ID]
		switch {
		case n == nil || !n.gate.Cooling(now):
			order[front] = idx
			front++
		case n.failing:
			failing = append(failing, idx)
		default:
			slow = append(slow, idx)
		}
	}
	front += copy(order[front:], slow)
	copy(order[front:], failing)
	return order
}

// sidelinedNode is one entry of the sidelined set GET /v1/cluster/map
// serves beside the map.
type sidelinedNode struct {
	ID NodeID `json:"id"`
	// CooldownMS is how much of the cooldown is left; at 0 the node's
	// next read is its probe.
	CooldownMS int64 `json:"cooldown_ms"`
	Trips      int   `json:"trips"`
}

// sidelinedNodes lists the sidelined set, sorted by node ID.
func (s *sideliner) sidelinedNodes() []sidelinedNode {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := []sidelinedNode{}
	for id, n := range s.nodes {
		if n.gate.Trips > 0 {
			left := max(0, n.gate.Until.Sub(now))
			out = append(out, sidelinedNode{ID: id, CooldownMS: left.Milliseconds(), Trips: n.gate.Trips})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// timedBody is an open shard body that times itself: the open that
// produced it plus every moment a caller spent blocked in Read. Close
// turns that into the node's one sample for this body — the total
// divided by the blocks read — so every reader of shards (a GET, a
// range GET, a rebuild source) feeds the sideliner the same quantity
// without a call of its own. A body that was closed before a byte of it
// arrived has no per-block time to report and reports nothing, unless
// it is being waited on at that moment. Read and Close may run
// concurrently, as the decoder's hedged reads need.
type timedBody struct {
	rc    io.ReadCloser
	s     *sideliner
	id    NodeID
	block int64 // bytes per block on the wire

	spent   atomic.Int64 // ns: the open and every finished Read
	n       atomic.Int64 // bytes read
	reading atomic.Int64 // start of the Read in flight, unix ns; 0 when none
	closed  atomic.Bool
}

// timed wraps a body just opened from node id; opened is how long the
// open took, header included.
func (s *sideliner) timed(id NodeID, rc io.ReadCloser, blockSize int64, opened time.Duration) *timedBody {
	b := &timedBody{rc: rc, s: s, id: id, block: max(1, blockSize)}
	b.spent.Store(int64(opened))
	return b
}

func (b *timedBody) Read(p []byte) (int, error) {
	start := b.s.clock.Now()
	b.reading.Store(start.UnixNano())
	n, err := b.rc.Read(p)
	b.reading.Store(0)
	b.spent.Add(int64(b.s.clock.Now().Sub(start)))
	b.n.Add(int64(n))
	return n, err
}

func (b *timedBody) Close() error {
	if b.closed.Swap(true) {
		return nil
	}
	spent, n, start := b.spent.Load(), b.n.Load(), b.reading.Load()
	if start != 0 {
		// A Read abandoned mid-flight (a hedged-around straggler) is time
		// blocked too; without it a stalled node would look idle, not slow.
		spent += b.s.clock.Now().UnixNano() - start
	}
	err := b.rc.Close()
	if n == 0 && start == 0 {
		// Closed unread — outvoted, a window cut for the wrong size, an
		// empty object: the whole open as one block's time would be several
		// times what a body that amortizes it reports.
		return err
	}
	blocks := max(1, (n+b.block-1)/b.block)
	b.s.Observe(b.id, time.Duration(spent/blocks), nil)
	return err
}
