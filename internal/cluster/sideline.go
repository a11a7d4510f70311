package cluster

import (
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dialga/internal/node"
	"dialga/internal/obs"
	"dialga/internal/stream"
	"dialga/internal/vclock"
)

// sideliner is the gateway's memory of how its nodes read, kept across
// requests: it wraps the configured Router and moves the nodes that read
// behind their peers to the back of every order it returns. The rule is
// relative, as the paper's is, against a reference taken under the
// sample's own conditions: the bodies one read opens at its window are
// judged together when the last closes, each late past
// stream.LateAfter of the others — so a fleet slow together sidelines
// nobody, and a one-block range read meets only one-block peers. What
// lateness does is stream.Breaker's rule: a run of late samples (or
// failed opens) sidelines the node for a cooldown that doubles per
// consecutive trip, one on-time sample resets the run, and after the
// cooldown its next verdict is its probe. Sidelined means asked last,
// never excluded: the nodes in good standing first, then the slow, last
// those whose last open failed. It is soft state, rebuilt by
// observation, so none of it is journaled. Safe for concurrent use.
type sideliner struct {
	inner Router
	clock vclock.Clock
	reg   *obs.Registry

	mu      sync.Mutex
	nodes   map[NodeID]*nodeReads
	benched int // nodes whose gate is tripped
}

// nodeReads is what the sideliner knows about one node.
type nodeReads struct {
	gate    stream.Breaker // tripped: the node is sidelined
	failing bool           // the last verdict was a failed open

	sidelinedG         *obs.Gauge
	lateC, tripsC      *obs.Counter
	probeOK, probeMiss *obs.Counter
}

func newSideliner(inner Router, reg *obs.Registry) *sideliner {
	return &sideliner{inner: inner, clock: vclock.Real(), reg: reg, nodes: make(map[NodeID]*nodeReads)}
}

// meet creates id's record and series, if new: the gateway meets each
// node of a map as it adopts it, so no read resolves a series.
func (s *sideliner) meet(id NodeID) {
	s.mu.Lock()
	s.nodeLocked(id)
	s.mu.Unlock()
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
		sidelinedG: s.reg.Gauge("cluster_node_sidelined",
			"1 while the node is sidelined (asked last by reads), else 0.", lbl),
		lateC: s.reg.Counter("cluster_node_late_reads_total",
			"Shard reads from the node judged late against the other reads of the same request, failed opens included.", lbl),
		tripsC: s.reg.Counter("cluster_sideline_trips_total",
			"Times the node was sidelined for reading behind its peers, including failed probes.", lbl),
		probeOK:   probes("ok"),
		probeMiss: probes("miss"),
	}
	s.nodes[id] = n
	return n
}

// sample is one shard body's read of a node: its open time plus its
// time blocked in Read, per block.
type sample struct {
	id NodeID
	d  time.Duration
}

// judge gives each sample of one read its verdict: late past
// stream.LateAfter of the read's other samples. A lone sample has no
// reference and gets none.
func (s *sideliner) judge(read []sample) {
	us := make([]float64, len(read))
	for i, smp := range read {
		us[i] = float64(smp.d) / float64(time.Microsecond)
	}
	for i, smp := range read {
		if after, ok := stream.LateAfter(slices.Concat(us[:i], us[i+1:])); ok {
			s.verdict(smp.id, smp.d > after, false)
		}
	}
}

// failed takes a failed shard open of node id. A transient
// failure (transport error, 429, 5xx) is the node's, a late sample at
// once; any other, a 404 included, says nothing of its reads.
func (s *sideliner) failed(id NodeID, err error) {
	if node.Transient(err) {
		s.verdict(id, true, true)
	}
}

// verdict hands one verdict on node id to its breaker and shows what the
// breaker did in the node's series; failing marks a failed open.
func (s *sideliner) verdict(id NodeID, late, failing bool) {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.nodeLocked(id)
	n.failing = failing
	if late {
		n.lateC.Inc()
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

// readPeers is one read's reference for its own samples: the bodies it
// opened at its window. Each joins as it opens and leaves with its
// sample as it closes; the last to leave has the read judged.
type readPeers struct {
	s       *sideliner
	mu      sync.Mutex
	open    int // bodies joined and not yet closed
	samples []sample
}

// leave takes one member's sample, nil if it has none.
func (p *readPeers) leave(smp *sample) {
	p.mu.Lock()
	if smp != nil {
		p.samples = append(p.samples, *smp)
	}
	var read []sample
	if p.open--; p.open == 0 {
		read, p.samples = p.samples, nil
	}
	p.mu.Unlock()
	p.s.judge(read)
}

// timedBody is an open shard body that times itself: the open that
// produced it plus every moment a caller spent blocked in Read. Close
// gives the read's peers that total divided by the blocks read, so a
// GET, a range GET and a rebuild source are judged on one quantity. Read
// and Close may run concurrently, as the decoder's hedged reads need.
type timedBody struct {
	rc    io.ReadCloser
	peers *readPeers
	id    NodeID
	block int64 // bytes per block on the wire

	spent   atomic.Int64 // ns: the open and every finished Read
	n       atomic.Int64 // bytes read
	reading atomic.Int64 // start of the Read in flight, unix ns; 0 when none
	closed  atomic.Bool
}

// timed wraps a body just opened from node id as one of the read's
// peers; opened is how long the open took, header included.
func (p *readPeers) timed(id NodeID, rc io.ReadCloser, blockSize int64, opened time.Duration) *timedBody {
	p.mu.Lock()
	p.open++
	p.mu.Unlock()
	b := &timedBody{rc: rc, peers: p, id: id, block: max(1, blockSize)}
	b.spent.Store(int64(opened))
	return b
}

func (b *timedBody) Read(p []byte) (int, error) {
	clock := b.peers.s.clock
	start := clock.Now()
	b.reading.Store(start.UnixNano())
	n, err := b.rc.Read(p)
	b.reading.Store(0)
	b.spent.Add(int64(clock.Now().Sub(start)))
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
		spent += b.peers.s.clock.Now().UnixNano() - start
	}
	err := b.rc.Close()
	// Closed unread (outvoted, cut for the wrong size, empty) it has no
	// per-block time: its whole open would pass for one block's.
	var smp *sample
	if n > 0 || start != 0 {
		smp = &sample{id: b.id, d: time.Duration(spent / max(1, (n+b.block-1)/b.block))}
	}
	b.peers.leave(smp)
	return err
}
