package cluster

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dialga/internal/shardio"
)

// Router orders the shards of a placement by read preference: the
// gateway opens shards in the returned order and stops once it has
// quorum plus hedging headroom, so the policy decides which nodes
// absorb read load. Observe feeds per-node outcomes back so adaptive
// policies can learn. Implementations must be safe for concurrent use.
//
// The gateway never calls the configured Router directly: it wraps it
// in a sideliner, which passes Order through with the shards of nodes
// that read behind their peers moved to the back, and passes Observe
// through minus 404s.
type Router interface {
	// Order returns a permutation of [0, len(p)): shard indices in
	// descending read preference.
	Order(object string, p Placement) []int
	// Observe reports one shard body read from a node, when it is
	// closed: d is the time its open took plus the time its reader spent
	// blocked in Read, divided by the blocks read — the same quantity
	// whether the caller was a GET, a range GET or a rebuild (a body
	// closed before any of it arrived reports nothing). A shard open or
	// stat that failed is reported at once, with err set and d the time
	// the attempt took.
	Observe(id NodeID, d time.Duration, err error)
}

// FirstK reads shards in placement order (0, 1, 2, …): the k data
// shards first, so healthy-path reads never touch parity and decode is
// pure pass-through. The natural default.
type FirstK struct{}

// Order returns the identity permutation.
func (FirstK) Order(_ string, p Placement) []int { return identity(len(p)) }

// Observe is a no-op: FirstK does not adapt.
func (FirstK) Observe(NodeID, time.Duration, error) {}

// RoundRobin rotates the starting shard on every read, spreading load
// evenly across all k+m nodes of a placement regardless of latency.
type RoundRobin struct {
	n atomic.Uint64
}

// Order returns placement order rotated by the read sequence number.
func (r *RoundRobin) Order(_ string, p Placement) []int {
	n := len(p)
	order := make([]int, n)
	start := int(r.n.Add(1)-1) % n
	for i := range order {
		order[i] = (start + i) % n
	}
	return order
}

// Observe is a no-op: RoundRobin does not adapt.
func (*RoundRobin) Observe(NodeID, time.Duration, error) {}

// errPenaltyFloor is the minimum synthetic latency folded into a
// node's EWMA when a read against it fails: a failed node must rank
// behind any node that is merely slow.
const errPenaltyFloor = 500 * time.Millisecond

// LeastLoaded ranks nodes by a per-node EWMA of Observe's per-block
// read samples — the same estimator shardio's adaptive deadlines use —
// preferring the nodes whose bodies currently read fastest, not merely
// the ones whose headers arrive first. Failures fold in as large synthetic
// latencies, so an unresponsive node sinks to the back of the order
// within an observation or two and climbs back as probes succeed.
// Unobserved nodes rank first (optimistically fast), which doubles as
// exploration. Construct with NewLeastLoaded.
type LeastLoaded struct {
	mu    sync.Mutex
	ewmas map[NodeID]*shardio.EWMA
}

// NewLeastLoaded returns an empty (all nodes unobserved) router.
func NewLeastLoaded() *LeastLoaded {
	return &LeastLoaded{ewmas: make(map[NodeID]*shardio.EWMA)}
}

// Observe folds one read outcome into the node's moving average. An
// error observes max(4x current average, errPenaltyFloor) instead of
// the measured duration.
func (r *LeastLoaded) Observe(id NodeID, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.ewmas[id]
	if e == nil {
		e = &shardio.EWMA{}
		r.ewmas[id] = e
	}
	if err != nil {
		penalty := 4 * e.Value()
		if penalty < errPenaltyFloor {
			penalty = errPenaltyFloor
		}
		d = penalty
	}
	e.Observe(d)
}

// Order sorts the placement's shards by their node's average latency,
// fastest first; unobserved nodes sort ahead of observed ones, and
// ties break on shard index so the order is deterministic.
func (r *LeastLoaded) Order(_ string, p Placement) []int {
	type ranked struct {
		idx      int
		observed bool
		micros   float64
	}
	rank := make([]ranked, len(p))
	r.mu.Lock()
	for i, n := range p {
		rank[i] = ranked{idx: i}
		if e := r.ewmas[n.ID]; e != nil && e.Samples() > 0 {
			rank[i].observed = true
			rank[i].micros = e.Micros()
		}
	}
	r.mu.Unlock()
	sort.SliceStable(rank, func(a, b int) bool {
		if rank[a].observed != rank[b].observed {
			return !rank[a].observed
		}
		if rank[a].micros != rank[b].micros {
			return rank[a].micros < rank[b].micros
		}
		return rank[a].idx < rank[b].idx
	})
	order := make([]int, len(rank))
	for i, x := range rank {
		order[i] = x.idx
	}
	return order
}

// NewRouter builds a router by policy name — the flag-friendly
// constructor: "first-k", "round-robin", or "least-loaded".
func NewRouter(policy string) (Router, bool) {
	switch policy {
	case "", "first-k":
		return FirstK{}, true
	case "round-robin":
		return &RoundRobin{}, true
	case "least-loaded":
		return NewLeastLoaded(), true
	default:
		return nil, false
	}
}

func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}
