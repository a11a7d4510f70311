package cluster

import "time"

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

// NewRouter builds a router by policy name — the flag-friendly
// constructor. "first-k" (or "") is the one policy: ranking nodes by
// their read latency is the sideliner's job, behind every Router.
func NewRouter(policy string) (Router, bool) {
	if policy == "" || policy == "first-k" {
		return FirstK{}, true
	}
	return nil, false
}

func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}
