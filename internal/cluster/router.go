package cluster

// Router orders the shards of a placement by read preference: a read
// opens its k shards from the front of the order, so the policy decides
// which nodes absorb read load. The gateway wraps it in a sideliner,
// which moves the shards of nodes that read behind their peers to the
// back. Implementations must be safe for concurrent use.
type Router interface {
	// Order returns a permutation of [0, len(p)): shard indices in
	// descending read preference.
	Order(object string, p Placement) []int
}

// FirstK reads shards in placement order (0, 1, 2, …): the k data
// shards first, so healthy-path reads never touch parity and decode is
// pure pass-through. The natural default.
type FirstK struct{}

// Order returns the identity permutation.
func (FirstK) Order(_ string, p Placement) []int { return identity(len(p)) }

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
