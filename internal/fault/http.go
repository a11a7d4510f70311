package fault

import (
	"fmt"
	"io"
	"net/http"
	"sync"
)

// Transport is an http.RoundTripper that applies a fault Plan to the
// traffic of a wrapped transport, keyed by the request's host. Two
// classes of op apply:
//
// Byte-stream ops (flip, zero, trunc, err, slow) wrap the
// response body, so the plan's offsets are relative to the start of
// each response — a `slow@0+3000` plan makes every read from that
// host a straggler, a `flip@100.3` plan corrupts byte 100 of every
// body.
//
// Connection-level ops (refuse, hole) fire before the request is even
// sent and are addressed by request count rather than byte offset:
// `refuse@0+3` refuses the first three requests after the plan was
// installed, `refuse@0+0` refuses every request until the plan is
// cleared (a network partition), and `hole@0+0` makes every request
// hang until its context ends (a blackholed route). Refused and
// blackholed requests surface as transient *Err faults, so clients
// classify them exactly like a real connection failure.
//
// This is how the cluster chaos tests inject deterministic network
// faults under the shard client without touching the servers: the
// same Plan grammar and seeded Generate the Reader uses, applied at the
// transport seam.
//
// The zero value is unusable; build one with NewTransport. Safe for
// concurrent use.
type Transport struct {
	base http.RoundTripper

	mu    sync.Mutex
	plans map[string]Plan  // request host -> plan applied to its traffic
	reqs  map[string]int64 // request host -> requests since its plan was installed
}

// NewTransport wraps base (http.DefaultTransport when nil) with an
// empty plan table: hosts without a plan pass through untouched.
func NewTransport(base http.RoundTripper) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{base: base, plans: make(map[string]Plan), reqs: make(map[string]int64)}
}

// Set installs (or, with an empty plan, clears) the fault plan for
// every future request to host ("host:port" as it appears in request
// URLs), resetting the host's request counter so the plan's
// connection-level ops address requests from this moment. In-flight
// bodies keep the plan they started with.
func (t *Transport) Set(host string, p Plan) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs[host] = 0
	if len(p.Ops) == 0 {
		delete(t.plans, host)
		return
	}
	t.plans[host] = p
}

// Partition installs an unbounded refuse plan (`refuse@0+0`) for each
// host: every request fails immediately with a transient fault until
// Heal. It composes with Set — a partitioned host's previous plan is
// replaced, matching a node that fell off the network entirely.
func (t *Transport) Partition(hosts ...string) {
	for _, h := range hosts {
		t.Set(h, Plan{Ops: []Op{{Kind: Refuse}}})
	}
}

// Heal clears the fault plan for each host, ending a Partition (or
// any other plan) so traffic flows clean again.
func (t *Transport) Heal(hosts ...string) {
	for _, h := range hosts {
		t.Set(h, Plan{})
	}
}

// covers reports whether a request-count-addressed op covers the n-th
// request: n in [Off, Off+Len), unbounded when Len is zero.
func covers(op Op, n int64) bool {
	return n >= op.Off && (op.Len == 0 || n < op.Off+op.Len)
}

// RoundTrip applies the request host's plan: connection-level ops may
// refuse or blackhole the request outright; otherwise the request
// runs on the wrapped transport and the response body is re-wrapped
// so the plan's read-side faults fire as the caller consumes it.
// Injected sleeps and blackholes honour the request context: a
// cancelled request is never held hostage by its own fault plan.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	plan, ok := t.plans[req.URL.Host]
	var n int64
	if ok {
		n = t.reqs[req.URL.Host]
		t.reqs[req.URL.Host] = n + 1
	}
	t.mu.Unlock()
	if !ok {
		return t.base.RoundTrip(req)
	}
	for _, op := range plan.Ops {
		switch op.Kind {
		case Refuse:
			if covers(op, n) {
				return nil, fmt.Errorf("fault: connection to %s refused (request %d): %w",
					req.URL.Host, n, &Err{Off: n})
			}
		case Blackhole:
			if covers(op, n) {
				<-req.Context().Done()
				return nil, fmt.Errorf("fault: connection to %s blackholed (request %d): %w",
					req.URL.Host, n, &Err{Off: n})
			}
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil || resp == nil || resp.Body == nil {
		return resp, err
	}
	fr := NewReader(resp.Body, plan).WithContext(req.Context())
	resp.Body = &faultBody{Reader: fr, closer: resp.Body}
	return resp, nil
}

// faultBody pairs the fault-injecting reader with the original body's
// Close so connections are still released properly.
type faultBody struct {
	*Reader
	closer io.Closer
}

func (b *faultBody) Close() error { return b.closer.Close() }
