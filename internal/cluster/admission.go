package cluster

import (
	"context"
	"slices"
	"sync"
	"time"

	"dialga/internal/node"
	"dialga/internal/obs"
	"dialga/internal/stream"
	"dialga/internal/vclock"
)

// The repair governor's rule is the paper's coordinator's (internal/dialga's
// latencyThreshold), and like it a constant: a foreground read served
// beside repair is late past slowdown times the median time per block
// of the latest refWindow reads served without repair.
const (
	slowdown  = 1.10
	refWindow = 32
)

// Rate configures one traffic class's token bucket. The zero Rate
// means "unmetered".
type Rate struct {
	// PerSecond is the sustained admission rate in requests per second.
	// Every request costs one token, and the bucket holds
	// max(PerSecond, 1): an idle class may momentarily exceed the rate by
	// one second's worth, and a class paced under 1/s still admits one
	// request every 1/PerSecond seconds rather than refusing every
	// request outright.
	PerSecond float64
}

// bucket is one class's token bucket. Guarded by Limiter.mu.
type bucket struct {
	perSecond, burst float64
	tokens           float64
	last             time.Time
}

// Limiter is a node's admission control: its node.Admitter, and its
// Repairer's. Foreground and repair drain separate token buckets, so a
// deep repair backlog can never consume foreground's tokens; a class
// without a Rate is unmetered. And repair yields to foreground: the
// verdicts on the foreground reads node.Server reports (Served) go to a
// stream.Breaker, and while it is tripped repair admissions wait out its
// cooldown, so five late reads in a row hold repair for 250 ms, doubling
// per failed probe up to 15 s. Foreground never waits on it, and with no
// reference or no foreground load nothing is judged. Admit blocks (it is
// pacing, not rejection); node.Server turns a context-expired Admit into
// 429.
type Limiter struct {
	clock vclock.Clock

	mu      sync.Mutex
	classes map[string]*bucket
	gate    stream.Breaker           // tripped: repair admissions wait out its cooldown
	refs    [refWindow]time.Duration // the latest unloaded reads' time per block, a ring
	nrefs   int                      // unloaded reads taken, ever

	admitted [2]*obs.Counter // cluster_admitted_total{class}: foreground, repair
	held     *obs.Gauge      // cluster_repair_held
	trips    *obs.Counter    // cluster_repair_hold_trips_total
}

var _ node.Admitter = (*Limiter)(nil)

// NewLimiter builds a limiter from per-class rates. Classes absent
// from rates (and classes with a zero Rate) are unmetered.
func NewLimiter(rates map[string]Rate, reg *obs.Registry) *Limiter {
	l := &Limiter{
		clock:   vclock.Real(),
		classes: make(map[string]*bucket, len(rates)),
		held: reg.Gauge("cluster_repair_held",
			"1 while repair admissions wait because foreground reads run late beside repair, else 0."),
		trips: reg.Counter("cluster_repair_hold_trips_total",
			"Times repair was held back for foreground reads running late beside it, including failed probes."),
	}
	for i, class := range []string{node.ClassForeground, node.ClassRepair} {
		l.admitted[i] = reg.Counter("cluster_admitted_total",
			"Admission-control grants, by traffic class.",
			obs.Label{Key: "class", Value: class})
	}
	for class, r := range rates {
		if r.PerSecond <= 0 {
			continue
		}
		burst := max(r.PerSecond, 1)
		l.classes[class] = &bucket{perSecond: r.PerSecond, burst: burst, tokens: burst}
	}
	return l
}

// Admit blocks until the request may go, or until ctx ends: a repair
// request while the governor holds repair, and any request until its
// class's bucket holds a token, which it takes. A nil Limiter admits
// everything.
func (l *Limiter) Admit(ctx context.Context, class string) error {
	for l != nil {
		wait := l.take(class)
		if wait <= 0 {
			return nil
		}
		t := l.clock.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C():
		}
	}
	return nil
}

// Served takes one foreground read: an unloaded one joins the
// reference, a loaded one is judged against it.
func (l *Limiter) Served(perBlock time.Duration, loaded bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.clock.Now()
	switch {
	case !loaded:
		l.refs[l.nrefs%refWindow] = perBlock
		l.nrefs++
	case l.nrefs > 0: // no reference yet: nothing is judged
		var buf [refWindow]time.Duration
		refs := buf[:copy(buf[:min(l.nrefs, refWindow)], l.refs[:])]
		slices.Sort(refs)
		late := float64(perBlock) > slowdown*float64(refs[len(refs)/2])
		if tripped, _ := l.gate.Observe(now, late); tripped {
			l.trips.Inc()
		}
	}
	l.holding(now)
}

// holding reports whether the governor holds repair at now, and shows
// it on the gauge. Caller holds l.mu.
func (l *Limiter) holding(now time.Time) bool {
	if l.gate.Cooling(now) {
		l.held.Set(1)
		return true
	}
	l.held.Set(0)
	return false
}

// take returns how long a request of class must wait: until the
// governor's cooldown ends for a held repair request, else until the
// class's bucket refills to one token. At zero it has deducted the
// token and counted the grant.
func (l *Limiter) take(class string) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.clock.Now()
	if class == node.ClassRepair && l.holding(now) {
		return l.gate.Until.Sub(now)
	}
	if b := l.classes[class]; b != nil { // nil: an unmetered class
		if !b.last.IsZero() {
			b.tokens = min(b.burst, b.tokens+now.Sub(b.last).Seconds()*b.perSecond)
		}
		b.last = now
		if b.tokens < 1 {
			wait := time.Duration((1 - b.tokens) / b.perSecond * float64(time.Second))
			return max(wait, time.Millisecond)
		}
		b.tokens--
	}
	if class == node.ClassRepair {
		l.admitted[1].Inc()
	} else {
		l.admitted[0].Inc() // any other class is served as foreground (node.Class)
	}
	return 0
}
