package cluster

import (
	"context"
	"sync"
	"time"

	"dialga/internal/node"
	"dialga/internal/obs"
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

// Limiter is token-bucket admission control keyed by traffic class. A
// node installs one as its node.Admitter so foreground and repair
// traffic drain separate buckets: however deep the repair backlog, the
// repair class can never consume foreground's tokens, and a starved
// repair bucket merely slows reconstruction. Classes without a
// configured Rate are admitted immediately. Admit blocks (it is
// pacing, not rejection); node.Server turns a context-expired Admit
// into 429, and the repair queue simply proceeds at the paced rate.
type Limiter struct {
	mu      sync.Mutex
	classes map[string]*bucket

	reg *obs.Registry
	now func() time.Time // test hook
}

var _ node.Admitter = (*Limiter)(nil)

// NewLimiter builds a limiter from per-class rates. Classes absent
// from rates (and classes with a zero Rate) are unmetered.
func NewLimiter(rates map[string]Rate, reg *obs.Registry) *Limiter {
	l := &Limiter{classes: make(map[string]*bucket, len(rates)), reg: reg, now: time.Now}
	for class, r := range rates {
		if r.PerSecond <= 0 {
			continue
		}
		burst := max(r.PerSecond, 1)
		l.classes[class] = &bucket{perSecond: r.PerSecond, burst: burst, tokens: burst}
	}
	return l
}

// Admit blocks until the class's bucket holds a token for one request,
// and takes it, or until ctx ends.
func (l *Limiter) Admit(ctx context.Context, class string) error {
	for {
		wait := l.take(class)
		if wait <= 0 {
			return nil
		}
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
}

// take refills the class's bucket and either deducts one token and
// counts the grant (returning 0) or returns how long until the bucket
// holds one.
func (l *Limiter) take(class string) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if b := l.classes[class]; b != nil { // nil: an unmetered class
		now := l.now()
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
	l.reg.Counter("cluster_admitted_total",
		"Admission-control grants, by traffic class.",
		obs.Label{Key: "class", Value: class}).Inc()
	return 0
}
