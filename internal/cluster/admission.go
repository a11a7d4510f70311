package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dialga/internal/node"
	"dialga/internal/obs"
)

// Rate configures one traffic class's token bucket: a steady refill
// rate and a burst ceiling. The zero Rate means "unmetered".
type Rate struct {
	// PerSecond is the sustained admission rate in tokens per second.
	PerSecond float64
	// Burst is the bucket capacity: how many tokens can accumulate
	// while the class is idle (and so how far it can exceed PerSecond
	// momentarily). Defaults to PerSecond when zero, but never below one
	// token: a class paced under 1/s still admits one request every
	// 1/PerSecond seconds rather than refusing every request outright.
	Burst float64
}

// bucket is one class's token bucket. Guarded by Limiter.mu.
type bucket struct {
	rate   Rate
	tokens float64
	last   time.Time
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
		if r.Burst <= 0 {
			r.Burst = max(r.PerSecond, 1)
		}
		l.classes[class] = &bucket{rate: r, tokens: r.Burst}
	}
	return l
}

// Admit blocks until the class's bucket covers cost tokens or ctx
// ends. Costs larger than the bucket's burst capacity can never be
// covered and fail immediately.
func (l *Limiter) Admit(ctx context.Context, class string, cost float64) error {
	for {
		wait, err := l.take(class, cost)
		if err != nil || wait <= 0 {
			return err
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

// take refills the class's bucket and either deducts cost and counts
// the grant (returning wait 0) or returns how long until the bucket
// could cover it.
func (l *Limiter) take(class string, cost float64) (time.Duration, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if b := l.classes[class]; b != nil { // nil: an unmetered class
		if cost > b.rate.Burst {
			return 0, fmt.Errorf("cluster: admission cost %.1f exceeds %s burst %.1f", cost, class, b.rate.Burst)
		}
		now := l.now()
		if !b.last.IsZero() {
			b.tokens += now.Sub(b.last).Seconds() * b.rate.PerSecond
			if b.tokens > b.rate.Burst {
				b.tokens = b.rate.Burst
			}
		}
		b.last = now
		if b.tokens < cost {
			wait := time.Duration((cost - b.tokens) / b.rate.PerSecond * float64(time.Second))
			return max(wait, time.Millisecond), nil
		}
		b.tokens -= cost
	}
	l.reg.Counter("cluster_admitted_total",
		"Admission-control grants, by traffic class.",
		obs.Label{Key: "class", Value: class}).Inc()
	return 0, nil
}
