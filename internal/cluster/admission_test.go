package cluster

import (
	"context"
	"testing"
	"time"

	"dialga/internal/node"
	"dialga/internal/obs"
)

// fakeClock drives a Limiter without real sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time               { return c.t }
func (c *fakeClock) advance(d time.Duration)      { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock                    { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func withClock(l *Limiter, c *fakeClock) *Limiter { l.now = c.now; return l }

// granted reports whether class's bucket holds a token right now,
// taking it if it does: Admit's one step, without the blocking.
func granted(l *Limiter, class string) bool {
	return l.take(class) == 0
}

func TestLimiterBurstAndRefill(t *testing.T) {
	clock := newFakeClock()
	reg := obs.NewRegistry()
	lim := withClock(NewLimiter(map[string]Rate{
		node.ClassRepair: {PerSecond: 4},
	}, reg), clock)

	// The burst, one second's worth, drains; then the class is paced.
	for i := 0; i < 4; i++ {
		if !granted(lim, node.ClassRepair) {
			t.Fatalf("burst token %d denied", i)
		}
	}
	if granted(lim, node.ClassRepair) {
		t.Fatal("admitted past burst")
	}
	// 250ms at 4/s refills exactly one token.
	clock.advance(250 * time.Millisecond)
	if !granted(lim, node.ClassRepair) {
		t.Fatal("refilled token denied")
	}
	if granted(lim, node.ClassRepair) {
		t.Fatal("second token admitted without refill")
	}
	// Idle refill caps at the burst.
	clock.advance(time.Hour)
	for i := 0; i < 4; i++ {
		if !granted(lim, node.ClassRepair) {
			t.Fatalf("post-idle token %d denied", i)
		}
	}
	if granted(lim, node.ClassRepair) {
		t.Fatal("idle refill exceeded burst")
	}
	if got := reg.Counter("cluster_admitted_total", "",
		obs.Label{Key: "class", Value: node.ClassRepair}).Value(); got != 9 {
		t.Fatalf("cluster_admitted_total = %d, want 9", got)
	}
}

func TestLimiterClassesAreIndependent(t *testing.T) {
	clock := newFakeClock()
	lim := withClock(NewLimiter(map[string]Rate{
		node.ClassForeground: {PerSecond: 5},
		node.ClassRepair:     {PerSecond: 1},
	}, obs.NewRegistry()), clock)

	// Exhaust repair entirely; foreground must be untouched.
	if !granted(lim, node.ClassRepair) {
		t.Fatal("repair burst denied")
	}
	if granted(lim, node.ClassRepair) {
		t.Fatal("repair over-admitted")
	}
	for i := 0; i < 5; i++ {
		if !granted(lim, node.ClassForeground) {
			t.Fatalf("foreground token %d denied while repair starved", i)
		}
	}
}

func TestLimiterUnmeteredClass(t *testing.T) {
	lim := NewLimiter(map[string]Rate{node.ClassRepair: {PerSecond: 1}}, nil)
	for i := 0; i < 100; i++ {
		if err := lim.Admit(context.Background(), "unmetered"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAdmitBlocksUntilContextEnds(t *testing.T) {
	lim := NewLimiter(map[string]Rate{
		node.ClassRepair: {PerSecond: 0.001},
	}, nil)
	if err := lim.Admit(context.Background(), node.ClassRepair); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := lim.Admit(ctx, node.ClassRepair)
	if err != context.DeadlineExceeded {
		t.Fatalf("Admit on drained bucket = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("Admit returned before the context deadline")
	}
}

// TestFractionalRateAdmitsOne pins the burst floor: a class paced below
// one request a second still admits one request every 1/rate seconds,
// where a burst of the rate itself would refuse every request.
func TestFractionalRateAdmitsOne(t *testing.T) {
	clock := newFakeClock()
	lim := withClock(NewLimiter(map[string]Rate{node.ClassRepair: {PerSecond: 0.5}}, nil), clock)
	if err := lim.Admit(context.Background(), node.ClassRepair); err != nil {
		t.Fatal(err)
	}
	if granted(lim, node.ClassRepair) {
		t.Fatal("a second request admitted before the bucket refilled")
	}
	clock.advance(2 * time.Second)
	if !granted(lim, node.ClassRepair) {
		t.Fatal("request denied after 1/rate seconds")
	}
}
