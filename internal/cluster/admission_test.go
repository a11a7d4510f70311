package cluster

import (
	"context"
	"slices"
	"testing"
	"time"

	"dialga/internal/node"
	"dialga/internal/obs"
	"dialga/internal/vclock"
)

// withClock puts a Limiter on a fake clock, so nothing sleeps.
func withClock(l *Limiter, c vclock.Clock) *Limiter { l.clock = c; return l }

// granted reports whether class's bucket holds a token right now,
// taking it if it does: Admit's one step, without the blocking.
func granted(l *Limiter, class string) bool {
	return l.take(class) == 0
}

func TestLimiterBurstAndRefill(t *testing.T) {
	clock := vclock.NewFake()
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
	clock.Advance(250 * time.Millisecond)
	if !granted(lim, node.ClassRepair) {
		t.Fatal("refilled token denied")
	}
	if granted(lim, node.ClassRepair) {
		t.Fatal("second token admitted without refill")
	}
	// Idle refill caps at the burst.
	clock.Advance(time.Hour)
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
	clock := vclock.NewFake()
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
	clock := &armingClock{vclock.NewFake(), make(chan time.Duration, 1)}
	lim := withClock(NewLimiter(map[string]Rate{
		node.ClassRepair: {PerSecond: 0.001},
	}, nil), clock)
	if err := lim.Admit(context.Background(), node.ClassRepair); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- lim.Admit(ctx, node.ClassRepair) }()
	clock.waited(t, done) // Admit waits for the bucket to refill
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("Admit on drained bucket = %v, want Canceled", err)
	}
}

// armingClock is a fake clock that says how long each timer it arms is
// for, so a test knows when Admit has begun to wait.
type armingClock struct {
	*vclock.Fake
	armed chan time.Duration
}

func (c *armingClock) NewTimer(d time.Duration) vclock.Timer {
	t := c.Fake.NewTimer(d)
	c.armed <- d
	return t
}

// waited returns how long the timer an Admit armed is for, failing the
// test if the Admit, whose result done carries, returns instead.
func (c *armingClock) waited(t *testing.T, done <-chan error) time.Duration {
	t.Helper()
	select {
	case d := <-c.armed:
		return d
	case err := <-done:
		t.Fatalf("Admit returned %v without waiting", err)
		return 0
	}
}

// TestFractionalRateAdmitsOne pins the burst floor: a class paced below
// one request a second still admits one request every 1/rate seconds,
// where a burst of the rate itself would refuse every request.
func TestFractionalRateAdmitsOne(t *testing.T) {
	clock := vclock.NewFake()
	lim := withClock(NewLimiter(map[string]Rate{node.ClassRepair: {PerSecond: 0.5}}, nil), clock)
	if err := lim.Admit(context.Background(), node.ClassRepair); err != nil {
		t.Fatal(err)
	}
	if granted(lim, node.ClassRepair) {
		t.Fatal("a second request admitted before the bucket refilled")
	}
	clock.Advance(2 * time.Second)
	if !granted(lim, node.ClassRepair) {
		t.Fatal("request denied after 1/rate seconds")
	}
}

// tripGovernor gives lim a reference of 1 ms per block and then five
// reads at 2 ms served beside repair, which trips its governor.
func tripGovernor(lim *Limiter) {
	for i := 0; i < refWindow; i++ {
		lim.Served(time.Millisecond, false)
	}
	for i := 0; i < 5; i++ {
		lim.Served(2*time.Millisecond, true)
	}
}

// governorModel drives one node's Limiter for a minute of fake time:
// a foreground GET every 10 ms whose time per block is 1 ms × (1 +
// repair requests in flight), and from the first second on (a repair
// loop scans one interval after the node starts) a repair worker that
// keeps one admission outstanding, each request taking 5 ms. report
// hands each GET to the governor; without it the node serves as it did
// before there was one. It returns the GETs' median time per block and
// the longest stretch in which repair was admitted nothing.
func governorModel(report bool) (p50, maxGap time.Duration) {
	const (
		tick       = time.Millisecond
		getEvery   = 10 * time.Millisecond
		repairFor  = 5 * time.Millisecond
		repairFrom = time.Second
		span       = time.Minute
	)
	clock := vclock.NewFake()
	lim := withClock(NewLimiter(nil, nil), clock)
	var reads []time.Duration
	busyUntil, lastAdmit := time.Duration(0), repairFrom
	for at := time.Duration(0); at < span; at += tick {
		// The worker asks again once its request is done, and goes the
		// moment it is let (Admit's wait ends at the cooldown's end, the
		// tick the model asks at).
		busy := at < busyUntil
		if at >= repairFrom && !busy && granted(lim, node.ClassRepair) {
			maxGap = max(maxGap, at-lastAdmit)
			lastAdmit, busyUntil, busy = at, at+repairFor, true
		}
		if at%getEvery == 0 {
			perBlock := time.Millisecond
			if busy {
				perBlock *= 2
			}
			reads = append(reads, perBlock)
			if report {
				lim.Served(perBlock, busy)
			}
		}
		clock.Advance(tick)
	}
	maxGap = max(maxGap, span-lastAdmit)
	slices.Sort(reads)
	return reads[len(reads)/2], maxGap
}

// TestGovernorProtectsForeground is the governor's model test: with
// every foreground GET reported, the GETs' median stays within 1.1× of
// their unloaded 1 ms, and repair is delayed, never stopped — it is
// admitted at least once in every 15 s, the longest hold. Without the
// reports repair runs beside every GET and doubles their median.
func TestGovernorProtectsForeground(t *testing.T) {
	p50, maxGap := governorModel(true)
	if p50 > 1100*time.Microsecond {
		t.Errorf("governed foreground p50 = %v, want ≤ 1.1ms", p50)
	}
	if maxGap > 15*time.Second {
		t.Errorf("repair went %v without an admission, want ≤ 15s", maxGap)
	}
	if p50, _ := governorModel(false); p50 != 2*time.Millisecond {
		t.Errorf("ungoverned foreground p50 = %v, want 2ms: the model no longer shows repair's cost", p50)
	}
}

// TestGovernorIdleRepairRunsUnpaced: with no foreground read judged —
// none at all, none served beside repair, or none unloaded to make a
// reference — repair admissions never wait. The last case, a reference
// and then slow reads beside repair, is the control: it holds repair.
func TestGovernorIdleRepairRunsUnpaced(t *testing.T) {
	for _, tc := range []struct {
		name  string
		feed  func(*Limiter)
		holds bool
	}{
		{"no reads", func(*Limiter) {}, false},
		{"none loaded", func(l *Limiter) { l.Served(time.Millisecond, false) }, false},
		{"no reference", func(l *Limiter) { l.Served(time.Second, true) }, false},
		{"late beside repair", tripGovernor, true},
	} {
		clock := vclock.NewFake()
		reg := obs.NewRegistry()
		lim := withClock(NewLimiter(nil, reg), clock)
		held := 0
		for i := 0; i < 1000; i++ {
			tc.feed(lim)
			if !granted(lim, node.ClassRepair) {
				held++
			}
			clock.Advance(time.Millisecond)
		}
		trips := reg.Counter("cluster_repair_hold_trips_total", "").Value()
		if (held > 0) != tc.holds || (trips > 0) != tc.holds {
			t.Errorf("%s: %d of 1000 repair admissions held, %d trips; want holds %v", tc.name, held, trips, tc.holds)
		}
	}
}

// TestGovernorNeverHoldsForeground: while the governor holds repair,
// foreground admissions go at once.
func TestGovernorNeverHoldsForeground(t *testing.T) {
	clock := &armingClock{vclock.NewFake(), make(chan time.Duration, 1)}
	lim := withClock(NewLimiter(nil, nil), clock)
	tripGovernor(lim)
	if granted(lim, node.ClassRepair) {
		t.Fatal("repair admitted right after the governor tripped")
	}
	for i := 0; i < 100; i++ {
		if err := lim.Admit(context.Background(), node.ClassForeground); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case d := <-clock.armed:
		t.Fatalf("a foreground admission waited %v", d)
	default:
	}
}

// TestGovernorHoldsRepairThenProbes walks one hold: a trip holds repair
// for 250 ms and shows on the gauge and counter, Admit waits out the
// cooldown, a late probe holds repair for twice as long, and an on-time
// probe lets it go.
func TestGovernorHoldsRepairThenProbes(t *testing.T) {
	clock := &armingClock{vclock.NewFake(), make(chan time.Duration, 1)}
	reg := obs.NewRegistry()
	lim := withClock(NewLimiter(nil, reg), clock)
	gauge := func() float64 { return reg.Gauge("cluster_repair_held", "").Value() }
	trips := func() uint64 { return reg.Counter("cluster_repair_hold_trips_total", "").Value() }

	tripGovernor(lim)
	if gauge() != 1 || trips() != 1 {
		t.Fatalf("after the trip: held %v, trips %d; want 1, 1", gauge(), trips())
	}
	admitAfter := func(want time.Duration) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- lim.Admit(context.Background(), node.ClassRepair) }()
		if d := clock.waited(t, done); d != want {
			t.Fatalf("repair admission waits %v, want %v", d, want)
		}
		clock.Advance(want - time.Nanosecond)
		select {
		case err := <-done:
			t.Fatalf("repair admitted (%v) before the cooldown ended", err)
		default:
		}
		clock.Advance(time.Nanosecond)
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case d := <-clock.armed:
			t.Fatalf("repair still held once the cooldown ended: waits %v more", d)
		}
	}
	admitAfter(250 * time.Millisecond)
	if gauge() != 0 {
		t.Fatalf("held = %v once the cooldown ended, want 0", gauge())
	}

	lim.Served(2*time.Millisecond, true) // the probe, late
	if gauge() != 1 || trips() != 2 {
		t.Fatalf("after a late probe: held %v, trips %d; want 1, 2", gauge(), trips())
	}
	admitAfter(500 * time.Millisecond)

	lim.Served(time.Millisecond, true) // the probe, on time
	if !granted(lim, node.ClassRepair) || gauge() != 0 || trips() != 2 {
		t.Fatalf("after an on-time probe: held %v, trips %d; want repair admitted, 0, 2", gauge(), trips())
	}
	// Closed: it takes five late reads in a row again to hold repair.
	for i := 0; i < 4; i++ {
		lim.Served(2*time.Millisecond, true)
	}
	if !granted(lim, node.ClassRepair) {
		t.Fatal("repair held after four late reads")
	}

	// A held repair admission ends with its context.
	lim.Served(2*time.Millisecond, true)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- lim.Admit(ctx, node.ClassRepair) }()
	clock.waited(t, done)
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("held repair admission = %v, want Canceled", err)
	}
}

// TestLimiterAdmitLooksUpNoMetrics: a grant is counted in a series the
// limiter resolved when it was built, so Admit with a registry
// allocates nothing, metered or not.
func TestLimiterAdmitLooksUpNoMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	lim := NewLimiter(map[string]Rate{node.ClassRepair: {PerSecond: 1e9}}, reg)
	ctx := context.Background()
	admit := func() {
		if lim.Admit(ctx, node.ClassForeground) != nil || lim.Admit(ctx, node.ClassRepair) != nil {
			t.Fatal("admission refused")
		}
	}
	if a := testing.AllocsPerRun(100, admit); a != 0 {
		t.Fatalf("Admit allocates %v times a pair, want 0", a)
	}
	for _, class := range []string{node.ClassForeground, node.ClassRepair} {
		if got := reg.Counter("cluster_admitted_total", "",
			obs.Label{Key: "class", Value: class}).Value(); got != 101 {
			t.Errorf("cluster_admitted_total{class=%s} = %d, want 101", class, got)
		}
	}
}
