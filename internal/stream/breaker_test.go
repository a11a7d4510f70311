package stream

import (
	"bytes"
	"context"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"dialga/internal/obs"
)

// TestBreaker scripts the gate sample by sample on explicit times: each
// step is one Observe at start+at and what it must report and leave
// behind.
func TestBreaker(t *testing.T) {
	const (
		n  = breakerThreshold
		cd = breakerCooldown
	)
	type step struct {
		at         time.Duration
		late       bool
		tripped    bool
		probe      bool
		trips      int           // Breaker.Trips afterwards
		coolingFor time.Duration // cooldown left afterwards; 0: not cooling
		repeat     int           // run the step this many times (default once)
	}
	lates := func(count int) step { return step{late: true, repeat: count} }
	trip := []step{lates(n - 1), {late: true, tripped: true, trips: 1, coolingFor: cd}}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"a run one short of the threshold, then on time, trips nothing", []step{
			lates(n - 1), {late: false}, lates(n - 1),
		}},
		{"the threshold-th late sample in a row trips the base cooldown", trip},
		{"samples inside the cooldown change nothing", append(trip[:2:2],
			step{at: cd / 2, late: true, trips: 1, coolingFor: cd / 2, repeat: 3 * n},
			step{at: cd - 1, late: false, trips: 1, coolingFor: 1},
		)},
		{"an on-time probe re-admits and forgets the trips", append(trip[:2:2],
			step{at: cd, late: false, probe: true},
			// Forgotten: it takes a whole run to trip again, for the base
			// cooldown again.
			step{at: cd, late: true, repeat: n - 1},
			step{at: cd, late: true, tripped: true, trips: 1, coolingFor: cd},
		)},
		{"a late probe trips again for twice as long, at once", append(trip[:2:2],
			step{at: cd, late: true, tripped: true, probe: true, trips: 2, coolingFor: 2 * cd},
			step{at: 3 * cd, late: true, tripped: true, probe: true, trips: 3, coolingFor: 4 * cd},
			step{at: 7 * cd, late: false, probe: true},
		)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Unix(1_700_000_000, 0)
			var b Breaker
			for i, s := range tc.steps {
				for r := 0; r < max(1, s.repeat); r++ {
					now := start.Add(s.at)
					tripped, probe := b.Observe(now, s.late)
					if tripped != s.tripped || probe != s.probe {
						t.Fatalf("step %d.%d: Observe = tripped %v probe %v, want %v %v", i, r, tripped, probe, s.tripped, s.probe)
					}
					if b.Trips != s.trips {
						t.Fatalf("step %d.%d: Trips = %d, want %d", i, r, b.Trips, s.trips)
					}
					if got := b.Cooling(now); got != (s.coolingFor > 0) {
						t.Fatalf("step %d.%d: Cooling = %v, want %v", i, r, got, s.coolingFor > 0)
					}
					if s.coolingFor > 0 && b.Until.Sub(now) != s.coolingFor {
						t.Fatalf("step %d.%d: cooldown left %v, want %v", i, r, b.Until.Sub(now), s.coolingFor)
					}
				}
			}
		})
	}
}

// TestBreakerCooldownClamped pins the cooldown schedule: doubling per
// trip, monotone, always positive, and clamped to the ceiling — in
// particular for trip counts far past where an unclamped base<<trips
// would overflow time.Duration into a negative, instantly expired
// cooldown (the base overflows at 36 trips).
func TestBreakerCooldownClamped(t *testing.T) {
	prev := time.Duration(0)
	for trips := 0; trips < 100; trips++ {
		d := cooldown(trips)
		if d <= 0 || d > maxDeadline || d < prev {
			t.Fatalf("trip %d: cooldown %v after %v, want positive, monotone, at most %v", trips, d, prev, maxDeadline)
		}
		prev = d
	}
	for trips, want := range map[int]time.Duration{0: breakerCooldown, 1: 2 * breakerCooldown, 5: 32 * breakerCooldown, 6: maxDeadline, 99: maxDeadline} {
		if got := cooldown(trips); got != want {
			t.Fatalf("cooldown after %d trips = %v, want %v", trips, got, want)
		}
	}
}

// TestBreakerManyTripsStayOpen drives a breaker through far more
// consecutive trips than shift arithmetic would tolerate — every probe
// late, each taken the instant its cooldown ends — and checks every trip
// still lands in the future with a bounded cooldown: a source that keeps
// missing must stay benched, not be silently re-admitted by an
// overflowed Until.
func TestBreakerManyTripsStayOpen(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	var b Breaker
	trips := 0
	for i := 0; i < 300; i++ {
		tripped, _ := b.Observe(now, true)
		if !tripped {
			continue // still accumulating the first run
		}
		trips++
		if cool := b.Until.Sub(now); cool <= 0 || cool > maxDeadline || !b.Cooling(now) {
			t.Fatalf("trip %d: cooldown %v, want in (0, %v]", b.Trips, cool, maxDeadline)
		}
		now = b.Until
	}
	if want := 300 - (breakerThreshold - 1); trips != want || b.Trips != want {
		t.Fatalf("tripped %d times (Trips %d), want %d", trips, b.Trips, want)
	}
}

// TestLateAfter: the threshold is lateMult times the median reference,
// and with no reference nothing is late.
func TestLateAfter(t *testing.T) {
	if _, ok := LateAfter(nil); ok {
		t.Fatal("LateAfter of no references reported a threshold")
	}
	for _, tc := range []struct {
		refs []float64 // microseconds
		want time.Duration
	}{
		{[]float64{1000}, 3 * time.Millisecond},
		{[]float64{9000, 100, 200}, 600 * time.Microsecond},        // median, not mean
		{[]float64{400, 100, 200, 300}, 900 * time.Microsecond},    // upper median of an even count
		{[]float64{0, 0, 0, 8000}, 0},                              // one straggler does not move it
		{[]float64{5000, 5000, 5000, 5000}, 15 * time.Millisecond}, // a uniformly slow fleet raises it
	} {
		if got, ok := LateAfter(tc.refs); !ok || got != tc.want {
			t.Fatalf("LateAfter(%v) = %v %v, want %v", tc.refs, got, ok, tc.want)
		}
	}
}

// TestGroupMetricsRegistered checks the geom.shardio wiring: a read
// pipeline's three group-wide series are in its registry, none of them
// per shard, and a plain gather updates the deadline gauge.
func TestGroupMetricsRegistered(t *testing.T) {
	const n, stripes = 3, 2
	shards := mkShards(n, stripes)
	readers := make([]io.Reader, n)
	for i := range readers {
		readers[i] = bytes.NewReader(shards[i])
	}
	reg := obs.NewRegistry()
	g := newTestGroup(t, readers, geom{hedgeAfter: time.Second, metrics: reg})
	for s := 0; s < stripes; s++ {
		st, err := g.next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		st.release()
	}
	if got := reg.Gauge("shardio_deadline_us", "").Value(); got != float64(time.Second/time.Microsecond) {
		t.Fatalf("shardio_deadline_us = %v, want the 1 s HedgeAfter floor", got)
	}
	var buf bytes.Buffer
	if err := reg.Expose(&buf); err != nil {
		t.Fatal(err)
	}
	var series []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "shardio_") {
			series = append(series, strings.Fields(line)[0])
		}
	}
	want := []string{"shardio_breaker_trips_total", "shardio_deadline_us", "shardio_late_blocks_dropped_total"}
	if !slices.Equal(series, want) {
		t.Fatalf("exposed series %v, want %v:\n%s", series, want, buf.String())
	}
}
