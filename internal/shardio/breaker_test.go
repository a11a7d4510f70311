package shardio

import (
	"bytes"
	"context"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"

	"dialga/internal/obs"
	"dialga/internal/vclock"
)

// TestBreakerCooldownClamped pins the cooldown schedule: doubling per
// trip, monotone, always positive, and clamped to the ceiling — in
// particular for trip counts far past where an unclamped base<<trips
// would overflow time.Duration into a negative, instantly expired
// cooldown (the default base overflows at 36 trips; ~33 for 1s).
func TestBreakerCooldownClamped(t *testing.T) {
	base := DefaultBreakerCooldown
	ceiling := DefaultMaxDeadline
	prev := time.Duration(0)
	for trips := 0; trips < 100; trips++ {
		d := Cooldown(base, trips, ceiling)
		if d <= 0 {
			t.Fatalf("trip %d: cooldown %v not positive", trips, d)
		}
		if d > ceiling {
			t.Fatalf("trip %d: cooldown %v above ceiling %v", trips, d, ceiling)
		}
		if d < prev {
			t.Fatalf("trip %d: cooldown %v shrank from %v", trips, d, prev)
		}
		prev = d
	}
	if got := Cooldown(base, 0, ceiling); got != base {
		t.Fatalf("first trip cooldown = %v, want base %v", got, base)
	}
	if got := Cooldown(base, 1, ceiling); got != 2*base {
		t.Fatalf("second trip cooldown = %v, want %v", got, 2*base)
	}
	if got := Cooldown(base, 99, ceiling); got != ceiling {
		t.Fatalf("deep-trip cooldown = %v, want ceiling %v", got, ceiling)
	}
	// A ceiling below the base never lowers the cooldown under one base
	// period, and a disabled base stays disabled.
	if got := Cooldown(base, 0, base/2); got != base {
		t.Fatalf("sub-base ceiling gave %v, want %v", got, base)
	}
	if got := Cooldown(0, 10, ceiling); got != 0 {
		t.Fatalf("zero base gave %v, want 0", got)
	}
}

// TestBreakerManyTripsStayOpen drives a shard's breaker through far
// more consecutive trips than the old shift arithmetic tolerated and
// checks every open period still lands in the future with a bounded
// cooldown — a shard that keeps missing must stay benched, not be
// silently re-admitted by an overflowed openUntil.
func TestBreakerManyTripsStayOpen(t *testing.T) {
	opts, err := Options{BlockSize: 8, Quorum: 1, HedgeAfter: time.Millisecond}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	// A fake clock makes the cooldown arithmetic fully deterministic:
	// no wall-clock jitter between miss() stamping openUntil and the
	// assertions below reading "now".
	fc := vclock.NewFake()
	g := &Group{opts: opts, sh: make([]shardMeta, 1), clock: fc}
	st := &Stripe{}
	m := &g.sh[0]
	for i := 0; i < 300; i++ {
		g.miss(0, st)
		if !m.open {
			continue // still accumulating misses toward the threshold
		}
		after := fc.Now()
		if !m.openUntil.After(after) {
			t.Fatalf("trip %d: openUntil %v not in the future", m.trips, m.openUntil)
		}
		if cool := m.openUntil.Sub(after); cool > g.breakerCeiling() {
			t.Fatalf("trip %d: cooldown %v above ceiling %v", m.trips, cool, g.breakerCeiling())
		}
	}
	if st.Trips < 40 {
		t.Fatalf("breaker tripped %d times, want >= 40", st.Trips)
	}
}

// TestGroupMetricsRegistered checks the Options.Metrics wiring: a
// group publishes per-shard EWMA gauges and the group-wide series into
// the registry, and a plain gather updates them.
func TestGroupMetricsRegistered(t *testing.T) {
	const n, stripes = 3, 2
	shards := mkShards(n, stripes)
	readers := make([]io.Reader, n)
	for i := range readers {
		readers[i] = bytes.NewReader(shards[i])
	}
	reg := obs.NewRegistry()
	g := newTestGroup(t, readers, Options{Metrics: reg})
	for s := 0; s < stripes; s++ {
		st, err := g.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		st.Release()
	}
	for i := 0; i < n; i++ {
		ewma := reg.Gauge("shardio_shard_ewma_us", "", obs.Label{Key: "shard", Value: strconv.Itoa(i)})
		if ewma.Value() <= 0 {
			t.Fatalf("shard %d EWMA gauge = %v, want > 0 after reads", i, ewma.Value())
		}
		open := reg.Gauge("shardio_breaker_open", "", obs.Label{Key: "shard", Value: strconv.Itoa(i)})
		if open.Value() != 0 {
			t.Fatalf("shard %d breaker-open gauge = %v, want 0", i, open.Value())
		}
	}
	var buf bytes.Buffer
	if err := reg.Expose(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"shardio_shard_ewma_us", "shardio_breaker_open", "shardio_breaker_trips_total", "shardio_hedged_stripes_total", "shardio_deadline_us"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition missing %s:\n%s", want, buf.String())
		}
	}
}
