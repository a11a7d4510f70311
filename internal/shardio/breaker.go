package shardio

import (
	"slices"
	"time"
)

// The relative rule, as this tree applies it to a source that reads
// behind its reference — a shard within one stream (Group), a node
// against the other nodes of each read (the cluster gateway's
// sideliner): act on a ratio, on sustained evidence, and back off with
// hysteresis. Like the paper's
// thresholds these are constants, not knobs.
const (
	// lateMult is the ratio: a read is late once it takes longer than
	// lateMult times the median of the reads it is judged against.
	lateMult = 3.0
	// maxDeadline caps a Group's per-stripe deadline, and with it how
	// long a tripped source sits out: never longer than the worst wait
	// the group itself would tolerate.
	maxDeadline = 15 * time.Second
	// breakerThreshold late samples in a row trip a Breaker; one on-time
	// sample in between starts the run over.
	breakerThreshold = 5
	// breakerCooldown is how long the first trip sits out. Each further
	// trip without an on-time probe between doubles it, up to maxDeadline.
	breakerCooldown = 250 * time.Millisecond
)

// LateAfter returns the latency past which a sample is late: lateMult
// times the median of refs, the latencies in microseconds (averages,
// EWMA.Micros, or single samples) of the sources the sample is judged
// against. Which sources those are is the caller's rule. refs is sorted in place; ok is
// false when it is empty, and then nothing is late.
func LateAfter(refs []float64) (d time.Duration, ok bool) {
	if len(refs) == 0 {
		return 0, false
	}
	slices.Sort(refs) // generic sort: no interface boxing on the hot path
	return time.Duration(lateMult * refs[len(refs)/2] * float64(time.Microsecond)), true
}

// Breaker is the gate between a source and its readers: closed while
// the source keeps up, tripped for a cooldown once breakerThreshold
// samples in a row were late, then half-open — the source is asked
// again and its next sample is the probe. An on-time probe closes the
// breaker and forgets the trips; a late one trips it again for twice as
// long. It has no clock of its own (now is an argument) and holds only
// soft state, rebuilt by observation and safe to lose. The zero value is
// closed and ready to use. Not safe for concurrent use.
type Breaker struct {
	// Trips counts the trips since the source last answered a probe on
	// time; zero means closed. Read-only outside Observe.
	Trips int
	// Until is when the latest trip's cooldown ends. Read-only outside
	// Observe.
	Until time.Time

	run int // late samples in a row
}

// Cooling reports whether the breaker is tripped and still inside its
// cooldown at now: the source should not be asked. Tripped and not
// cooling means half-open.
func (b *Breaker) Cooling(now time.Time) bool {
	return b.Trips > 0 && now.Before(b.Until)
}

// Observe takes one sample of the source, late or on time. probe
// reports that it was the probe of a half-open breaker, tripped that it
// tripped the breaker: both for a probe that came back late, neither for
// a sample that changed nothing. A sample taken inside a cooldown — a
// read that began before the trip, or one that had nobody else to ask —
// is no probe and changes nothing.
func (b *Breaker) Observe(now time.Time, late bool) (tripped, probe bool) {
	if b.Cooling(now) {
		return false, false
	}
	probe = b.Trips > 0
	if !late {
		b.run, b.Trips = 0, 0
		return false, probe
	}
	b.run++
	if !probe && b.run < breakerThreshold {
		return false, false
	}
	b.Until = now.Add(cooldown(b.Trips))
	b.Trips++
	b.run = 0
	return true, probe
}

// cooldown is how long a trip sits out after trips earlier ones. The
// doubling stops at the ceiling rather than shifting blindly, so however
// often a source re-trips, the period cannot overflow into a negative,
// instantly expired one.
func cooldown(trips int) time.Duration {
	d := time.Duration(breakerCooldown)
	for i := 0; i < trips && d < maxDeadline; i++ {
		d *= 2
	}
	return min(d, maxDeadline)
}
