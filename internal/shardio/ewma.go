package shardio

import "time"

// ewmaAlpha is the weight of the newest latency sample in a moving
// average: heavy enough to react to a source turning slow within a few
// observations, light enough to ride out one hiccup.
const ewmaAlpha = 0.25

// EWMA is an exponentially weighted moving average of durations — the
// latency tracker behind the group's adaptive per-stripe deadlines,
// exported so the cluster gateway's node sideliner judges nodes with
// exactly the same estimator. The zero value
// is ready to use. Not safe for concurrent use; callers that share one
// across goroutines must lock around it.
type EWMA struct {
	v float64 // microseconds
	n uint64
}

// Observe folds one latency sample into the average. The first sample
// seeds the average directly.
func (e *EWMA) Observe(d time.Duration) {
	us := float64(d) / float64(time.Microsecond)
	if e.n == 0 {
		e.v = us
	} else {
		e.v = ewmaAlpha*us + (1-ewmaAlpha)*e.v
	}
	e.n++
}

// Micros returns the current average in microseconds (0 before any
// sample).
func (e *EWMA) Micros() float64 { return e.v }

// Value returns the current average as a duration (0 before any
// sample).
func (e *EWMA) Value() time.Duration {
	return time.Duration(e.v * float64(time.Microsecond))
}

// Samples returns how many observations have been folded in.
func (e *EWMA) Samples() uint64 { return e.n }
