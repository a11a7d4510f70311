// Package pmu implements the performance-counter sampling DIALGA's
// coordinator relies on (§4.1.2 "Cache Events"): a fixed-rate sampler
// over hardware-counter snapshots that maintains a low-pressure
// baseline and raises a contention signal when both the average load
// latency (vs 110% of baseline) and the useless-hardware-prefetch rate
// (vs 150% of baseline) are elevated.
//
// On the paper's testbed these are PEBS/PMU events (e.g. 0xf2 for L2
// useless prefetches) read at 1 kHz; here the counters come from the
// simulator's engine.Telemetry, with identical semantics.
package pmu

// Counters is a monotonically increasing counter snapshot.
type Counters struct {
	// Loads is the number of demand loads retired.
	Loads uint64
	// LoadLatencySumNS is the cumulative demand-load latency.
	LoadLatencySumNS float64
	// UselessPrefetches counts prefetched lines evicted unused
	// (the PMU 0xf2 analogue).
	UselessPrefetches uint64
}

// Sampler detects read-traffic contention from windowed counter deltas.
// The zero value is not usable; use NewSampler.
type Sampler struct {
	periodNS         float64
	latThreshold     float64
	uselessThreshold float64

	lastNS   float64
	last     Counters
	haveBase bool

	baselineLatNS   float64
	baselineUseless float64
	contended       bool
}

// NewSampler constructs a sampler with the given period (ns of
// simulated time between samples) and thresholds (the paper uses 1 ms,
// 1.10 and 1.50).
func NewSampler(periodNS, latThreshold, uselessThreshold float64) *Sampler {
	return &Sampler{
		periodNS:         periodNS,
		latThreshold:     latThreshold,
		uselessThreshold: uselessThreshold,
	}
}

// Sample feeds a counter snapshot at time nowNS. It returns true when a
// sampling window elapsed and the contention estimate was updated.
func (s *Sampler) Sample(nowNS float64, c Counters) bool {
	if nowNS-s.lastNS < s.periodNS {
		return false
	}
	dLoads := c.Loads - s.last.Loads
	if dLoads == 0 {
		s.lastNS = nowNS
		return false
	}
	avgLat := (c.LoadLatencySumNS - s.last.LoadLatencySumNS) / float64(dLoads)
	uselessRate := float64(c.UselessPrefetches-s.last.UselessPrefetches) / float64(dLoads)
	s.lastNS = nowNS
	s.last = c

	if !s.haveBase {
		// The first window establishes the low-pressure baseline
		// (the paper profiles this at startup).
		s.baselineLatNS = avgLat
		s.baselineUseless = uselessRate
		s.haveBase = true
		return true
	}
	latHigh := avgLat > s.latThreshold*s.baselineLatNS
	pfWasteful := uselessRate > s.uselessThreshold*(s.baselineUseless+1e-9)
	s.contended = latHigh && pfWasteful
	if !latHigh {
		// Slowly track an improving baseline so the detector re-arms
		// after a pressure burst subsides.
		s.baselineLatNS = 0.9*s.baselineLatNS + 0.1*avgLat
	}
	return true
}

// Contended reports whether the last window showed both elevated load
// latency and a wasteful hardware prefetcher — the paper's condition
// for disabling the prefetcher.
func (s *Sampler) Contended() bool { return s.contended }
