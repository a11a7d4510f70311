// Package dialga implements the paper's contribution: an adaptive
// hardware/software prefetcher scheduler for erasure coding on
// persistent memory.
//
// The Scheduler wraps an ISA-L entry-point program (package isal) and
// plays the role of DIALGA's two components:
//
//   - the adaptive coordinator (§4.1): collects the I/O access pattern
//     (k, m, block size, thread count) through the library interface,
//     samples "PMU" counters (load latency, useless L2 prefetches) at
//     1 kHz of simulated time, and switches the kernel entry point per
//     stripe — the simulator analogue of selecting among statically
//     generated ec_encode_data variants;
//   - the lightweight operator (§4.2): the entry points themselves
//     (static shuffle mapping as the fine-grained hardware-prefetcher
//     switch, branchless pipelined software prefetch), plus the PM read
//     buffer-friendly scheme of §4.3 (non-uniform distances, Eq. 1
//     distance capping, XPLine loop expansion under pressure).
//
// The coordinator tunes with measured windows: above the concurrency
// threshold (or when the sampled counters signal contention plus an
// inefficient hardware prefetcher) it trials the high-pressure entry
// point — shuffle mapping plus XPLine-expanded loop — against the
// current one and keeps whichever wins. Prefetch distance is tuned by
// hill climbing (§4.1.2): starting at d=k, exploring a neighbourhood of
// 16 around the current distance, re-triggering whenever windowed
// performance fluctuates by more than 10%, and always capped by Eq. 1.
package dialga

import (
	"dialga/internal/engine"
	"dialga/internal/isal"
	"dialga/internal/mem"
	"dialga/internal/pmu"
	"dialga/internal/workload"
)

// The coordinator's thresholds are the paper's numbers, not knobs.
const (
	// latencyThreshold is the read-contention trigger: sampled load
	// latency above latencyThreshold x the low-pressure baseline
	// indicates traffic contention (paper: 1.10).
	latencyThreshold = 1.10
	// uselessPFThreshold is the prefetcher-inefficiency trigger on the
	// useless-prefetch rate relative to baseline (paper: 1.50).
	uselessPFThreshold = 1.50
	// threadThreshold is the concurrency above which the high-pressure
	// entry point is trialed (paper: 12, from Eq. 1).
	threadThreshold = 12
	// samplePeriodNS is the counter sampling period in simulated
	// nanoseconds (paper: 1 kHz).
	samplePeriodNS = 1e6
	// neighborhood is the hill-climbing exploration radius (paper: 16).
	neighborhood = 16
	// retriggerFluctuation re-starts tuning when windowed performance
	// moves by more than this fraction (paper: 0.10).
	retriggerFluctuation = 0.10
	// wideStripeStreams is the stream-tracking capacity beyond which
	// the hardware prefetcher self-disables, so DIALGA need not manage
	// it (paper: 32 on Cascade Lake).
	wideStripeStreams = 32
)

// Options are the coordinator's ablation switches. The zero value is
// the paper's configuration.
type Options struct {
	// DisableSWPrefetch turns off the pipelined software prefetcher
	// (ablation).
	DisableSWPrefetch bool
	// DisableHWManagement prevents the coordinator from ever engaging
	// the shuffle mapping (ablation).
	DisableHWManagement bool
	// DisableBufferFriendly turns off §4.3 entirely (ablation).
	DisableBufferFriendly bool
	// DisableHillClimbing pins the prefetch distance at its initial
	// value d=k, still subject to the Eq. 1 cap (ablation).
	DisableHillClimbing bool
}

// phase is the coordinator's tuning state.
type phase int

const (
	phaseModeMeasure  phase = iota // measuring the current entry point
	phaseModeTrial                 // trialing the alternate entry point
	phaseClimbMeasure              // distance search: measuring the centre
	phaseClimbProbe                // distance search: probing a neighbour
	phaseSettled                   // local optimum; watching for fluctuation
)

// String implements fmt.Stringer.
func (p phase) String() string {
	switch p {
	case phaseModeMeasure:
		return "mode-measure"
	case phaseModeTrial:
		return "mode-trial"
	case phaseClimbMeasure:
		return "climb-measure"
	case phaseClimbProbe:
		return "climb-probe"
	case phaseSettled:
		return "settled"
	}
	return "unknown"
}

// TraceEvent is one coordinator decision window, emitted through
// Scheduler.Trace for observability.
type TraceEvent struct {
	NowNS      float64 // simulated time at the window boundary
	WindowGBps float64 // throughput of the completed window
	Phase      string  // tuner phase entered after this window
	Distance   int     // software prefetch distance now in force
	HighMode   bool    // high-pressure entry point active
	Contended  bool    // sampled-contention state
}

// Scheduler is a DIALGA-scheduled encoding program for one thread.
// It implements engine.Program and engine.TelemetryAware.
type Scheduler struct {
	prog *isal.Program
	opts Options
	cfg  *mem.Config
	tel  *engine.Telemetry

	// Trace, if set, receives one event per tuning window.
	Trace func(TraceEvent)

	// Static I/O pattern.
	k, m, blockSize int

	// Sampling state (§4.1.2 "Cache Events").
	sampler   *pmu.Sampler
	contended bool

	// Windowed tuner.
	phase            phase
	highMode         bool // current entry point is the high-pressure one
	modePerfLow      float64
	windowStart      float64
	windowStripe     int
	stripesPerWindow int
	settledPerf      float64
	modeTrials       int
	modeCooldown     int // windows until the next mode trial is allowed

	// Distance search (cacheline tasks).
	curD, bestD  int
	center       int
	bestPerf     float64
	probeIdx     int
	probeOffsets []int
}

// New builds a DIALGA scheduler over a workload layout. The returned
// scheduler is the engine program for one encoding thread.
func New(l *workload.Layout, cfg *mem.Config, opts Options) *Scheduler {
	s := &Scheduler{
		opts:      opts,
		cfg:       cfg,
		k:         l.K,
		m:         l.M,
		blockSize: l.BlockSize,
		curD:      l.K, // the search begins at d = k (§4.1.2)
		bestD:     l.K,
		sampler:   pmu.NewSampler(samplePeriodNS, latencyThreshold, uselessPFThreshold),
	}
	const n = neighborhood
	// Probe order within the neighbourhood: prefer growing the
	// distance (latency hiding), then shrinking.
	s.probeOffsets = []int{n, n / 2, -n / 2, 2 * n}
	// Windows long enough to smooth per-stripe noise, short enough to
	// adapt quickly.
	s.stripesPerWindow = 16
	s.prog = isal.NewProgram(l, cfg, isal.KernelParams{})
	s.prog.OnStripe = s.onStripe
	return s
}

// Attach implements engine.TelemetryAware.
func (s *Scheduler) Attach(t *engine.Telemetry) { s.tel = t }

// SetLRCLocalGroups marks the layout's last l parity blocks as LRC
// local XOR parities; DIALGA's scheduling applies to LRC unchanged
// (§4.1 "Other Coding Tasks").
func (s *Scheduler) SetLRCLocalGroups(l int) { s.prog.LRCLocalGroups = l }

// Next implements engine.Program.
func (s *Scheduler) Next(op *engine.Op) bool { return s.prog.Next(op) }

// DataBytes implements engine.Program.
func (s *Scheduler) DataBytes() uint64 { return s.prog.DataBytes() }

// Distance returns the current software prefetch distance (diagnostic).
func (s *Scheduler) Distance() int { return s.curD }

// HighMode reports whether the high-pressure entry point is active
// (diagnostic).
func (s *Scheduler) HighMode() bool { return s.highMode }

// onStripe is the per-stripe coordinator hook.
func (s *Scheduler) onStripe(stripe int, p *isal.KernelParams) {
	if s.tel == nil {
		return
	}
	if stripe == 0 {
		s.applyMode(p, false)
		s.windowStart = s.tel.NowNS()
		s.windowStripe = 0
		s.phase = phaseModeMeasure
		return
	}
	s.samplePMU()

	s.windowStripe++
	if s.windowStripe < s.stripesPerWindow {
		return
	}
	now := s.tel.NowNS()
	elapsed := now - s.windowStart
	if elapsed <= 0 {
		return
	}
	perf := float64(s.windowStripe*s.k*s.blockSize) / elapsed
	s.windowStart = now
	s.windowStripe = 0
	s.step(perf, p)
	if s.Trace != nil {
		s.Trace(TraceEvent{
			NowNS:      now,
			WindowGBps: perf,
			Phase:      s.phase.String(),
			Distance:   s.curD,
			HighMode:   s.highMode,
			Contended:  s.contended,
		})
	}
}

// wantsTrial reports whether the high-pressure entry point should be
// considered at all: concurrency above the threshold, or detected
// contention with an inefficient hardware prefetcher (§4.1.2) — except
// for wide stripes, where the stream table self-disables and there is
// nothing to manage.
func (s *Scheduler) wantsTrial() bool {
	if s.opts.DisableHWManagement {
		return false
	}
	if s.modeCooldown > 0 {
		return false
	}
	if s.k > wideStripeStreams {
		return false
	}
	if s.tel.ThreadCount() > threadThreshold {
		return true
	}
	return s.contended
}

// modeCooldownWindows is how many measurement windows a mode decision
// holds before another trial may run — hysteresis against flip-flopping
// on noisy windows near a thrash knee.
const modeCooldownWindows = 12

// step advances the windowed tuner with the last window's performance.
func (s *Scheduler) step(perf float64, p *isal.KernelParams) {
	if s.modeCooldown > 0 {
		s.modeCooldown--
	}
	switch s.phase {
	case phaseModeMeasure:
		if !s.wantsTrial() {
			s.startClimb(perf, p)
			return
		}
		// Trial the alternate entry point next window.
		s.modePerfLow = perf
		s.applyMode(p, !s.highMode)
		s.modeTrials++
		s.phase = phaseModeTrial
	case phaseModeTrial:
		if perf < s.modePerfLow {
			// The alternate lost: revert.
			s.applyMode(p, !s.highMode)
			perf = s.modePerfLow
		}
		s.modeCooldown = modeCooldownWindows
		s.startClimb(perf, p)
	case phaseClimbMeasure:
		s.center = s.curD
		s.bestPerf = perf
		s.bestD = s.curD
		s.probeIdx = 0
		s.curD = s.clampProbe(s.center + s.probeOffsets[0])
		s.capDistance(p)
		s.phase = phaseClimbProbe
	case phaseClimbProbe:
		if perf > s.bestPerf {
			s.bestPerf = perf
			s.bestD = s.curD
		}
		s.probeIdx++
		if s.probeIdx < len(s.probeOffsets) {
			s.curD = s.clampProbe(s.center + s.probeOffsets[s.probeIdx])
			s.capDistance(p)
			return
		}
		// Neighbourhood exhausted: adopt the best distance. If it
		// moved off the centre, climb again around the new centre;
		// otherwise settle.
		s.curD = s.bestD
		s.capDistance(p)
		if s.bestD != s.center {
			s.phase = phaseClimbMeasure
		} else {
			s.phase = phaseSettled
			s.settledPerf = s.bestPerf
		}
	case phaseSettled:
		// Re-trigger the full tuning cycle on >10% fluctuation
		// (§4.1.2).
		if s.settledPerf > 0 {
			fl := perf/s.settledPerf - 1
			if fl > retriggerFluctuation || fl < -retriggerFluctuation {
				s.phase = phaseModeMeasure
			}
		}
	}
}

// startClimb enters the distance search, or settles directly when the
// search is disabled.
func (s *Scheduler) startClimb(perf float64, p *isal.KernelParams) {
	if s.opts.DisableHillClimbing || s.opts.DisableSWPrefetch {
		s.phase = phaseSettled
		s.settledPerf = perf
		return
	}
	s.center = s.curD
	s.bestPerf = perf
	s.bestD = s.curD
	s.probeIdx = 0
	s.curD = s.clampProbe(s.center + s.probeOffsets[0])
	s.capDistance(p)
	s.phase = phaseClimbProbe
}

// applyMode installs an entry point: the low-pressure point keeps the
// hardware prefetcher and adds buffer-friendly pipelined prefetching;
// the high-pressure point de-trains the prefetcher with the shuffle
// mapping and expands the loop to XPLine granularity (§4.3.3).
func (s *Scheduler) applyMode(p *isal.KernelParams, high bool) {
	s.highMode = high
	p.SWPrefetch = !s.opts.DisableSWPrefetch
	if high {
		p.Shuffle = true
		p.BufferFriendly = false
		p.XPLineLoop = !s.opts.DisableBufferFriendly
	} else {
		p.Shuffle = false
		p.XPLineLoop = false
		p.BufferFriendly = !s.opts.DisableBufferFriendly
	}
	s.capDistance(p)
}

// samplePMU reads the simulated counters at the configured rate and
// updates the contention estimate (§4.1.2 "Cache Events"). A change in
// the contention state re-opens tuning from the settled phase.
func (s *Scheduler) samplePMU() {
	sampled := s.sampler.Sample(s.tel.NowNS(), pmu.Counters{
		Loads:             s.tel.Loads(),
		LoadLatencySumNS:  s.tel.LoadLatencySumNS(),
		UselessPrefetches: s.tel.UselessHWPrefetches(),
	})
	if !sampled {
		return
	}
	was := s.contended
	s.contended = s.sampler.Contended()
	if s.contended != was && s.phase == phaseSettled {
		s.phase = phaseModeMeasure
	}
}

// maxDistance implements Eq. 1: the largest prefetch distance (in
// cacheline tasks) whose read-buffer footprint across all threads fits
// the device buffer:
//
//	nthread x k x 256B x ceil(maxd/(k+m)) <= buffersize,
//
// with m = 0 for non-temporal stores.
func maxDistance(bufferLines, threads, k int) int {
	if bufferLines <= 0 || threads <= 0 || k <= 0 {
		return 1 << 30 // DRAM or degenerate: unconstrained
	}
	windows := bufferLines / (threads * k)
	if windows < 1 {
		windows = 1
	}
	return windows * k
}

// capDistance applies Eq. 1 and publishes the distance.
func (s *Scheduler) capDistance(p *isal.KernelParams) {
	maxD := maxDistance(s.tel.ReadBufferCapacityLines(), s.tel.ThreadCount(), s.k)
	if s.curD > maxD {
		s.curD = maxD
	}
	if s.curD < 1 {
		s.curD = 1
	}
	p.PrefetchDistance = s.curD
}

func (s *Scheduler) clampProbe(d int) int {
	if d < 1 {
		return 1
	}
	maxD := maxDistance(s.tel.ReadBufferCapacityLines(), s.tel.ThreadCount(), s.k)
	if d > maxD {
		return maxD
	}
	return d
}
