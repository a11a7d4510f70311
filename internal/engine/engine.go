// Package engine is the deterministic execution engine of the memory-
// hierarchy simulator. It advances N logical threads through their
// memory-access programs in global timestamp order, so threads contend
// for the shared LLC and memory device exactly as the paper's
// multi-threaded encode benchmarks do.
//
// A program yields Ops — one per encode "row" (or packet operation for
// XOR codecs). Each op carries optional software prefetches, a batch of
// demand loads (overlapped up to the configured memory-level
// parallelism), a compute cost, and non-temporal stores. The engine
// charges issue costs, walks the L1/L2/LLC hierarchy, trains the
// per-core stream prefetcher on L2 demand accesses, and resolves misses
// against the device model with queueing.
package engine

import (
	"fmt"

	"dialga/internal/cache"
	"dialga/internal/hwpf"
	"dialga/internal/mem"
	"dialga/internal/pmem"
)

// Op is one unit of work yielded by a Program. Slices are owned by the
// program and may be reused between calls.
type Op struct {
	// SWPrefetches are software prefetch targets issued before the
	// loads (prefetcht0 semantics: fill all levels).
	SWPrefetches []mem.Addr
	// Loads are demand loads required before Compute. They overlap up
	// to Config.MLP.
	Loads []mem.Addr
	// ComputeCycles is charged after all loads complete.
	ComputeCycles float64
	// Stores are non-temporal stores issued after compute; they bypass
	// the cache hierarchy and post to the device's write path.
	Stores []mem.Addr
	// PrefetchExtraCycles adds per-prefetch scheduling overhead beyond
	// the branchless baseline (models a naive branching prefetch
	// interface; DIALGA's operator keeps this at zero).
	PrefetchExtraCycles float64
}

// Reset clears the op for reuse.
func (o *Op) Reset() {
	o.SWPrefetches = o.SWPrefetches[:0]
	o.Loads = o.Loads[:0]
	o.Stores = o.Stores[:0]
	o.ComputeCycles = 0
	o.PrefetchExtraCycles = 0
}

// Program generates the op stream of one simulated thread.
type Program interface {
	// Next fills op (after the engine resets it) and reports whether an
	// op was produced; false means the program is complete.
	Next(op *Op) bool
	// DataBytes returns the number of application data bytes the
	// program encodes/decodes in total (the throughput numerator).
	DataBytes() uint64
}

// TelemetryAware programs receive a telemetry handle before the run
// starts; DIALGA's coordinator uses it to sample counters.
type TelemetryAware interface {
	Attach(*Telemetry)
}

// Telemetry exposes a thread's live counters to an adaptive program.
type Telemetry struct {
	t *Thread
	e *Engine
}

// NowNS returns the thread's current simulated time.
func (tl *Telemetry) NowNS() float64 { return tl.t.now }

// Loads returns the number of demand loads issued so far.
func (tl *Telemetry) Loads() uint64 { return tl.t.stats.Loads }

// LoadLatencySumNS returns the cumulative demand-load latency; paired
// with Loads it yields windowed average latency.
func (tl *Telemetry) LoadLatencySumNS() float64 { return tl.t.stats.LoadLatSumNS }

// UselessHWPrefetches returns the thread's L2 useless-prefetch count
// (the PMU 0xf2 analogue).
func (tl *Telemetry) UselessHWPrefetches() uint64 { return tl.t.l2.Stats().UselessPrefetch }

// ThreadCount returns the number of threads in the run (the
// concurrency signal of the coordinator's I/O pattern collection).
func (tl *Telemetry) ThreadCount() int { return len(tl.e.threads) }

// ReadBufferCapacityLines returns the PM read buffer capacity in
// XPLines (0 on DRAM), for DIALGA's Eq. 1.
func (tl *Telemetry) ReadBufferCapacityLines() int { return tl.e.dev.BufferCapacityLines() }

// ThreadStats are per-thread accumulated counters.
type ThreadStats struct {
	Loads        uint64
	Stores       uint64
	SWPrefetches uint64
	LoadLatSumNS float64
	LoadStallNS  float64 // time the thread waited on load completion
	FillStallNS  float64 // time issue stalled on a full line-fill buffer
	StoreStallNS float64 // time the thread waited on write backpressure
	ComputeNS    float64
	L3Misses     uint64
	L3StallNS    float64 // latency beyond LLC of demand loads
}

// Thread is one simulated hardware thread with private L1/L2 and stream
// prefetcher, sharing the LLC and device.
type Thread struct {
	id    int
	now   float64
	done  bool
	prog  Program
	l1    *cache.Cache
	l2    *cache.Cache
	pf    *hwpf.Prefetcher
	stats ThreadStats
	op    Op
	// fills are the line-fill-buffer slots (completion times) for
	// outstanding demand fills; sq are the L2 superqueue slots shared
	// by every memory fill the core initiates (demand misses, software
	// prefetches, hardware prefetches). Full structures bound a
	// thread's memory bandwidth at slots x 64 B per average fill
	// latency — which is what makes buffer-friendly prefetching pay
	// off: buffer-hit fills release their slot much sooner than media
	// fills.
	fills []float64
	sq    []float64
}

// acquireSlot returns the earliest-free slot of a pool and the
// (possibly delayed) time the new fill can start.
func acquireSlot(pool []float64, now float64) (float64, *float64) {
	best := 0
	for i := 1; i < len(pool); i++ {
		if pool[i] < pool[best] {
			best = i
		}
	}
	if pool[best] > now {
		now = pool[best]
	}
	return now, &pool[best]
}

// tryAcquireSlot returns a free slot or nil (used by hardware
// prefetches, which are dropped rather than stalled when the
// superqueue is full).
func tryAcquireSlot(pool []float64, now float64) *float64 {
	for i := range pool {
		if pool[i] <= now {
			return &pool[i]
		}
	}
	return nil
}

// Engine runs a set of programs over a shared memory system.
type Engine struct {
	cfg     mem.Config
	dev     *pmem.Device
	llc     *cache.Cache
	threads []*Thread
}

// New constructs an engine with the given configuration and device kind
// (the data source the paper varies in Fig. 3).
func New(cfg mem.Config, kind mem.DeviceKind) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg: cfg,
		dev: pmem.New(kind, &cfg),
		llc: cache.New(cfg.LLCSize, cfg.LLCWays),
	}
	return e, nil
}

// Config returns the engine configuration.
func (e *Engine) Config() *mem.Config { return &e.cfg }

// AddThread registers a program as a new simulated thread and returns
// the thread handle.
func (e *Engine) AddThread(p Program) *Thread {
	t := &Thread{
		id:    len(e.threads),
		prog:  p,
		l1:    cache.New(e.cfg.L1Size, e.cfg.L1Ways),
		l2:    cache.New(e.cfg.L2Size, e.cfg.L2Ways),
		pf:    hwpf.New(&e.cfg),
		fills: make([]float64, e.cfg.MLP),
		sq:    make([]float64, e.cfg.SQDepth),
	}
	e.threads = append(e.threads, t)
	if ta, ok := p.(TelemetryAware); ok {
		ta.Attach(&Telemetry{t: t, e: e})
	}
	return t
}

// Result summarizes a run.
type Result struct {
	ElapsedNS      float64
	DataBytes      uint64
	ThroughputGBps float64

	Threads []ThreadStats

	// Aggregated cache and prefetcher statistics across threads.
	L1, L2 cache.Stats
	LLC    cache.Stats
	PF     hwpf.Stats
	Dev    pmem.Stats

	// Per-layer read traffic for Fig. 19. EncodeReadBytes is the
	// application-level traffic (64 B per demand load), CtrlReadBytes
	// the memory-controller traffic, MediaReadBytes the PM media
	// traffic.
	EncodeReadBytes uint64
	CtrlReadBytes   uint64
	MediaReadBytes  uint64
}

// AvgLoadLatencyNS returns the mean demand-load latency of the run.
func (r *Result) AvgLoadLatencyNS() float64 {
	var lat float64
	var n uint64
	for _, t := range r.Threads {
		lat += t.LoadLatSumNS
		n += t.Loads
	}
	if n == 0 {
		return 0
	}
	return lat / float64(n)
}

// MissCyclesPerLoad returns demand LLC-miss latency cycles normalized
// by loads, at the configured frequency.
func (r *Result) MissCyclesPerLoad(cfg *mem.Config) float64 {
	var stall float64
	var n uint64
	for _, t := range r.Threads {
		stall += t.L3StallNS
		n += t.Loads
	}
	if n == 0 {
		return 0
	}
	return cfg.NSToCycles(stall) / float64(n)
}

// StallCyclesPerLoad returns the thread-visible memory stall cycles per
// demand load: time the core actually waited on load completion or on
// full fill structures. Unlike MissCyclesPerLoad this includes the
// residual waits of prefetched streams, making it the analogue of the
// paper's Fig. 17 "cache miss cycles normalized by loads".
func (r *Result) StallCyclesPerLoad(cfg *mem.Config) float64 {
	var stall float64
	var n uint64
	for _, t := range r.Threads {
		stall += t.LoadStallNS + t.FillStallNS
		n += t.Loads
	}
	if n == 0 {
		return 0
	}
	return cfg.NSToCycles(stall) / float64(n)
}

// UselessPrefetchRatio returns useless L2 prefetches / prefetch fills.
func (r *Result) UselessPrefetchRatio() float64 {
	if r.L2.PrefetchFills == 0 {
		return 0
	}
	return float64(r.L2.UselessPrefetch) / float64(r.L2.PrefetchFills)
}

// L2PrefetchRatio returns HW prefetches issued / L2 demand accesses.
func (r *Result) L2PrefetchRatio() float64 {
	demand := r.L2.Hits + r.L2.Misses
	if demand == 0 {
		return 0
	}
	return float64(r.PF.Issued) / float64(demand)
}

// Run executes all thread programs to completion and returns the
// aggregate result. The engine is single-use: construct a new one per
// experiment.
func (e *Engine) Run() (*Result, error) {
	if len(e.threads) == 0 {
		return nil, fmt.Errorf("engine: no threads")
	}
	running := len(e.threads)
	for running > 0 {
		// Advance the thread with the smallest clock (deterministic
		// tie-break on id by scan order).
		var t *Thread
		for _, c := range e.threads {
			if c.done {
				continue
			}
			if t == nil || c.now < t.now {
				t = c
			}
		}
		t.op.Reset()
		if !t.prog.Next(&t.op) {
			t.done = true
			running--
			continue
		}
		e.exec(t, &t.op)
	}

	res := &Result{}
	var finish float64
	for _, t := range e.threads {
		if t.now > finish {
			finish = t.now
		}
		res.Threads = append(res.Threads, t.stats)
		res.DataBytes += t.prog.DataBytes()
		addCacheStats(&res.L1, t.l1.Stats())
		addCacheStats(&res.L2, t.l2.Stats())
		addPFStats(&res.PF, t.pf.Stats())
		res.EncodeReadBytes += t.stats.Loads * mem.CachelineSize
	}
	// The paper's benchmark ends with a memory fence: drain the device.
	finish = e.dev.Drain(finish)
	res.ElapsedNS = finish
	res.LLC = e.llc.Stats()
	res.Dev = e.dev.Stats()
	res.CtrlReadBytes = res.Dev.CtrlReadBytes
	res.MediaReadBytes = res.Dev.MediaReadBytes
	if finish > 0 {
		res.ThroughputGBps = float64(res.DataBytes) / finish
	}
	return res, nil
}

func addCacheStats(dst *cache.Stats, s cache.Stats) {
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.PrefetchFills += s.PrefetchFills
	dst.UselessPrefetch += s.UselessPrefetch
	dst.LatePrefetchHits += s.LatePrefetchHits
}

func addPFStats(dst *hwpf.Stats, s hwpf.Stats) {
	dst.Accesses += s.Accesses
	dst.Issued += s.Issued
	dst.StreamAllocs += s.StreamAllocs
	dst.StreamEvicts += s.StreamEvicts
	dst.ConfidenceHit += s.ConfidenceHit
}

// exec advances thread t through one op.
func (e *Engine) exec(t *Thread, op *Op) {
	cfg := &e.cfg

	// 1. Software prefetches.
	for _, a := range op.SWPrefetches {
		t.now += cfg.CyclesToNS(cfg.PrefetchIssueCyc + op.PrefetchExtraCycles)
		t.stats.SWPrefetches++
		e.swPrefetch(t, a.LineAddr(), t.now)
	}

	// 2. Demand loads. Issue proceeds without blocking on data (the
	// out-of-order window), limited by line-fill-buffer availability;
	// the op's compute waits for all its loads.
	opReady := t.now
	for _, a := range op.Loads {
		t.now += cfg.CyclesToNS(cfg.LoadIssueCyc)
		ready := e.demandLoad(t, a.LineAddr(), t.now)
		t.stats.Loads++
		t.stats.LoadLatSumNS += ready - t.now
		if ready > opReady {
			opReady = ready
		}
	}
	if opReady > t.now {
		t.stats.LoadStallNS += opReady - t.now
		t.now = opReady
	}

	// 3. Compute.
	if op.ComputeCycles > 0 {
		d := cfg.CyclesToNS(op.ComputeCycles)
		t.stats.ComputeNS += d
		t.now += d
	}

	// 4. Non-temporal stores.
	for _, a := range op.Stores {
		t.now += cfg.CyclesToNS(cfg.StoreIssueCyc)
		t.stats.Stores++
		proceed := e.dev.Write(a.LineAddr(), t.now)
		if proceed > t.now {
			t.stats.StoreStallNS += proceed - t.now
			t.now = proceed
		}
	}
}

// demandLoad walks the hierarchy for a demand load issued at time
// `issue` and returns when the data is available.
func (e *Engine) demandLoad(t *Thread, addr mem.Addr, issue float64) float64 {
	cfg := &e.cfg
	if hit, r := t.l1.Lookup(addr, issue); hit {
		ready := issue + cfg.CyclesToNS(cfg.L1LatCycles)
		if r > ready {
			ready = r
		}
		return ready
	}
	// The access reaches L2: train the stream prefetcher.
	e.hwPrefetch(t, addr, issue, true)
	if hit, r := t.l2.Lookup(addr, issue); hit {
		ready := issue + cfg.CyclesToNS(cfg.L2LatCycles)
		if r > ready {
			ready = r
		}
		t.l1.Insert(addr, ready, false)
		return ready
	}
	if hit, r := e.llc.Lookup(addr, issue); hit {
		ready := issue + cfg.CyclesToNS(cfg.LLCLatCycles)
		if r > ready {
			ready = r
		}
		t.l2.Insert(addr, ready, false)
		t.l1.Insert(addr, ready, false)
		return ready
	}
	// Memory-level demand fill: occupies a line-fill buffer and a
	// superqueue entry until data arrives.
	start, lfb := acquireSlot(t.fills, issue)
	start2, sqs := acquireSlot(t.sq, start)
	if start2 > issue {
		t.stats.FillStallNS += start2 - issue
	}
	ready := e.dev.Read(addr, start2)
	*lfb = ready
	*sqs = ready
	t.stats.L3Misses++
	t.stats.L3StallNS += ready - issue
	e.llc.Insert(addr, ready, false)
	t.l2.Insert(addr, ready, false)
	t.l1.Insert(addr, ready, false)
	return ready
}

// hwPrefetch lets the stream prefetcher observe an L2 access and
// services whatever it asks for. HW prefetches fill L2 and LLC.
func (e *Engine) hwPrefetch(t *Thread, addr mem.Addr, now float64, demand bool) {
	var reqs []mem.Addr
	if demand {
		reqs = t.pf.OnAccess(addr)
	} else {
		reqs = t.pf.OnPrefetch(addr)
	}
	for _, req := range reqs {
		if t.l2.Contains(req) {
			continue
		}
		var arrival float64
		if hit, r := e.llc.Lookup(req, now); hit {
			arrival = now + e.cfg.CyclesToNS(e.cfg.LLCLatCycles)
			if r > arrival {
				arrival = r
			}
		} else {
			// Hardware prefetches issue from the L2's own queues and
			// throttle behind demands: when the core's superqueue is
			// saturated they are dropped, but they do not occupy core
			// slots themselves. No occupancy-based throttling beyond
			// this: the paper's Obs. 5 depends on the prefetcher
			// remaining aggressive under memory pressure.
			if tryAcquireSlot(t.sq, now) == nil {
				continue
			}
			arrival = e.dev.Read(req, now)
			e.llc.Insert(req, arrival, true)
		}
		t.l2.Insert(req, arrival, true)
	}
}

// swPrefetch services a software prefetch (prefetcht0: fills L1+L2+LLC).
// It trains the hardware prefetcher — the "training effect" the paper
// observes raising DIALGA's controller-level read traffic (Fig. 19a).
func (e *Engine) swPrefetch(t *Thread, addr mem.Addr, now float64) {
	if t.l1.Contains(addr) {
		return
	}
	e.hwPrefetch(t, addr, now, false)
	if t.l2.Contains(addr) {
		return // already present or in flight
	}
	var arrival float64
	if hit, r := e.llc.Lookup(addr, now); hit {
		arrival = now + e.cfg.CyclesToNS(e.cfg.LLCLatCycles)
		if r > arrival {
			arrival = r
		}
	} else {
		// DIALGA's pipelined software prefetch targets the L2
		// (prefetcht1 semantics): it occupies a superqueue entry —
		// not a line-fill buffer — until the data arrives, and a full
		// superqueue stalls the issuing thread.
		start, slot := acquireSlot(t.sq, now)
		if start > t.now {
			t.stats.FillStallNS += start - t.now
			t.now = start
		}
		arrival = e.dev.Read(addr, start)
		*slot = arrival
		e.llc.Insert(addr, arrival, true)
	}
	t.l2.Insert(addr, arrival, true)
}
