package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dialga/bench/fixture"
	"dialga/internal/obs"
)

// regSnap is an obs.Registry read from outside, through the exposition
// it already publishes: each family's series summed over their labels,
// and each histogram's cumulative buckets likewise.
type regSnap struct {
	sums    map[string]float64
	buckets map[string]map[float64]float64 // family -> le -> cumulative count
}

func snapRegistry(reg *obs.Registry) regSnap {
	s := regSnap{sums: map[string]float64{}, buckets: map[string]map[float64]float64{}}
	var buf bytes.Buffer
	reg.Expose(&buf) // writes to memory
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		name, labels, _ := strings.Cut(series, "{")
		if fam, ok := strings.CutSuffix(name, "_bucket"); ok {
			_, le, _ := strings.Cut(labels, `le="`)
			le, _, _ = strings.Cut(le, `"`)
			bound, err := strconv.ParseFloat(le, 64) // "+Inf" parses
			if err != nil {
				continue
			}
			if s.buckets[fam] == nil {
				s.buckets[fam] = map[float64]float64{}
			}
			s.buckets[fam][bound] += v
			continue
		}
		s.sums[name] += v
	}
	return s
}

// histQuantile is the q-quantile's bucket upper bound over the
// observations made between two snapshots of one histogram family.
func histQuantile(before, after regSnap, fam string, q float64) float64 {
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for le, cum := range after.buckets[fam] {
		bs = append(bs, bucket{le, cum - before.buckets[fam][le]})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].cum
	if total == 0 {
		return 0
	}
	for _, b := range bs {
		if b.cum >= q*total {
			return b.le
		}
	}
	return bs[len(bs)-1].le
}

// snapshot is the process and registry state at one boundary of a run.
type snapshot struct {
	cpu     float64 // user+sys seconds
	alloc   uint64  // cumulative heap bytes allocated
	gcPause uint64  // cumulative GC pause ns
	reg     regSnap
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func takeSnapshot(reg *obs.Registry) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{cpu: cpuSeconds(), alloc: ms.TotalAlloc, gcPause: ms.PauseTotalNs, reg: snapRegistry(reg)}
}

// peakRSSMiB reads the process's high-water resident set.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// result is what one run of one workload measured.
type result struct {
	Workload  string   `json:"workload"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Warnings say the measurement, not the program, went wrong.
	Warnings []string           `json:"warnings,omitempty"`
	Metrics  map[string]float64 `json:"metrics"`
	// WindowOps is how many ops succeeded inside the window.
	WindowOps int `json:"window_ops"`
	// SliceSpread is the inter-quartile spread of the five throughput
	// slices as a share of their median.
	SliceSpread float64 `json:"throughput_slice_spread"`
	Ladder      []rung  `json:"ladder,omitempty"`
}

// slices is how many equal parts the measured window is cut into.
const slices = 5

// lateLimitMs flags a run whose open-loop generator ran later than this
// at p99 (of the median slice, like every windowed number): past it,
// the schedule the latencies are timed against was not the one that
// was sent, and the run's latencies should not be read. It warns and
// does not fail the run: on the sandbox a neighbour trips it about one
// run in ten, and a failed run says the program answered wrongly.
const lateLimitMs = 5.0

// windowStats summarises the ops that ended inside a window, slice by
// slice: every windowed end-to-end metric is the median of its slices.
type windowStats struct {
	attempted, failed int
	rates, bytes      []float64   // per slice: bytes/s, payload bytes
	lat, ttfb         [][]float64 // per slice: ms from due to end, ms from sent to first byte
	late              [][]float64 // per slice, open loop: ms a send left after max(due, worker free)
}

func (w *windowStats) samples() (n int) {
	for _, s := range w.lat {
		n += len(s)
	}
	return n
}

func (w *windowStats) totalBytes() (b float64) {
	for _, v := range w.bytes {
		b += v
	}
	return b
}

func flat(per [][]float64) []float64 {
	var all []float64
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

func summarise(ops []opRec, w0, w1 time.Duration, n int, perBusy bool) windowStats {
	w := windowStats{lat: make([][]float64, n), ttfb: make([][]float64, n), late: make([][]float64, n)}
	width := (w1 - w0) / time.Duration(n)
	for _, op := range ops {
		if op.class == opScan || op.end < w0 || op.end >= w1 {
			continue
		}
		w.attempted++
		if op.failed {
			w.failed++
			continue
		}
		i := min(int((op.end-w0)/width), n-1)
		w.lat[i] = append(w.lat[i], ms(op.end-op.due))
		if op.free > 0 {
			w.late[i] = append(w.late[i], ms(op.sent-max(op.due, op.free)))
		}
		if op.first > 0 { // reads only
			w.ttfb[i] = append(w.ttfb[i], ms(op.first-op.sent))
		}
	}
	w.rates, w.bytes = sliceRates(ops, w0, w1, n, perBusy)
	return w
}

const (
	mib = 1 << 20
	gib = 1 << 30
)

// execute runs one workload once and returns its metrics: the
// end-to-end ones from an untraced run, the per-layer ones from a
// traced run.
func execute(cfg config, wl *workload) (*result, error) {
	res := &result{Workload: wl.name, Trace: cfg.trace, Metrics: map[string]float64{}}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	if cfg.trace {
		rungs, err := runLadder(cfg)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		res.Ladder = rungs
		for _, g := range rungs {
			res.Metrics[g.Name] = g.Median
		}
	}

	r := &run{cfg: cfg, wl: wl, pay: newPayloads(cfg.seed)}
	r.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.clients}}
	if cfg.trace {
		r.rec = newRecorder()
	}
	defer r.teardown()

	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		r.teardown()
		start := time.Now()
		if err := r.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	stored, err := r.fx.StoredBytes()
	if err != nil {
		return nil, err
	}
	if wl.prepare != nil {
		if err := wl.prepare(r); err != nil {
			return nil, err
		}
	}

	// Boundaries: warm-up | window. A traced run splits the window into
	// a recorder-off part, whose throughput is the base the tracing
	// overhead is measured against, and a recorder-on part.
	bounds := []time.Duration{cfg.warmup, cfg.warmup + cfg.window}
	if cfg.trace {
		bounds = []time.Duration{cfg.warmup, cfg.warmup + cfg.window*2/5, cfg.warmup + cfg.window}
	}
	r.deadline = bounds[len(bounds)-1]
	r.epoch = time.Now()
	if r.rec != nil {
		r.rec.epoch = r.epoch
	}
	loaded := make(chan []opRec, 1)
	go func() { loaded <- wl.load(r) }()
	snaps := make([]snapshot, len(bounds))
	cpuAt := make([]float64, slices+1) // the CPU clock at each slice edge of the measured window
	for i, b := range bounds {
		if i == len(bounds)-1 {
			w0 := bounds[i-1]
			for s := 1; s < slices; s++ {
				time.Sleep(w0 + (b-w0)*time.Duration(s)/slices - r.since())
				cpuAt[s] = cpuSeconds()
			}
		}
		time.Sleep(b - r.since())
		snaps[i] = takeSnapshot(r.fx.Reg)
		if cfg.trace && i == len(bounds)-2 {
			r.rec.on.Store(true)
		}
	}
	if r.rec != nil {
		r.rec.on.Store(false)
	}
	ops := <-loaded

	if wl.check != nil {
		if err := wl.check(r); err != nil {
			res.Errors = append(res.Errors, err.Error())
		}
	}

	n := len(bounds)
	w := summarise(ops, bounds[n-2], bounds[n-1], slices, wl.perBusy)
	res.Attempted, res.Failed = w.attempted, w.failed
	res.WindowOps, res.SliceSpread = w.samples(), spread(w.rates)
	lateP99 := medianOfSlices(w.late, 0.99)
	if lateP99 > lateLimitMs {
		res.Warnings = append(res.Warnings, fmt.Sprintf("open-loop generator ran %.2f ms late at p99 (limit %.0f ms)", lateP99, lateLimitMs))
	}
	if w.attempted == 0 {
		res.Errors = append(res.Errors, "no operation completed inside the window")
	}
	res.Correct = w.failed == 0 && len(res.Errors) == 0

	before, after := snaps[n-2], snaps[n-1]
	m := res.Metrics
	if !cfg.trace {
		m["setup_s"] = median(setups)
		cpuAt[0], cpuAt[slices] = before.cpu, after.cpu
		var cpuPerGiB []float64
		for s, b := range w.bytes {
			if b > 0 {
				cpuPerGiB = append(cpuPerGiB, (cpuAt[s+1]-cpuAt[s])/(b/gib))
			}
		}
		m["throughput_mib_s"] = median(w.rates) / mib
		m["cpu_s_per_gib"] = median(cpuPerGiB)
		m["peak_rss_mib"] = peakRSSMiB()
		m["storage_overhead"] = float64(stored) / float64(r.userBytesStored())
		return res, nil
	}

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	spans := r.rec.all()
	if err := writeSpans(tracePath(cfg.out, wl.name), spans); err != nil {
		return nil, err
	}
	for name, v := range spanMetrics(spans, fixture.Defaults.K, wl.mixed) {
		m[name] = v
	}
	base := summarise(ops, bounds[0], bounds[1], 3, wl.perBusy)
	traced := summarise(ops, bounds[1], bounds[2], 3, wl.perBusy)
	// A closed loop shows the recorder's cost as lost throughput; the
	// open loop's throughput is its schedule's, so there it shows as
	// added median latency.
	m["loadgen.trace_overhead_pct"] = ratio(median(base.rates)-median(traced.rates), median(base.rates)) * 100
	if wl.mixed {
		p50 := median(flat(base.lat))
		m["loadgen.trace_overhead_pct"] = ratio(median(flat(traced.lat))-p50, p50) * 100
	}
	// What a user would see comes from the recorder-off part.
	m["loadgen.latency_p50_ms"] = medianOfSlices(base.lat, 0.50)
	m["loadgen.latency_p95_ms"] = medianOfSlices(base.lat, 0.95)
	m["loadgen.ttfb_p50_ms"] = medianOfSlices(base.ttfb, 0.50)
	m["loadgen.latency_p99_ms"] = percentile(flat(base.lat), 0.99)
	m["loadgen.late_ms_p99"] = lateP99
	m["loadgen.error_rate"] = ratio(float64(w.failed), float64(w.attempted))

	delta := func(name string) float64 { return after.reg.sums[name] - before.reg.sums[name] }
	perOp := func(name string) float64 { return ratio(delta(name), float64(w.attempted)) }
	m["stream.reconstructed_stripes_per_op"] = perOp("stream_reconstructed_total")
	m["stream.hedged_reads_per_op"] = perOp("stream_hedged_reads_total")
	m["stream.hedge_win_ratio"] = ratio(delta("stream_hedge_wins_total"), delta("stream_hedged_reads_total"))
	m["stream.retries_per_op"] = perOp("stream_retries_total")
	m["stream.stripe_latency_us_p50"] = histQuantile(before.reg, after.reg, "stream_stripe_latency_us", 0.5)
	useless, hits := delta("shardio_readahead_useless_total"), delta("shardio_readahead_hits_total")
	m["shardio.readahead_useless_ratio"] = ratio(useless, hits+useless)
	dropped, claimed := delta("shardio_late_blocks_dropped_total"), delta("shardio_late_blocks_claimed_total")
	m["shardio.late_blocks_dropped_ratio"] = ratio(dropped, dropped+claimed)
	m["shardio.breaker_trips"] = delta("shardio_breaker_trips_total")
	m["cluster.open_failures_per_op"] = perOp("cluster_open_failures_total")
	m["cluster.put_degraded"] = delta("cluster_put_degraded_total")
	m["node.store_puts"] = delta("node_store_puts_total")
	m["node.store_gets"] = delta("node_store_gets_total")
	m["runtime.alloc_bytes_per_user_byte"] = ratio(float64(after.alloc-before.alloc), w.totalBytes())
	m["runtime.gc_pause_ms_total"] = float64(after.gcPause-before.gcPause) / 1e6
	return res, nil
}

// ratio is a/b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
