package harness

import (
	"fmt"

	"dialga/internal/engine"
	"dialga/internal/mem"
	"dialga/internal/workload"
)

// Defaults shared across experiments (§5.1): m = 4 parity blocks, 1 KB
// blocks, PM source, AVX512, 3.3 GHz.
const (
	defaultM     = 4
	defaultBlock = 1024
)

func (r *Runner) kSweep() []int {
	if r.Quick {
		return []int{8, 24, 48}
	}
	return []int{4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 56, 64}
}

func (r *Runner) threadSweep() []int {
	if r.Quick {
		return []int{1, 4, 18}
	}
	return []int{1, 2, 4, 6, 8, 10, 12, 14, 16, 18}
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }

// BaseSpec returns the common configuration for a strategy run: the
// §5.1 testbed (PM source, hardware prefetcher on) with ISA-L-noPF
// mapped to ISA-L with the prefetcher off. Every figure and
// `dialga-bench -system` build their runs from it.
func BaseSpec(strat Strategy, k, m, block, threads int) RunSpec {
	s := RunSpec{
		K: k, M: m, BlockSize: block, Threads: threads,
		Source: mem.PM, HWP: true, Strategy: strat,
	}
	if strat == StratISALNoPF {
		s.HWP = false
		s.Strategy = StratISAL
	}
	return s
}

// Fig03 reproduces Figure 3: RS(12,8) encoding throughput and L3 cache
// miss cycles with data sourced from DRAM vs PM, hardware prefetcher
// off/on.
func (r *Runner) Fig03() (*Figure, error) {
	f := &Figure{
		ID:      "fig03",
		Title:   "RS(12,8) encoding by load source and HW prefetcher",
		XName:   "config",
		YName:   "throughput GB/s | miss cycles/load",
		XLabels: []string{"DRAM/pf-off", "DRAM/pf-on", "PM/pf-off", "PM/pf-on"},
	}
	for _, src := range []mem.DeviceKind{mem.DRAM, mem.PM} {
		for _, hwp := range []bool{false, true} {
			s := BaseSpec(StratISAL, 8, defaultM, defaultBlock, 1)
			s.Source = src
			s.HWP = hwp
			res, err := r.Run(s)
			if err != nil {
				return nil, err
			}
			cfg := r.Config(s)
			f.AddPoint("throughput", res.ThroughputGBps)
			f.AddPoint("missCyc/load", res.MissCyclesPerLoad(&cfg))
		}
	}
	return f, nil
}

// Fig04 reproduces Figure 4: RS(12,8) encoding throughput across CPU
// frequencies, PM vs DRAM, AVX512 vs AVX256 — the compute-vs-memory
// bottleneck separation.
func (r *Runner) Fig04() (*Figure, error) {
	freqs := []float64{1.0, 1.5, 2.0, 2.5, 3.0, 3.3}
	if r.Quick {
		freqs = []float64{1.0, 2.0, 3.3}
	}
	f := &Figure{
		ID:    "fig04",
		Title: "RS(12,8) encoding throughput vs CPU frequency",
		XName: "GHz",
		YName: "throughput GB/s",
	}
	for _, fr := range freqs {
		f.XLabels = append(f.XLabels, fmt.Sprintf("%.1f", fr))
		for _, src := range []mem.DeviceKind{mem.PM, mem.DRAM} {
			for _, simd := range []mem.SIMDWidth{mem.AVX512, mem.AVX256} {
				s := BaseSpec(StratISAL, 8, defaultM, defaultBlock, 1)
				s.Source = src
				s.Freq = fr
				s.SIMD = simd
				res, err := r.Run(s)
				if err != nil {
					return nil, err
				}
				f.AddPoint(fmt.Sprintf("%s/%s", src, simd), res.ThroughputGBps)
			}
		}
	}
	return f, nil
}

// Fig05 reproduces Figure 5: encoding throughput, useless hardware
// prefetch ratio, and L2 prefetch ratio as the stripe width k grows
// (m=4, 4 KB blocks) — the stream-table capacity cliff.
func (r *Runner) Fig05() (*Figure, error) {
	f := &Figure{
		ID:    "fig05",
		Title: "stripe-width sweep, 4KB blocks (stream-table capacity)",
		XName: "k",
		YName: "GB/s | ratio",
	}
	for _, k := range r.kSweep() {
		f.XLabels = append(f.XLabels, itoa(k))
		res, err := r.Run(BaseSpec(StratISAL, k, defaultM, 4096, 1))
		if err != nil {
			return nil, err
		}
		f.AddPoint("throughput", res.ThroughputGBps)
		f.AddPoint("uselessPF", res.UselessPrefetchRatio())
		f.AddPoint("l2PFratio", res.L2PrefetchRatio())
	}
	return f, nil
}

// Fig06 reproduces Figure 6: RS(28,24) throughput and PM media read
// amplification across block sizes, HW prefetcher on/off.
func (r *Runner) Fig06() (*Figure, error) {
	blocks := []int{256, 512, 1024, 2048, 3072, 4096, 5120}
	if r.Quick {
		blocks = []int{256, 1024, 4096}
	}
	f := &Figure{
		ID:    "fig06",
		Title: "RS(28,24) block-size sweep on PM",
		XName: "block",
		YName: "GB/s | media amplification",
	}
	for _, bs := range blocks {
		f.XLabels = append(f.XLabels, bytesLabel(bs))
		on, err := r.Run(BaseSpec(StratISAL, 24, defaultM, bs, 1))
		if err != nil {
			return nil, err
		}
		off, err := r.Run(BaseSpec(StratISALNoPF, 24, defaultM, bs, 1))
		if err != nil {
			return nil, err
		}
		f.AddPoint("tput/pf-on", on.ThroughputGBps)
		f.AddPoint("tput/pf-off", off.ThroughputGBps)
		f.AddPoint("mediaAmp/pf-on",
			float64(on.MediaReadBytes)/float64(on.EncodeReadBytes))
	}
	return f, nil
}

// Fig07 reproduces Figure 7: RS(28,24) multi-thread scalability with
// the HW prefetcher on vs off (4 KB blocks, the §3.2 default) — read
// buffer thrashing under concurrency.
func (r *Runner) Fig07() (*Figure, error) {
	f := &Figure{
		ID:    "fig07",
		Title: "RS(28,24) 4KB multi-thread scalability on PM",
		XName: "threads",
		YName: "aggregate GB/s",
	}
	for _, t := range r.threadSweep() {
		f.XLabels = append(f.XLabels, itoa(t))
		on, err := r.throughputAvg(BaseSpec(StratISAL, 24, defaultM, 4096, t))
		if err != nil {
			return nil, err
		}
		off, err := r.throughputAvg(BaseSpec(StratISALNoPF, 24, defaultM, 4096, t))
		if err != nil {
			return nil, err
		}
		f.AddPoint("pf-on", on)
		f.AddPoint("pf-off", off)
	}
	return f, nil
}

// strategies returns the §5 comparison set for a given k (Zerasure has
// no result beyond its search horizon, mirroring the paper's missing
// wide-stripe points).
func comparedStrategies() []Strategy {
	return []Strategy{StratZerasure, StratCerasure, StratISAL, StratISALD, StratDialga}
}

func (r *Runner) runStrategy(strat Strategy, k, m, block, threads int) (float64, error) {
	s := BaseSpec(strat, k, m, block, threads)
	return r.throughputAvg(s)
}

// throughputAvg runs the spec Repeats times (multi-threaded runs only)
// with varied layout seeds and returns the mean throughput.
func (r *Runner) throughputAvg(s RunSpec) (float64, error) {
	n := r.Repeats
	if n < 1 || s.Threads <= 1 {
		n = 1
	}
	var sum float64
	for i := 0; i < n; i++ {
		s.Seed = int64(i * 1009)
		res, err := r.Run(s)
		if err != nil {
			return nan, err
		}
		sum += res.ThroughputGBps
	}
	return sum / float64(n), nil
}

// Fig10 reproduces Figure 10: encoding throughput across stripe widths
// for all five systems (m=4, 1 KB blocks).
func (r *Runner) Fig10() (*Figure, error) {
	f := &Figure{
		ID:    "fig10",
		Title: "encoding throughput vs stripe width (m=4, 1KB)",
		XName: "k",
		YName: "GB/s",
	}
	for _, k := range r.kSweep() {
		f.XLabels = append(f.XLabels, itoa(k))
		for _, st := range comparedStrategies() {
			if st == StratZerasure && k > 32 {
				f.AddPoint(string(st), nan)
				continue
			}
			y, err := r.runStrategy(st, k, defaultM, defaultBlock, 1)
			if err != nil {
				return nil, err
			}
			f.AddPoint(string(st), y)
		}
	}
	f.Notes = append(f.Notes, "Zerasure is missing for k>32: its annealing search does not converge (§5.2.1)")
	return f, nil
}

// Fig11 reproduces Figure 11: encoding throughput across parity counts
// m for narrow, medium and wide stripes (1 KB blocks).
func (r *Runner) Fig11() (*Figure, error) {
	ms := []int{2, 4, 6, 8}
	ks := []int{8, 24, 48}
	if r.Quick {
		ms = []int{2, 8}
		ks = []int{8, 48}
	}
	f := &Figure{
		ID:    "fig11",
		Title: "encoding throughput vs parity count (1KB blocks)",
		XName: "k/m",
		YName: "GB/s",
	}
	for _, k := range ks {
		for _, m := range ms {
			f.XLabels = append(f.XLabels, fmt.Sprintf("k%d/m%d", k, m))
			for _, st := range comparedStrategies() {
				if st == StratZerasure && k > 32 {
					f.AddPoint(string(st), nan)
					continue
				}
				y, err := r.runStrategy(st, k, m, defaultBlock, 1)
				if err != nil {
					return nil, err
				}
				f.AddPoint(string(st), y)
			}
		}
	}
	return f, nil
}

// Fig12 reproduces Figure 12: encoding throughput across block sizes
// for RS(12,8) and RS(28,24).
func (r *Runner) Fig12() (*Figure, error) {
	blocks := []int{256, 512, 1024, 2048, 4096, 5120}
	if r.Quick {
		blocks = []int{256, 1024, 4096}
	}
	f := &Figure{
		ID:    "fig12",
		Title: "encoding throughput vs block size",
		XName: "k/block",
		YName: "GB/s",
	}
	for _, k := range []int{8, 24} {
		for _, bs := range blocks {
			f.XLabels = append(f.XLabels, fmt.Sprintf("k%d/%s", k, bytesLabel(bs)))
			for _, st := range comparedStrategies() {
				y, err := r.runStrategy(st, k, defaultM, bs, 1)
				if err != nil {
					return nil, err
				}
				f.AddPoint(string(st), y)
			}
		}
	}
	return f, nil
}

// Fig13 reproduces Figure 13: multi-thread scalability of ISA-L,
// the decompose strategy and DIALGA for RS(28,24)@1KB, RS(28,24)@4KB
// and RS(52,48)@1KB.
func (r *Runner) Fig13() (*Figure, error) {
	type panel struct {
		k, block int
	}
	panels := []panel{{24, 1024}, {24, 4096}, {48, 1024}}
	f := &Figure{
		ID:    "fig13",
		Title: "multi-thread encoding scalability",
		XName: "cfg/threads",
		YName: "aggregate GB/s",
	}
	for _, p := range panels {
		for _, t := range r.threadSweep() {
			f.XLabels = append(f.XLabels, fmt.Sprintf("k%d/%s/t%d", p.k, bytesLabel(p.block), t))
			for _, st := range []Strategy{StratISAL, StratISALNoPF, StratISALD, StratDialga} {
				y, err := r.runStrategy(st, p.k, defaultM, p.block, t)
				if err != nil {
					return nil, err
				}
				f.AddPoint(string(st), y)
			}
		}
	}
	return f, nil
}

// Fig14 reproduces Figure 14: decoding throughput across stripe widths.
// Decoding reads k survivor blocks and rebuilds m missing ones; for
// table-lookup codecs the memory pattern equals encoding, while
// XOR-based decode matrices are denser than their optimized encode
// matrices (§5.4).
func (r *Runner) Fig14() (*Figure, error) {
	f := &Figure{
		ID:    "fig14",
		Title: "decoding throughput vs stripe width (m=4 erasures, 1KB)",
		XName: "k",
		YName: "GB/s",
	}
	for _, k := range r.kSweep() {
		f.XLabels = append(f.XLabels, itoa(k))
		for _, st := range comparedStrategies() {
			if st == StratZerasure && k > 32 {
				f.AddPoint(string(st), nan)
				continue
			}
			y, err := r.runDecode(st, k, defaultM, defaultBlock)
			if err != nil {
				return nil, err
			}
			f.AddPoint(string(st), y)
		}
	}
	return f, nil
}

// Fig15 reproduces Figure 15: AVX256 vs AVX512 encoding throughput.
func (r *Runner) Fig15() (*Figure, error) {
	f := &Figure{
		ID:    "fig15",
		Title: "encoding throughput by SIMD width (1KB blocks)",
		XName: "k/simd",
		YName: "GB/s",
	}
	for _, k := range []int{8, 24} {
		for _, simd := range []mem.SIMDWidth{mem.AVX512, mem.AVX256} {
			f.XLabels = append(f.XLabels, fmt.Sprintf("k%d/%s", k, simd))
			for _, st := range []Strategy{StratCerasure, StratISAL, StratDialga} {
				s := BaseSpec(st, k, defaultM, defaultBlock, 1)
				s.SIMD = simd
				res, err := r.Run(s)
				if err != nil {
					return nil, err
				}
				f.AddPoint(string(st), res.ThroughputGBps)
			}
		}
	}
	f.Notes = append(f.Notes, "Zerasure/Cerasure support only AVX256 in the original; here both run at the configured width")
	return f, nil
}

// Fig16 reproduces Figure 16: LRC(k, m, l) encoding throughput. The
// stripe writes m global parities plus l local XOR parities; the higher
// store fraction shrinks DIALGA's edge (§5.6).
func (r *Runner) Fig16() (*Figure, error) {
	type lrcCfg struct{ k, m, l int }
	cfgs := []lrcCfg{{8, 4, 2}, {24, 4, 4}, {48, 4, 4}}
	if r.Quick {
		cfgs = []lrcCfg{{8, 4, 2}, {48, 4, 4}}
	}
	f := &Figure{
		ID:    "fig16",
		Title: "LRC encoding throughput (1KB blocks)",
		XName: "LRC(k,m,l)",
		YName: "GB/s",
	}
	for _, c := range cfgs {
		f.XLabels = append(f.XLabels, fmt.Sprintf("(%d,%d,%d)", c.k, c.m, c.l))
		for _, st := range []Strategy{StratCerasure, StratISAL, StratISALD, StratDialga} {
			y, err := r.runLRC(st, c.k, c.m, c.l)
			if err != nil {
				return nil, err
			}
			f.AddPoint(string(st), y)
		}
	}
	return f, nil
}

// Fig17 reproduces Figure 17: LLC miss cycles per load, normalized, for
// three stripe widths.
func (r *Runner) Fig17() (*Figure, error) {
	f := &Figure{
		ID:    "fig17",
		Title: "memory stall cycles per load (1KB blocks)",
		XName: "k",
		YName: "stall cycles/load",
	}
	for _, k := range []int{8, 24, 48} {
		f.XLabels = append(f.XLabels, itoa(k))
		for _, st := range []Strategy{StratISAL, StratISALD, StratDialga} {
			s := BaseSpec(st, k, defaultM, defaultBlock, 1)
			res, err := r.Run(s)
			if err != nil {
				return nil, err
			}
			cfg := r.Config(s)
			f.AddPoint(string(st), res.StallCyclesPerLoad(&cfg))
		}
	}
	f.Notes = append(f.Notes, "stall cycles include residual waits of prefetched streams, matching the paper's normalization intent")
	return f, nil
}

// Fig18 reproduces Figure 18: the ablation breakdown. Vanilla disables
// both prefetchers; +SW adds pipelined software prefetching (hill-
// climbed distance); +HW re-enables the hardware prefetcher; +BF adds
// the read-buffer-friendly scheme.
func (r *Runner) Fig18() (*Figure, error) {
	f := &Figure{
		ID:    "fig18",
		Title: "DIALGA breakdown, 1KB single-thread",
		XName: "k",
		YName: "GB/s",
	}
	for _, k := range []int{8, 24, 48} {
		f.XLabels = append(f.XLabels, itoa(k))
		for _, v := range []struct {
			name    string
			hwp, sw bool
			bf      bool
		}{
			{"Vanilla", false, false, false},
			{"+SW", false, true, false},
			{"+HW", true, true, false},
			{"+BF", true, true, true},
		} {
			s := BaseSpec(StratDialga, k, defaultM, defaultBlock, 1)
			s.HWP = v.hwp
			y, err := r.runBreakdown(s, v.sw, v.bf)
			if err != nil {
				return nil, err
			}
			f.AddPoint(v.name, y)
		}
	}
	return f, nil
}

// Fig19 reproduces Figure 19: read traffic at the encode, memory
// controller and PM media layers, normalized by the encode-layer
// traffic, for ISA-L and DIALGA at 1 thread (low pressure) and 18
// threads (high pressure).
func (r *Runner) Fig19() (*Figure, error) {
	f := &Figure{
		ID:    "fig19",
		Title: "read traffic per layer, RS(28,24) 1KB",
		XName: "pressure/strategy",
		YName: "bytes normalized to encode layer",
	}
	for _, t := range []int{1, 18} {
		for _, st := range []Strategy{StratISAL, StratDialga} {
			f.XLabels = append(f.XLabels, fmt.Sprintf("t%d/%s", t, st))
			s := BaseSpec(st, 24, defaultM, defaultBlock, t)
			res, err := r.Run(s)
			if err != nil {
				return nil, err
			}
			enc := float64(res.EncodeReadBytes)
			f.AddPoint("encode", 1)
			f.AddPoint("controller", float64(res.CtrlReadBytes)/enc)
			f.AddPoint("media", float64(res.MediaReadBytes)/enc)
		}
	}
	return f, nil
}

// Gen01 is the §6 "Generality" experiment: the same strategies on the
// Optane profile and on a flash-backed CMM-H-style profile (4 KiB media
// lines behind a multi-MB internal DRAM buffer). DIALGA's mechanisms
// target the structure — internal buffer + granularity mismatch + high
// miss latency — so its advantage should transfer.
func (r *Runner) Gen01() (*Figure, error) {
	f := &Figure{
		ID:    "gen01",
		Title: "generality: Optane vs CMM-H-style device (RS(28,24), 1KB)",
		XName: "device/threads",
		YName: "GB/s",
	}
	profiles := []struct {
		name string
		cfg  func() mem.Config
	}{
		{"Optane", nil},
		{"CMM-H", mem.CMMHConfig},
	}
	for _, p := range profiles {
		for _, threads := range []int{1, 8} {
			f.XLabels = append(f.XLabels, fmt.Sprintf("%s/t%d", p.name, threads))
			for _, st := range []Strategy{StratISALNoPF, StratISAL, StratDialga} {
				s := BaseSpec(st, 24, defaultM, defaultBlock, threads)
				s.BaseConfig = p.cfg
				res, err := r.Run(s)
				if err != nil {
					return nil, err
				}
				name := string(st)
				if st == StratISALNoPF {
					name = "ISA-L-noPF"
				}
				f.AddPoint(name, res.ThroughputGBps)
			}
		}
	}
	f.Notes = append(f.Notes, "CMM-H profile: 4KB media lines, 4MB internal buffer, 140ns hit / 1800ns miss")
	return f, nil
}

// Mix01 is a motivation experiment beyond the paper's figures: a
// production-like workload whose object (block) sizes vary within one
// run (§3.2 cites the Twitter cache study for exactly this variance).
// Each thread encodes consecutive segments of 4 KB, 1 KB, 512 B and
// 256 B blocks; DIALGA's coordinator re-tunes at each segment via its
// fluctuation re-trigger.
func (r *Runner) Mix01() (*Figure, error) {
	f := &Figure{
		ID:    "mix01",
		Title: "mixed object sizes (RS(28,24); 4KB/1KB/512B/256B segments)",
		XName: "threads",
		YName: "GB/s",
	}
	sizes := []int{4096, 1024, 512, 256}
	for _, threads := range []int{1, 8} {
		f.XLabels = append(f.XLabels, itoa(threads))
		for _, st := range []Strategy{StratISALNoPF, StratISAL, StratDialga} {
			s := BaseSpec(st, 24, defaultM, sizes[0], threads)
			res, err := r.RunWith(s, func(l *workload.Layout, cfg *mem.Config) (engine.Program, error) {
				// l's thread id is implicit in its addresses; carve
				// per-segment layouts from disjoint pseudo-thread
				// regions derived from the base layout's region.
				return r.mixedProgram(s, l, cfg, sizes)
			})
			if err != nil {
				return nil, err
			}
			name := string(st)
			if st == StratISALNoPF {
				name = "ISA-L-noPF"
			}
			f.AddPoint(name, res.ThroughputGBps)
		}
	}
	return f, nil
}

// figures is every reproducible figure in paper order, plus the §6
// generality experiment and the mixed-size motivation experiment.
var figures = []struct {
	id  string
	run func(*Runner) (*Figure, error)
}{
	{"fig03", (*Runner).Fig03}, {"fig04", (*Runner).Fig04}, {"fig05", (*Runner).Fig05},
	{"fig06", (*Runner).Fig06}, {"fig07", (*Runner).Fig07}, {"fig10", (*Runner).Fig10},
	{"fig11", (*Runner).Fig11}, {"fig12", (*Runner).Fig12}, {"fig13", (*Runner).Fig13},
	{"fig14", (*Runner).Fig14}, {"fig15", (*Runner).Fig15}, {"fig16", (*Runner).Fig16},
	{"fig17", (*Runner).Fig17}, {"fig18", (*Runner).Fig18}, {"fig19", (*Runner).Fig19},
	{"gen01", (*Runner).Gen01}, {"mix01", (*Runner).Mix01},
}

// FigureIDs lists the ids of every reproducible figure, in order.
var FigureIDs = func() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}()

// ByID runs a single figure by its id (one of FigureIDs).
func (r *Runner) ByID(id string) (*Figure, error) {
	for _, f := range figures {
		if f.id == id {
			return f.run(r)
		}
	}
	return nil, fmt.Errorf("harness: unknown figure %q", id)
}
