package engine

import (
	"testing"

	"dialga/internal/mem"
)

// seqProgram loads `lines` consecutive cachelines starting at base,
// `perOp` per op, with optional compute and stores.
type seqProgram struct {
	base    mem.Addr
	lines   int
	perOp   int
	compute float64
	store   bool
	pos     int
	tel     *Telemetry
}

func (p *seqProgram) DataBytes() uint64 { return uint64(p.lines) * mem.CachelineSize }

func (p *seqProgram) Attach(t *Telemetry) { p.tel = t }

func (p *seqProgram) Next(op *Op) bool {
	if p.pos >= p.lines {
		return false
	}
	n := p.perOp
	if p.pos+n > p.lines {
		n = p.lines - p.pos
	}
	for i := 0; i < n; i++ {
		a := p.base + mem.Addr((p.pos+i)*mem.CachelineSize)
		op.Loads = append(op.Loads, a)
		if p.store {
			op.Stores = append(op.Stores, a+(1<<30))
		}
	}
	op.ComputeCycles = p.compute
	p.pos += n
	return true
}

func run(t *testing.T, cfg mem.Config, kind mem.DeviceKind, progs ...Program) *Result {
	t.Helper()
	e, err := New(cfg, kind)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		e.AddThread(p)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNoThreads(t *testing.T) {
	e, _ := New(mem.DefaultConfig(), mem.DRAM)
	if _, err := e.Run(); err == nil {
		t.Fatal("empty engine ran")
	}
}

func TestInvalidConfig(t *testing.T) {
	cfg := mem.DefaultConfig()
	cfg.Channels = 0
	if _, err := New(cfg, mem.PM); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSequentialDRAMFasterThanPM(t *testing.T) {
	cfg := mem.DefaultConfig()
	cfg.HWPrefetchEnabled = false
	mk := func() *seqProgram { return &seqProgram{base: 0, lines: 4096, perOp: 8} }
	dram := run(t, cfg, mem.DRAM, mk())
	pm := run(t, cfg, mem.PM, mk())
	if dram.ThroughputGBps <= pm.ThroughputGBps {
		t.Fatalf("DRAM (%v GB/s) not faster than PM (%v GB/s)", dram.ThroughputGBps, pm.ThroughputGBps)
	}
}

func TestHWPrefetchImprovesSequential(t *testing.T) {
	for _, kind := range []mem.DeviceKind{mem.DRAM, mem.PM} {
		cfg := mem.DefaultConfig()
		cfg.HWPrefetchEnabled = false
		off := run(t, cfg, kind, &seqProgram{base: 0, lines: 8192, perOp: 8})
		cfg.HWPrefetchEnabled = true
		on := run(t, cfg, kind, &seqProgram{base: 0, lines: 8192, perOp: 8})
		if on.ThroughputGBps <= off.ThroughputGBps {
			t.Fatalf("%v: prefetch on (%v) not faster than off (%v)",
				kind, on.ThroughputGBps, off.ThroughputGBps)
		}
		if on.PF.Issued == 0 {
			t.Fatal("no prefetches issued on sequential stream")
		}
	}
}

func TestCacheHitsOnRepeatedAccess(t *testing.T) {
	cfg := mem.DefaultConfig()
	// Two passes over a small (L1-resident) region.
	p := &seqProgram{base: 0, lines: 64, perOp: 8}
	e, _ := New(cfg, mem.PM)
	e.AddThread(p)
	res1, _ := e.Run()
	miss1 := res1.L1.Misses

	q1 := &seqProgram{base: 0, lines: 64, perOp: 8}
	q2 := &seqProgram{base: 0, lines: 64, perOp: 8}
	e2, _ := New(cfg, mem.PM)
	th := e2.AddThread(&chain{a: q1, b: q2})
	res2, _ := e2.Run()
	_ = th
	if res2.L1.Misses >= 2*miss1 {
		t.Fatalf("second pass did not hit cache: %d misses vs %d first-pass", res2.L1.Misses, miss1)
	}
}

type chain struct {
	a, b Program
}

func (c *chain) DataBytes() uint64 { return c.a.DataBytes() + c.b.DataBytes() }
func (c *chain) Next(op *Op) bool {
	if c.a.Next(op) {
		return true
	}
	return c.b.Next(op)
}

func TestMultiThreadContention(t *testing.T) {
	cfg := mem.DefaultConfig()
	cfg.HWPrefetchEnabled = false
	single := run(t, cfg, mem.PM, &seqProgram{base: 0, lines: 8192, perOp: 8})

	var progs []Program
	for i := 0; i < 16; i++ {
		progs = append(progs, &seqProgram{base: mem.Addr(uint64(i) << 34), lines: 8192, perOp: 8})
	}
	many := run(t, cfg, mem.PM, progs...)
	// Aggregate throughput grows but per-thread latency rises under
	// contention.
	if many.ThroughputGBps <= single.ThroughputGBps {
		t.Fatalf("16 threads (%v GB/s) not faster than 1 (%v GB/s)",
			many.ThroughputGBps, single.ThroughputGBps)
	}
	if many.AvgLoadLatencyNS() <= single.AvgLoadLatencyNS() {
		t.Fatalf("contention did not raise load latency: %v vs %v",
			many.AvgLoadLatencyNS(), single.AvgLoadLatencyNS())
	}
	if many.ThroughputGBps > 16*single.ThroughputGBps {
		t.Fatal("scaling beyond linear is impossible")
	}
}

func TestSWPrefetchHidesLatency(t *testing.T) {
	cfg := mem.DefaultConfig()
	cfg.HWPrefetchEnabled = false
	plain := run(t, cfg, mem.PM, &seqProgram{base: 0, lines: 8192, perOp: 8})
	pf := run(t, cfg, mem.PM, &swPrefProgram{seqProgram{base: 0, lines: 8192, perOp: 8}, 32})
	if pf.ThroughputGBps <= plain.ThroughputGBps {
		t.Fatalf("software prefetch (%v) not faster than plain (%v)",
			pf.ThroughputGBps, plain.ThroughputGBps)
	}
	var sw uint64
	for _, th := range pf.Threads {
		sw += th.SWPrefetches
	}
	if sw == 0 {
		t.Fatal("no software prefetches recorded")
	}
}

type swPrefProgram struct {
	seqProgram
	dist int
}

func (p *swPrefProgram) Next(op *Op) bool {
	start := p.pos
	if !p.seqProgram.Next(op) {
		return false
	}
	for i := 0; i < len(op.Loads); i++ {
		tgt := start + i + p.dist
		if tgt < p.lines {
			op.SWPrefetches = append(op.SWPrefetches, p.base+mem.Addr(tgt*mem.CachelineSize))
		}
	}
	return true
}

func TestComputeScalesWithFrequency(t *testing.T) {
	mk := func() *seqProgram { return &seqProgram{base: 0, lines: 2048, perOp: 8, compute: 500} }
	slow := mem.DefaultConfig()
	slow.CPUFreqGHz = 1.0
	fast := mem.DefaultConfig()
	fast.CPUFreqGHz = 3.3
	rs := run(t, slow, mem.DRAM, mk())
	rf := run(t, fast, mem.DRAM, mk())
	if rf.ElapsedNS >= rs.ElapsedNS {
		t.Fatal("higher frequency did not shorten a compute-heavy run")
	}
}

func TestStoresProduceWriteTraffic(t *testing.T) {
	cfg := mem.DefaultConfig()
	res := run(t, cfg, mem.PM, &seqProgram{base: 0, lines: 1024, perOp: 8, store: true})
	if res.Dev.CtrlWriteBytes != 1024*mem.CachelineSize {
		t.Fatalf("ctrl write bytes = %d", res.Dev.CtrlWriteBytes)
	}
	if res.Dev.MediaWriteBytes == 0 {
		t.Fatal("no media writes")
	}
}

func TestTelemetryAttachAndCounters(t *testing.T) {
	cfg := mem.DefaultConfig()
	p := &seqProgram{base: 0, lines: 512, perOp: 8}
	e, _ := New(cfg, mem.PM)
	e.AddThread(p)
	if p.tel == nil {
		t.Fatal("telemetry not attached")
	}
	if p.tel.ThreadCount() != 1 {
		t.Fatal("thread count wrong")
	}
	if p.tel.ReadBufferCapacityLines() != cfg.PMReadBufBytes/mem.XPLineSize {
		t.Fatal("buffer capacity wrong")
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if p.tel.Loads() != 512 {
		t.Fatalf("telemetry loads = %d", p.tel.Loads())
	}
	if p.tel.LoadLatencySumNS() <= 0 {
		t.Fatal("no latency recorded")
	}
	if p.tel.NowNS() <= 0 {
		t.Fatal("clock did not advance")
	}
}

func TestResultMetrics(t *testing.T) {
	cfg := mem.DefaultConfig()
	res := run(t, cfg, mem.PM, &seqProgram{base: 0, lines: 4096, perOp: 8})
	if res.DataBytes != 4096*mem.CachelineSize {
		t.Fatal("DataBytes wrong")
	}
	if res.EncodeReadBytes != res.DataBytes {
		t.Fatal("encode-layer traffic should equal one load per line")
	}
	if res.CtrlReadBytes == 0 || res.MediaReadBytes < res.CtrlReadBytes {
		t.Fatalf("layer traffic inconsistent: ctrl=%d media=%d", res.CtrlReadBytes, res.MediaReadBytes)
	}
	if res.MissCyclesPerLoad(&cfg) <= 0 {
		t.Fatal("no miss cycles on a streaming run")
	}
	if res.ThroughputGBps <= 0 || res.ElapsedNS <= 0 {
		t.Fatal("throughput/elapsed not computed")
	}
}

func TestSequence(t *testing.T) {
	cfg := mem.DefaultConfig()
	a := &seqProgram{base: 0, lines: 256, perOp: 8}
	b := &seqProgram{base: 1 << 30, lines: 128, perOp: 8}
	seq := NewSequence(a, b)
	if seq.DataBytes() != (256+128)*mem.CachelineSize {
		t.Fatal("Sequence DataBytes wrong")
	}
	e, _ := New(cfg, mem.PM)
	e.AddThread(seq)
	if a.tel == nil || b.tel == nil {
		t.Fatal("Sequence did not propagate telemetry")
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var loads uint64
	for _, th := range res.Threads {
		loads += th.Loads
	}
	if loads != 384 {
		t.Fatalf("sequence ran %d loads, want 384", loads)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() []Program {
		var ps []Program
		for i := 0; i < 4; i++ {
			ps = append(ps, &seqProgram{base: mem.Addr(uint64(i) << 34), lines: 2048, perOp: 8})
		}
		return ps
	}
	cfg := mem.DefaultConfig()
	a := run(t, cfg, mem.PM, mk()...)
	b := run(t, cfg, mem.PM, mk()...)
	if a.ElapsedNS != b.ElapsedNS || a.Dev != b.Dev {
		t.Fatal("engine is not deterministic")
	}
}
