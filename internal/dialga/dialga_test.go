package dialga

import (
	"testing"

	"dialga/internal/engine"
	"dialga/internal/mem"
	"dialga/internal/workload"
)

func testLayout(t *testing.T, k, m, block, totalKB, thread int) *workload.Layout {
	t.Helper()
	l, err := workload.New(workload.Config{
		K: k, M: m, BlockSize: block,
		TotalDataBytes: totalKB << 10,
		Seed:           3,
	}, thread)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func runThreads(t *testing.T, threads int, mk func(thread int) engine.Program) (*engine.Result, []*Scheduler) {
	t.Helper()
	cfg := mem.DefaultConfig()
	e, err := engine.New(cfg, mem.PM)
	if err != nil {
		t.Fatal(err)
	}
	var scheds []*Scheduler
	for i := 0; i < threads; i++ {
		p := mk(i)
		if s, ok := p.(*Scheduler); ok {
			scheds = append(scheds, s)
		}
		e.AddThread(p)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, scheds
}

func TestMaxDistanceEq1(t *testing.T) {
	// 384 XPLines, 1 thread, k=24: 16 windows of k tasks.
	if got := maxDistance(384, 1, 24); got != 16*24 {
		t.Fatalf("maxDistance = %d, want %d", got, 16*24)
	}
	// 18 threads: less than one window per thread: clamped to k.
	if got := maxDistance(384, 18, 24); got != 24 {
		t.Fatalf("maxDistance = %d, want 24", got)
	}
	// DRAM (no buffer): unconstrained.
	if got := maxDistance(0, 4, 24); got < 1<<20 {
		t.Fatalf("maxDistance on DRAM should be unconstrained, got %d", got)
	}
	// Degenerate inputs do not panic.
	if maxDistance(384, 0, 24) < 1 || maxDistance(384, 1, 0) < 1 {
		t.Fatal("degenerate maxDistance")
	}
}

func TestSchedulerBeatsPlainISAL(t *testing.T) {
	// DIALGA with hill climbing must outperform the plain ISA-L kernel
	// on the same workload (k=24, 1KB, single thread).
	resD, scheds := runThreads(t, 1, func(i int) engine.Program {
		return New(testLayout(t, 24, 4, 1024, 8<<10, i), cfgPtr(), Options{})
	})
	resP, _ := runThreads(t, 1, func(i int) engine.Program {
		l := testLayout(t, 24, 4, 1024, 8<<10, i)
		return plainProgram(l)
	})
	if resD.ThroughputGBps <= resP.ThroughputGBps {
		t.Fatalf("DIALGA (%v GB/s) did not beat plain ISA-L (%v GB/s)",
			resD.ThroughputGBps, resP.ThroughputGBps)
	}
	s := scheds[0]
	if !s.prog.Params.SWPrefetch {
		t.Fatal("low-pressure policy should enable software prefetching")
	}
	if s.prog.Params.Shuffle {
		t.Fatal("low-pressure policy should keep the HW prefetcher (no shuffle)")
	}
}

func TestHillClimbingMovesDistance(t *testing.T) {
	_, scheds := runThreads(t, 1, func(i int) engine.Program {
		return New(testLayout(t, 8, 4, 1024, 8<<10, i), cfgPtr(), Options{})
	})
	s := scheds[0]
	// At k=8 the optimal distance is far above the d=k start; the
	// climber must have moved.
	if s.Distance() <= 8 {
		t.Fatalf("hill climbing stuck at initial distance %d", s.Distance())
	}
}

func TestHillClimbingDisabled(t *testing.T) {
	opts := Options{DisableHillClimbing: true}
	_, scheds := runThreads(t, 1, func(i int) engine.Program {
		return New(testLayout(t, 8, 4, 1024, 4<<10, i), cfgPtr(), opts)
	})
	if d := scheds[0].Distance(); d != 8 {
		t.Fatalf("distance moved to %d with hill climbing disabled", d)
	}
}

func TestHighConcurrencyTrialsHighPressureMode(t *testing.T) {
	const threads = 14 // above the threshold of 12
	_, scheds := runThreads(t, threads, func(i int) engine.Program {
		return New(testLayout(t, 24, 4, 1024, 4<<10, i), cfgPtr(), Options{})
	})
	s := scheds[0]
	// Above the threshold the coordinator must have trialed the
	// shuffle+XPLine entry point (it keeps whichever wins the window
	// comparison).
	if s.modeTrials == 0 {
		t.Fatal("no entry-point trial above the thread threshold")
	}
	// Eq. 1 must cap the distance regardless of the winning mode.
	if s.Distance() > maxDistance(384, threads, 24) {
		t.Fatalf("distance %d exceeds the Eq. 1 cap", s.Distance())
	}
}

func TestLowConcurrencyNeverTrials(t *testing.T) {
	_, scheds := runThreads(t, 2, func(i int) engine.Program {
		return New(testLayout(t, 24, 4, 1024, 4<<10, i), cfgPtr(), Options{})
	})
	s := scheds[0]
	if s.prog.Params.Shuffle || s.HighMode() {
		t.Fatal("low concurrency must stay on the low-pressure entry point")
	}
}

func TestDisableHWManagementNeverShuffles(t *testing.T) {
	opts := Options{DisableHWManagement: true}
	_, scheds := runThreads(t, 14, func(i int) engine.Program {
		return New(testLayout(t, 24, 4, 1024, 2<<10, i), cfgPtr(), opts)
	})
	if scheds[0].modeTrials != 0 {
		t.Fatal("HW management disabled but a mode trial ran")
	}
	if scheds[0].prog.Params.Shuffle {
		t.Fatal("HW management disabled but shuffle engaged")
	}
}

func TestWideStripeLeavesPrefetcherAlone(t *testing.T) {
	_, scheds := runThreads(t, 1, func(i int) engine.Program {
		return New(testLayout(t, 48, 4, 1024, 4<<10, i), cfgPtr(), Options{})
	})
	if scheds[0].prog.Params.Shuffle {
		t.Fatal("wide stripes need no shuffle: the stream table self-disables (§4.1.2)")
	}
}

func TestDisableSWPrefetchOption(t *testing.T) {
	opts := Options{DisableSWPrefetch: true}
	res, scheds := runThreads(t, 1, func(i int) engine.Program {
		return New(testLayout(t, 8, 4, 1024, 4<<10, i), cfgPtr(), opts)
	})
	if scheds[0].prog.Params.SWPrefetch {
		t.Fatal("SW prefetch not disabled")
	}
	var sw uint64
	for _, th := range res.Threads {
		sw += th.SWPrefetches
	}
	if sw != 0 {
		t.Fatalf("%d software prefetches issued with SW disabled", sw)
	}
}

func TestTraceEvents(t *testing.T) {
	var events []TraceEvent
	_, _ = runThreads(t, 1, func(i int) engine.Program {
		s := New(testLayout(t, 8, 4, 1024, 4<<10, i), cfgPtr(), Options{})
		s.Trace = func(ev TraceEvent) { events = append(events, ev) }
		return s
	})
	if len(events) == 0 {
		t.Fatal("no trace events emitted")
	}
	var lastNS float64
	settled := false
	for _, ev := range events {
		if ev.NowNS <= lastNS {
			t.Fatal("trace time not monotone")
		}
		lastNS = ev.NowNS
		if ev.WindowGBps <= 0 {
			t.Fatal("trace window throughput not positive")
		}
		if ev.Distance < 1 {
			t.Fatal("trace distance invalid")
		}
		if ev.Phase == "settled" {
			settled = true
		}
	}
	if !settled {
		t.Fatal("tuner never settled on a 4MB run")
	}
}

func TestSchedulerDataBytes(t *testing.T) {
	l := testLayout(t, 8, 4, 1024, 4<<10, 0)
	s := New(l, cfgPtr(), Options{})
	if s.DataBytes() != l.DataBytes() {
		t.Fatal("DataBytes mismatch")
	}
}

func TestSchedulerHighPressureBeatsISALAtScale(t *testing.T) {
	// The pressure effects (read-buffer thrash, Eq. 1) need a real
	// working set to develop.
	const threads = 18
	mkD := func(i int) engine.Program {
		return New(testLayout(t, 24, 4, 1024, 8<<10, i), cfgPtr(), Options{})
	}
	mkP := func(i int) engine.Program {
		return plainProgram(testLayout(t, 24, 4, 1024, 8<<10, i))
	}
	resD, _ := runThreads(t, threads, mkD)
	resP, _ := runThreads(t, threads, mkP)
	if resD.ThroughputGBps <= resP.ThroughputGBps {
		t.Fatalf("DIALGA at %d threads (%v) did not beat ISA-L (%v)",
			threads, resD.ThroughputGBps, resP.ThroughputGBps)
	}
	// Media amplification must be lower too (Fig. 19b).
	ampD := float64(resD.MediaReadBytes) / float64(resD.EncodeReadBytes)
	ampP := float64(resP.MediaReadBytes) / float64(resP.EncodeReadBytes)
	if ampD >= ampP {
		t.Fatalf("DIALGA amplification %v not below ISA-L %v", ampD, ampP)
	}
}

// helpers

var testCfg = mem.DefaultConfig()

func cfgPtr() *mem.Config { return &testCfg }

func plainProgram(l *workload.Layout) engine.Program {
	return newPlain(l)
}
