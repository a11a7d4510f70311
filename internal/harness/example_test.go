package harness_test

import (
	"fmt"
	"log"

	"dialga/internal/dialga"
	"dialga/internal/engine"
	"dialga/internal/harness"
	"dialga/internal/mem"
	"dialga/internal/workload"
)

// pmSpec is an RS(k+m, k) encode of 1 KiB blocks scattered over
// simulated PM on the given number of threads, with the L2 stream
// prefetcher on.
func pmSpec(k, m, threads int, st harness.Strategy) harness.RunSpec {
	return harness.RunSpec{
		K: k, M: m, BlockSize: 1024, Threads: threads,
		Source: mem.PM, HWP: true, Placement: workload.Scattered,
		Strategy: st, Seed: 1,
	}
}

func run(r *harness.Runner, s harness.RunSpec) *engine.Result {
	res, err := r.Run(s)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// The wide-stripe story (Obs. 3, §5.2.1): once the stripe width k
// passes the 32 streams the L2 stream prefetcher tracks, ISA-L's
// hardware prefetches all but stop and its throughput collapses.
// DIALGA's pipelined software prefetching does not depend on the
// stream table and keeps wide stripes fast. Wide stripes matter
// because they cut storage overhead: VAST-style systems run k > 100.
func ExampleRunner_Run_wideStripe() {
	r := &harness.Runner{Quick: true}
	var isal32 float64
	fmt.Println("k   prefetcher tracks  DIALGA > 2x ISA-L")
	for _, k := range []int{16, 32, 40, 64} {
		base := run(r, pmSpec(k, 4, 1, harness.StratISAL))
		dial := run(r, pmSpec(k, 4, 1, harness.StratDialga))
		if k == 32 {
			isal32 = base.ThroughputGBps
		}
		tracks := base.PF.Issued > 10_000
		fmt.Printf("%-3d %-18v %v\n", k, tracks, dial.ThroughputGBps > 2*base.ThroughputGBps)
		if k == 64 {
			fmt.Println("ISA-L at k=64 below 60% of k=32:", base.ThroughputGBps < 0.6*isal32)
		}
	}
	// Output:
	// k   prefetcher tracks  DIALGA > 2x ISA-L
	// 16  true               false
	// 32  true               false
	// 40  false              true
	// 64  false              true
	// ISA-L at k=64 below 60% of k=32: true
}

// The concurrency story (Obs. 5, §5.3): under many threads ISA-L's
// hardware prefetches evict one another from the PM's 96 KB on-DIMM
// read buffer before use, so media reads amplify and throughput
// collapses. Above its thread threshold DIALGA switches the prefetcher
// off through the shuffle mapping, reads whole XPLines and caps its
// prefetch distance (Eq. 1), which keeps the amplification small.
func ExampleRunner_Run_concurrency() {
	r := &harness.Runner{Quick: true}
	excess := func(res *engine.Result) float64 {
		return float64(res.MediaReadBytes)/float64(res.EncodeReadBytes) - 1
	}
	isal1 := run(r, pmSpec(24, 4, 1, harness.StratISAL))
	isal18 := run(r, pmSpec(24, 4, 18, harness.StratISAL))
	dial18 := run(r, pmSpec(24, 4, 18, harness.StratDialga))
	fmt.Println("ISA-L on 18 threads under 3x its 1-thread speed:", isal18.ThroughputGBps < 3*isal1.ThroughputGBps)
	fmt.Println("ISA-L excess media reads at 18 threads > 2x DIALGA's:", excess(isal18) > 2*excess(dial18))
	fmt.Println("DIALGA faster than ISA-L at 18 threads:", dial18.ThroughputGBps > isal18.ThroughputGBps)
	// Output:
	// ISA-L on 18 threads under 3x its 1-thread speed: true
	// ISA-L excess media reads at 18 threads > 2x DIALGA's: true
	// DIALGA faster than ISA-L at 18 threads: true
}

// The coordinator tuning a live run (§4.1.2): the hill climb starts at
// prefetch distance d = k and probes a neighbourhood of 16, measuring
// each candidate over a window, then settles and watches for
// fluctuation. Scheduler.Trace receives one event per window.
func ExampleRunner_RunWith() {
	const k = 8
	r := &harness.Runner{Quick: true}
	spec := pmSpec(k, 4, 1, harness.StratDialga)
	var sched *dialga.Scheduler
	var phases []string
	seen := map[string]bool{}
	res, err := r.RunWith(spec, func(l *workload.Layout, cfg *mem.Config) (engine.Program, error) {
		sched = dialga.New(l, cfg, dialga.DefaultOptions())
		sched.Trace = func(ev dialga.TraceEvent) {
			if !seen[ev.Phase] {
				seen[ev.Phase] = true
				phases = append(phases, ev.Phase)
			}
		}
		return sched, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	spec.Strategy = harness.StratISAL
	base := run(r, spec)
	fmt.Println("phases:", phases)
	fmt.Println("settled away from d=k:", sched.Distance() != k)
	fmt.Println("high-pressure mode on one thread:", sched.HighMode())
	fmt.Println("DIALGA faster than plain ISA-L:", res.ThroughputGBps > base.ThroughputGBps)
	// Output:
	// phases: [climb-probe climb-measure settled]
	// settled away from d=k: true
	// high-pressure mode on one thread: false
	// DIALGA faster than plain ISA-L: true
}
