// Command dialga-bench regenerates the paper's evaluation figures on
// the simulated testbed.
//
//	dialga-bench -fig fig10          # one figure, text table
//	dialga-bench -all                # every figure
//	dialga-bench -fig fig13 -csv     # CSV for plotting
//	dialga-bench -all -quick         # fast smoke run (shapes untrusted)
//	dialga-bench -list               # figure ids
//	dialga-bench -system DIALGA -k 24 -m 4 -block 1024 -threads 8
//
// Figure ids follow the paper: fig03..fig07 are the §3 observations,
// fig10..fig19 the §5 evaluation. -system runs one compared system
// once, through the same harness.BaseSpec and Runner.Run the figures
// use, and prints the simulator's full statistics for it: throughput,
// load latency, cache and prefetcher behaviour, and per-layer read
// traffic. The live system (gateway, nodes, repair) is measured by the
// benchmark under bench/, not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"dialga/internal/engine"
	"dialga/internal/harness"
	"dialga/internal/mem"
)

// systems are the compared systems of §5.1, the values -system takes.
var systems = []harness.Strategy{
	harness.StratISAL, harness.StratISALNoPF, harness.StratISALD,
	harness.StratDialga, harness.StratZerasure, harness.StratCerasure,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: it parses args, writes figures to
// stdout and diagnostics to stderr, and returns the exit status, so
// tests can drive it directly.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dialga-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig     = fs.String("fig", "", "figure id to run (fig03..fig19)")
		all     = fs.Bool("all", false, "run every figure")
		csv     = fs.Bool("csv", false, "emit CSV instead of a text table")
		quick   = fs.Bool("quick", false, "small working sets and sweeps (fast, shapes untrusted)")
		repeats = fs.Int("repeats", 1, "average multi-threaded points over N layout seeds")
		verbose = fs.Bool("v", false, "log each run")
		list    = fs.Bool("list", false, "list figure ids")
		system  = fs.String("system", "", "run one system once and print its statistics: ISA-L, ISA-L-noPF, ISA-L-D, DIALGA, Zerasure or Cerasure")
		k       = fs.Int("k", 8, "with -system: data blocks per stripe")
		m       = fs.Int("m", 4, "with -system: parity blocks per stripe")
		block   = fs.Int("block", 1024, "with -system: block size in bytes (multiple of 64)")
		threads = fs.Int("threads", 1, "with -system: concurrent encoding threads")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *system != "" {
		if *all || *fig != "" {
			fmt.Fprintln(stderr, "dialga-bench: -system runs alone, without -fig or -all")
			return 2
		}
		if !slices.Contains(systems, harness.Strategy(*system)) {
			fmt.Fprintf(stderr, "dialga-bench: unknown system %q\n", *system)
			return 2
		}
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(harness.FigureIDs, "\n"))
		return 0
	}
	r := &harness.Runner{Quick: *quick, Repeats: *repeats}
	if *verbose {
		r.Verbose = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}

	emit := func(f *harness.Figure) {
		if *csv {
			fmt.Fprint(stdout, f.CSV())
			return
		}
		fmt.Fprintln(stdout, f.Table())
		if lo, hi, ok := f.ImprovementRange("DIALGA"); ok {
			fmt.Fprintf(stdout, "  DIALGA vs best other: %+.1f%% .. %+.1f%%\n\n", lo, hi)
		}
	}

	switch {
	case *system != "":
		s := harness.BaseSpec(harness.Strategy(*system), *k, *m, *block, *threads)
		res, err := r.Run(s)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		cfg := r.Config(s)
		printStats(stdout, *system, s, &cfg, res)
	case *all:
		for _, id := range harness.FigureIDs {
			f, err := r.ByID(id)
			if err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", id, err)
				return 1
			}
			emit(f)
		}
	case *fig != "":
		f, err := r.ByID(*fig)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		emit(f)
	default:
		fs.Usage()
		return 2
	}
	return 0
}

// printStats renders the statistics of one run of s on machine cfg.
func printStats(w io.Writer, system string, s harness.RunSpec, cfg *mem.Config, res *engine.Result) {
	fmt.Fprintf(w, "config: RS(%d,%d) k=%d m=%d block=%dB threads=%d system=%s source=%s hwp=%v %s @%.1fGHz\n",
		s.K+s.M, s.K, s.K, s.M, s.BlockSize, s.Threads, system, s.Source, s.HWP, cfg.SIMD, cfg.CPUFreqGHz)
	fmt.Fprintf(w, "throughput:        %8.3f GB/s  (%.2f ms for %.1f MiB over %d threads)\n",
		res.ThroughputGBps, res.ElapsedNS/1e6, float64(res.DataBytes)/(1<<20), s.Threads)
	fmt.Fprintf(w, "avg load latency:  %8.1f ns\n", res.AvgLoadLatencyNS())
	fmt.Fprintf(w, "miss cycles/load:  %8.1f cyc\n", res.MissCyclesPerLoad(cfg))
	fmt.Fprintf(w, "L1  hits/misses:   %d / %d\n", res.L1.Hits, res.L1.Misses)
	fmt.Fprintf(w, "L2  hits/misses:   %d / %d  prefetchFills=%d useless=%d late=%d\n",
		res.L2.Hits, res.L2.Misses, res.L2.PrefetchFills, res.L2.UselessPrefetch, res.L2.LatePrefetchHits)
	fmt.Fprintf(w, "LLC hits/misses:   %d / %d\n", res.LLC.Hits, res.LLC.Misses)
	fmt.Fprintf(w, "HW prefetcher:     issued=%d allocs=%d evicts=%d uselessRatio=%.3f l2pfRatio=%.3f\n",
		res.PF.Issued, res.PF.StreamAllocs, res.PF.StreamEvicts, res.UselessPrefetchRatio(), res.L2PrefetchRatio())
	var swPrefetches uint64
	var stallLoad, stallStore float64
	for _, th := range res.Threads {
		swPrefetches += th.SWPrefetches
		stallLoad += th.LoadStallNS
		stallStore += th.StoreStallNS
	}
	fmt.Fprintf(w, "SW prefetches:     %d\n", swPrefetches)
	fmt.Fprintf(w, "stall (load/store): %.2f / %.2f ms\n", stallLoad/1e6, stallStore/1e6)
	fmt.Fprintf(w, "read traffic:      encode=%.1f MiB  ctrl=%.1f MiB  media=%.1f MiB  (media amp %.3f)\n",
		float64(res.EncodeReadBytes)/(1<<20), float64(res.CtrlReadBytes)/(1<<20), float64(res.MediaReadBytes)/(1<<20),
		float64(res.MediaReadBytes)/float64(res.EncodeReadBytes))
	fmt.Fprintf(w, "PM buffer:         hits=%d misses=%d evictedUnused=%d\n",
		res.Dev.BufHits, res.Dev.BufMisses, res.Dev.BufEvictedUnused)
	fmt.Fprintf(w, "write traffic:     ctrl=%.1f MiB media=%.1f MiB\n",
		float64(res.Dev.CtrlWriteBytes)/(1<<20), float64(res.Dev.MediaWriteBytes)/(1<<20))
}
