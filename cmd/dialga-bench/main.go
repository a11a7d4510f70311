// Command dialga-bench regenerates the paper's evaluation figures on
// the simulated testbed.
//
//	dialga-bench -fig fig10          # one figure, text table
//	dialga-bench -all                # every figure
//	dialga-bench -fig fig13 -csv     # CSV for plotting
//	dialga-bench -all -quick         # fast smoke run (shapes untrusted)
//	dialga-bench -list               # figure ids
//
// Figure ids follow the paper: fig03..fig07 are the §3 observations,
// fig10..fig19 the §5 evaluation. The live system (gateway, nodes,
// repair) is measured by the benchmark under bench/, not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dialga/internal/harness"
)

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
	)
	if err := fs.Parse(args); err != nil {
		return 2
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
