package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of one workload x end-to-end metric row.
const (
	verdictBetter     = "better"
	verdictWithin     = "within"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// noise is the run-to-run spread a report knows for one metric: the
// inter-quartile spread over its sets when it has four or more, else
// the spread of the throughput slices for throughput and nothing for
// the rest.
func noise(w *workloadReport, metric string) float64 {
	m := w.EndToEnd[metric]
	if len(m.Runs) >= 4 {
		return m.Spread
	}
	if metric == "throughput_mib_s" {
		return w.SliceSpread
	}
	return 0
}

// judge compares one metric's medians. worsened is the share of the
// base by which b is worse than a (negative: better).
func judge(d metricDef, a, b, noiseA, noiseB float64) (worsened float64, verdict string) {
	if a == 0 {
		return 0, verdictUnresolved
	}
	worsened = (b - a) / math.Abs(a)
	if d.Better == "higher" {
		worsened = -worsened
	}
	switch {
	case noiseA > d.Bound || noiseB > d.Bound:
		return worsened, verdictUnresolved
	case worsened > d.Bound:
		return worsened, verdictWorse
	case worsened < -d.Bound:
		return worsened, verdictBetter
	}
	return worsened, verdictWithin
}

// compare prints one row per workload x end-to-end metric of two
// reports, a the base, and returns how many rows regressed: a metric
// worse by more than its bound, or any rise in the error rate.
func compare(w io.Writer, a, b *report) (regressions int) {
	if a.Env.Clients != b.Env.Clients || a.Config.Seconds != b.Config.Seconds {
		fmt.Fprintf(w, "warning: reports differ in clients (%d vs %d) or window (%gs vs %gs); rows do not compare\n",
			a.Env.Clients, b.Env.Clients, a.Config.Seconds, b.Config.Seconds)
	}
	fmt.Fprintf(w, "%-17s %-18s %12s %12s  %-22s %6s  %s\n",
		"workload", "metric", "a (base)", "b", "b/a", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			continue
		}
		for _, d := range endToEnd {
			ma, oka := wa.EndToEnd[d.Name]
			mb, okb := wb.EndToEnd[d.Name]
			if !oka || !okb {
				continue
			}
			_, verdict := judge(d, ma.Value, mb.Value, noise(&wa, d.Name), noise(wb, d.Name))
			if verdict == verdictWorse {
				regressions++
			}
			fmt.Fprintf(w, "%-17s %-18s %12.4f %12.4f  %-22s %5.1f%%  %s\n",
				wa.Name, d.Name, ma.Value, mb.Value,
				fmt.Sprintf("%.3fx of %.4g %s", ratio(mb.Value, ma.Value), ma.Value, d.Unit),
				d.Bound*100, verdict)
		}
		ea := ratio(float64(wa.Failed), float64(wa.Attempted))
		eb := ratio(float64(wb.Failed), float64(wb.Attempted))
		verdict := verdictWithin
		if eb > ea || (wa.Correct && !wb.Correct) {
			verdict = verdictWorse
			regressions++
		}
		fmt.Fprintf(w, "%-17s %-18s %12.6f %12.6f  %-22s %6s  %s\n", wa.Name, "error_rate", ea, eb,
			fmt.Sprintf("%d/%d vs %d/%d ops", wa.Failed, wa.Attempted, wb.Failed, wb.Attempted), "0", verdict)
	}
	return regressions
}

// calibration prints, per workload x end-to-end metric, the median,
// quartiles and range over a report's sets, and the bound they
// support: the larger of the starting bound and twice the
// inter-quartile spread.
func calibration(w io.Writer, r *report) {
	fmt.Fprintf(w, "\ncalibration over %d sets (seed %d, %gs windows)\n", r.Config.Sets, r.Config.Seed, r.Config.Seconds)
	fmt.Fprintf(w, "| %-16s | %-16s | %10s | %10s | %10s | %7s | %9s | %6s | %8s |\n",
		"workload", "metric", "median", "q1", "q3", "IQR/med", "range/med", "bound", "proposed")
	for _, wl := range r.Workloads {
		for _, d := range endToEnd {
			m := wl.EndToEnd[d.Name]
			if len(m.Runs) < 2 {
				continue
			}
			q1, q3 := quartiles(m.Runs)
			lo, hi := m.Runs[0], m.Runs[0]
			for _, v := range m.Runs {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			iqr := spread(m.Runs)
			fmt.Fprintf(w, "| %-16s | %-16s | %10.4f | %10.4f | %10.4f | %6.2f%% | %8.2f%% | %5.1f%% | %7.1f%% |\n",
				wl.Name, d.Name, m.Value, q1, q3, iqr*100, ratio(hi-lo, m.Value)*100,
				d.Bound*100, math.Max(d.Bound, 2*iqr)*100)
		}
	}
}
