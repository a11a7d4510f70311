// Command bench is dialga's benchmark: six named workloads against an
// in-process six-node cluster configured as dialga-node ships, a
// per-layer ladder, and a traced run. See README.md.
//
// With -workload it runs that one workload once and ends its output
// with one JSON result line (the form BENCHMARK.json's command takes).
// Without, it runs the whole suite — every workload untraced, then
// traced, each in a child process of its own — prints every metric and
// writes one JSON report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	out, dir  string
	sets      int
	calibrate int
	smoke     bool
	result    string
	report    string
}

const warmup = 2 * time.Second

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and end with a JSON result line (default: the whole suite)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of keys, payloads, op order, arrival times and victim nodes")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "measured window of each run, after a 2 s warm-up")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 measures the end-to-end metrics untraced, 1 the per-layer metrics with the ladder and the span recorder")
	flag.StringVar(&o.out, "out", filepath.Join("bench", "out"), "directory for traces, the report and, unless -dir is set, store directories")
	flag.StringVar(&o.dir, "dir", "", "directory the node store directories are created in (default: -out)")
	flag.IntVar(&o.sets, "sets", 1, "suite: how many untraced sets to run; a metric's value is the median over them")
	flag.IntVar(&o.calibrate, "calibrate", 0, "suite: run this many untraced sets, no traced ones, and print the calibration table")
	flag.BoolVar(&o.smoke, "smoke", false, "1 s windows and one set-up: checks correctness, measures nothing")
	flag.StringVar(&o.report, "o", "", "suite: where to write the report (default: <out>/report.json)")
	flag.StringVar(&o.result, "result", "", "with -workload: also write the run's full result to this file")
	compareMode := flag.Bool("compare", false, "compare two reports: -compare a.json b.json; exits 1 on any worse row")
	manifestMode := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if o.dir == "" {
		o.dir = o.out
	}

	var err error
	switch {
	case *manifestMode:
		var b []byte
		if b, err = manifest(); err == nil {
			_, err = os.Stdout.Write(b)
		}
	case *compareMode:
		err = runCompare(flag.Args())
	case o.workload != "":
		err = runOne(o)
	default:
		err = runSuite(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func clients() int { return min(2, runtime.NumCPU()) }

func (o options) config() config {
	cfg := config{
		seed: o.seed, warmup: warmup, window: time.Duration(o.seconds * float64(time.Second)),
		clients: clients(), dir: o.dir, out: o.out, trace: o.trace == 1,
		setups: 3,
	}
	if cfg.trace {
		cfg.setups = 1 // setup_s is an end-to-end metric
	}
	if o.smoke {
		cfg.warmup, cfg.window, cfg.setups = 300*time.Millisecond, time.Second, 1
	}
	return cfg
}

// runOne is the single-run form: one workload, one process.
func runOne(o options) error {
	wl, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	res, err := execute(o.config(), wl)
	if err != nil {
		return err
	}
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
		fmt.Printf("%-38s %14.4f %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	for _, e := range res.Errors {
		fmt.Printf("ERROR: %s\n", e)
	}
	for _, e := range res.Warnings {
		fmt.Printf("WARNING: %s\n", e)
	}
	if o.result != "" {
		b, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.result, b, 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// child re-executes this binary for one run of one workload, so set-up
// time, CPU and peak memory are that workload's alone.
func child(o options, workload string, trace int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(o.out, fmt.Sprintf("result-%d.json", os.Getpid()))
	defer os.Remove(path)
	args := []string{
		"-workload", workload, "-trace", strconv.Itoa(trace),
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-out", o.out, "-dir", o.dir, "-result", path,
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// runSuite runs every workload, untraced then traced, and writes the
// report.
func runSuite(o options) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	sets, traced := o.sets, true
	if o.calibrate > 0 {
		sets, traced = o.calibrate, false
	}
	rep := &report{Schema: reportSchema, Env: readEnv(clients(), o.dir), Notes: reportNotes}
	cfg := o.config()
	rep.Config.Seed, rep.Config.Sets, rep.Config.Untrusted = o.seed, sets, o.smoke
	rep.Config.Seconds, rep.Config.WarmupS = cfg.window.Seconds(), cfg.warmup.Seconds()
	for _, wl := range workloads {
		rep.Workloads = append(rep.Workloads, workloadReport{
			Name: wl.name, Why: wl.why, Correct: true,
			EndToEnd: map[string]metricReport{}, PerLayer: map[string]metricReport{},
		})
	}
	fold := func(w *workloadReport, res *result) {
		w.Correct = w.Correct && res.Correct
		w.Errors = append(w.Errors, res.Errors...)
		w.Warnings = append(w.Warnings, res.Warnings...)
		if res.Trace {
			addRun(w.PerLayer, perLayer, res.Metrics)
			return
		}
		addRun(w.EndToEnd, endToEnd, res.Metrics)
		w.Attempted, w.Failed = w.Attempted+res.Attempted, w.Failed+res.Failed
		w.WindowOps = res.WindowOps
		w.SliceSpread = max(w.SliceSpread, res.SliceSpread)
	}
	for set := 0; set < sets; set++ {
		for i := range rep.Workloads {
			w := &rep.Workloads[i]
			fmt.Fprintf(os.Stderr, "set %d/%d: %s\n", set+1, sets, w.Name)
			res, err := child(o, w.Name, 0)
			if err != nil {
				return err
			}
			fold(w, res)
		}
	}
	if traced {
		ladders := map[string][]float64{}
		var last []rung
		for i := range rep.Workloads {
			w := &rep.Workloads[i]
			fmt.Fprintf(os.Stderr, "traced: %s\n", w.Name)
			res, err := child(o, w.Name, 1)
			if err != nil {
				return err
			}
			fold(w, res)
			for _, g := range res.Ladder {
				ladders[g.Name] = append(ladders[g.Name], g.Median)
			}
			last = res.Ladder
		}
		// Each traced child climbed the ladder; report a rung as the
		// median of their medians, with the spread between them.
		for _, g := range last {
			g.Median, g.MAD = median(ladders[g.Name]), mad(ladders[g.Name])
			rep.Ladder = append(rep.Ladder, g)
		}
	}

	path := o.report
	if path == "" {
		path = filepath.Join(o.out, "report.json")
	}
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	rep.print(os.Stdout)
	if o.calibrate > 0 {
		calibration(os.Stdout, rep)
	}
	fmt.Printf("\nreport: %s\n", path)
	for _, w := range rep.Workloads {
		if !w.Correct || w.Failed > 0 {
			return fmt.Errorf("%s: %d of %d ops failed, correct=%v", w.Name, w.Failed, w.Attempted, w.Correct)
		}
	}
	return nil
}

func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two report files")
	}
	a, err := loadReport(args[0])
	if err != nil {
		return err
	}
	b, err := loadReport(args[1])
	if err != nil {
		return err
	}
	if n := compare(os.Stdout, a, b); n > 0 {
		return fmt.Errorf("%d regressions", n)
	}
	return nil
}
