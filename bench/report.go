package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// env is the environment block every report carries: numbers compare
// only between reports whose env matches.
type env struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	Go         string `json:"go"`
	GitRev     string `json:"git_rev"`
	Kernel     string `json:"kernel"`
	StoreDir   string `json:"store_dir"`
	StoreFS    string `json:"store_fs"`
}

func readEnv(clients int, dir string) env {
	e := env{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clients,
		Go: runtime.Version(), GitRev: "unknown", StoreDir: dir, StoreFS: fsName(dir),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	// Outside a git checkout (the driver's) the revision stays unknown.
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.GitRev = strings.TrimSpace(string(b))
	}
	return e
}

// fsName names the filesystem holding dir.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x794C7630:
		return "overlayfs"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("%#x", uint32(st.Type))
}

// metricReport is one metric of one workload across a report's sets.
type metricReport struct {
	Value float64 `json:"value"` // median of Runs
	Unit  string  `json:"unit"`
	// Runs holds one value per set; Spread is their inter-quartile
	// distance as a share of the median (0 with fewer than four sets).
	Runs   []float64 `json:"runs,omitempty"`
	Spread float64   `json:"spread"`
}

type workloadReport struct {
	Name      string `json:"name"`
	Why       string `json:"why"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// WindowOps is how many ops succeeded inside the last untraced
	// set's window; SliceSpread the largest inter-quartile spread of the
	// five throughput slices in any set.
	WindowOps   int                     `json:"window_ops"`
	SliceSpread float64                 `json:"throughput_slice_spread"`
	Errors      []string                `json:"errors,omitempty"`
	Warnings    []string                `json:"warnings,omitempty"`
	EndToEnd    map[string]metricReport `json:"end_to_end"`
	PerLayer    map[string]metricReport `json:"per_layer,omitempty"`
}

type report struct {
	Schema string `json:"schema"`
	Env    env    `json:"env"`
	Config struct {
		Seed    int64   `json:"seed"`
		Seconds float64 `json:"seconds"`
		WarmupS float64 `json:"warmup_s"`
		Sets    int     `json:"sets"`
		// Untrusted marks a -smoke report: correctness was checked, the
		// numbers mean nothing.
		Untrusted bool `json:"untrusted,omitempty"`
	} `json:"config"`
	// Notes state what the numbers do not say.
	Notes     []string         `json:"notes"`
	Workloads []workloadReport `json:"workloads"`
	// Ladder is each rung's median over the traced runs of the report.
	Ladder []rung `json:"ladder,omitempty"`
}

const reportSchema = "dialga-bench/1"

var reportNotes = []string{
	"dialga has no object cache of its own; the working set (<= 600 MiB on disk) sits in the OS page cache, so reads never reach a device",
	"flush policy is the commit's own (node.Store.Put does not fsync today), so write latencies are the sandbox's, not a device's",
	"load generator, gateway and nodes share one process and its CPUs; cpu_s_per_gib and peak_rss_mib count all three",
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	return &r, nil
}

func (r *report) workload(name string) *workloadReport {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

// addRun folds one run's metrics into a metric map.
func addRun(into map[string]metricReport, defs []metricDef, metrics map[string]float64) {
	for _, d := range defs {
		v, ok := metrics[d.Name]
		if !ok {
			continue
		}
		m := into[d.Name]
		m.Unit = d.Unit
		m.Runs = append(m.Runs, v)
		m.Value = median(m.Runs)
		if len(m.Runs) >= 4 {
			m.Spread = spread(m.Runs)
		}
		into[d.Name] = m
	}
}

// printMetrics writes one line per metric: name, value, unit.
func printMetrics(w io.Writer, defs []metricDef, metrics map[string]metricReport) {
	for _, d := range defs {
		m, ok := metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-38s %12.4f %-6s", d.Name, m.Value, d.Unit)
		if len(m.Runs) >= 4 {
			fmt.Fprintf(w, " spread %.1f%% over %d sets", m.Spread*100, len(m.Runs))
		}
		fmt.Fprintln(w)
	}
}

func (r *report) print(w io.Writer) {
	e := r.Env
	fmt.Fprintf(w, "env: %s, nproc %d, GOMAXPROCS %d, clients %d, %s, git %s, kernel %s, store %s (%s)\n",
		e.CPU, e.NProc, e.GOMAXPROCS, e.Clients, e.Go, e.GitRev, e.Kernel, e.StoreDir, e.StoreFS)
	if r.Config.Untrusted {
		fmt.Fprintln(w, "SMOKE RUN: correctness was checked; the numbers are not measurements")
	}
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, "\n%s — %s\n", wl.Name, wl.Why)
		fmt.Fprintf(w, "  attempted %d, failed %d, correct %v; %d ops in the last window; throughput slices spread %.1f%%\n",
			wl.Attempted, wl.Failed, wl.Correct, wl.WindowOps, wl.SliceSpread*100)
		for _, e := range wl.Errors {
			fmt.Fprintf(w, "  ERROR: %s\n", e)
		}
		for _, e := range wl.Warnings {
			fmt.Fprintf(w, "  WARNING: %s\n", e)
		}
		printMetrics(w, endToEnd, wl.EndToEnd)
		printMetrics(w, windowLayer, wl.PerLayer)
	}
	if len(r.Ladder) > 0 {
		printLadder(w, r.Ladder)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}
