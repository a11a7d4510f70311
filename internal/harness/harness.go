// Package harness regenerates every table and figure of the paper's
// evaluation (§3 observations and §5 evaluation) on the simulated
// testbed. Each FigXX method returns a Figure whose series carry the
// same quantities the paper plots; dialga-bench renders them as text
// tables or CSV, and EXPERIMENTS.md records them against the paper.
package harness

import (
	"fmt"
	"math"

	"dialga/internal/dialga"
	"dialga/internal/engine"
	"dialga/internal/isal"
	"dialga/internal/mem"
	"dialga/internal/workload"
	"dialga/internal/xorec"
)

// Strategy names a compared encoding system (§5.1).
type Strategy string

// The compared systems.
const (
	StratZerasure Strategy = "Zerasure"
	StratCerasure Strategy = "Cerasure"
	StratISAL     Strategy = "ISA-L"
	StratISALNoPF Strategy = "ISA-L-noPF"
	StratISALD    Strategy = "ISA-L-D"
	StratDialga   Strategy = "DIALGA"
)

// Runner executes experiments. The zero value runs the full-size
// configuration; Quick trims working sets and sweep points for smoke
// runs (shapes are not trustworthy in quick mode — the working set no
// longer exceeds the LLC).
type Runner struct {
	Quick bool
	// Repeats averages multi-threaded throughput points over this many
	// seeds (min 1). Thrash onset near the knee is bistable in a
	// deterministic simulation, so the thread-sweep figures benefit
	// from averaging.
	Repeats int
	// Verbose, if set, receives one line per completed run.
	Verbose func(format string, args ...any)
}

func (r *Runner) logf(format string, args ...any) {
	if r.Verbose != nil {
		r.Verbose(format, args...)
	}
}

// perThreadBytes returns the working set per thread: it must exceed
// the 24.75 MB LLC single-threaded so streaming behaviour is honest.
func (r *Runner) perThreadBytes(threads int) int {
	if r.Quick {
		if threads == 1 {
			return 8 << 20
		}
		return 4 << 20
	}
	if threads == 1 {
		return 32 << 20
	}
	return 16 << 20
}

// RunSpec is one encode/decode measurement.
type RunSpec struct {
	K, M      int
	BlockSize int
	Threads   int
	Source    mem.DeviceKind
	Freq      float64 // 0 = default 3.3 GHz
	SIMD      mem.SIMDWidth
	HWP       bool
	Params    isal.KernelParams // for fixed-kernel ISA-L runs
	Strategy  Strategy
	LRCGroups int // l > 0 models LRC(k, m-l global, l local)
	Seed      int64
	// DialgaOpts are the coordinator's ablation switches for DIALGA
	// runs (the Fig. 18 breakdown); the zero value is the paper's
	// configuration.
	DialgaOpts dialga.Options
	// BaseConfig overrides the hardware model (nil = mem.DefaultConfig;
	// the generality experiment passes mem.CMMHConfig).
	BaseConfig func() mem.Config
}

// Config returns the machine model Run simulates s on.
func (r *Runner) Config(s RunSpec) mem.Config {
	cfg := mem.DefaultConfig()
	if s.BaseConfig != nil {
		cfg = s.BaseConfig()
	}
	cfg.HWPrefetchEnabled = s.HWP
	if s.Freq > 0 {
		cfg.CPUFreqGHz = s.Freq
	}
	if s.SIMD != 0 {
		cfg.SIMD = s.SIMD
	}
	return cfg
}

func (r *Runner) layouts(s RunSpec, cfg *mem.Config) ([]*workload.Layout, error) {
	ls := make([]*workload.Layout, s.Threads)
	for t := 0; t < s.Threads; t++ {
		l, err := workload.New(workload.Config{
			K: s.K, M: s.M, BlockSize: s.BlockSize,
			TotalDataBytes: r.perThreadBytes(s.Threads),
			Seed:           s.Seed + 42,
		}, t)
		if err != nil {
			return nil, err
		}
		ls[t] = l
	}
	return ls, nil
}

// Run executes one measurement and returns the engine result.
func (r *Runner) Run(s RunSpec) (*engine.Result, error) {
	return r.RunWith(s, func(l *workload.Layout, cfg *mem.Config) (engine.Program, error) {
		return r.program(s, l, cfg)
	})
}

// RunWith executes one measurement with a custom per-thread program
// factory (used for decode schedules and ablation variants).
func (r *Runner) RunWith(s RunSpec, factory func(*workload.Layout, *mem.Config) (engine.Program, error)) (*engine.Result, error) {
	cfg := r.Config(s)
	e, err := engine.New(cfg, s.Source)
	if err != nil {
		return nil, err
	}
	layouts, err := r.layouts(s, e.Config())
	if err != nil {
		return nil, err
	}
	for _, l := range layouts {
		p, err := factory(l, e.Config())
		if err != nil {
			return nil, err
		}
		e.AddThread(p)
	}
	res, err := e.Run()
	if err != nil {
		return nil, err
	}
	r.logf("%-10s k=%-2d m=%d bs=%-4d t=%-2d %s: %.2f GB/s",
		s.Strategy, s.K, s.M, s.BlockSize, s.Threads, s.Source, res.ThroughputGBps)
	return res, nil
}

// program builds the per-thread engine program for a strategy.
func (r *Runner) program(s RunSpec, l *workload.Layout, cfg *mem.Config) (engine.Program, error) {
	switch s.Strategy {
	case StratDialga:
		sch := dialga.New(l, cfg, s.DialgaOpts)
		if s.LRCGroups > 0 {
			sch.SetLRCLocalGroups(s.LRCGroups)
		}
		return sch, nil
	case StratISALD:
		return isal.NewDecomposedProgram(l, cfg, 16), nil
	case StratZerasure:
		enc, err := xorec.NewZerasure(s.K, s.M, xorec.ZerasureOptions{Seed: 1})
		if err != nil {
			return nil, err
		}
		return xorec.NewProgram(l, cfg, enc.Schedule()), nil
	case StratCerasure:
		return cerasureProgram(s.K, s.M, l, cfg)
	case StratISAL, StratISALNoPF, "":
		p := isal.NewProgram(l, cfg, s.Params)
		p.LRCLocalGroups = s.LRCGroups
		return p, nil
	default:
		return nil, fmt.Errorf("harness: unknown strategy %q", s.Strategy)
	}
}

// cerasureProgram builds the Cerasure access program: greedy-optimized
// bitmatrix for narrow stripes, decomposed sub-stripes for wide ones
// (§5.1: "We report Cerasure's best performance").
func cerasureProgram(k, m int, l *workload.Layout, cfg *mem.Config) (engine.Program, error) {
	if k <= 32 {
		enc, err := xorec.NewCerasure(k, m)
		if err != nil {
			return nil, err
		}
		return xorec.NewProgram(l, cfg, enc.Schedule()), nil
	}
	dec, err := xorec.NewDecomposed(k, m, 16, nil)
	if err != nil {
		return nil, err
	}
	return xorec.NewProgram(l, cfg, dec.CombinedSchedule()), nil
}

// Figure is one reproduced table/figure.
type Figure struct {
	ID    string
	Title string
	XName string
	YName string
	// XLabels are the x-axis points (shared by all series).
	XLabels []string
	Series  []Series
	// Notes records deviations or reading aids.
	Notes []string
}

// Series is one line/bar group of a figure. nan marks missing points
// (e.g. Zerasure beyond its search horizon).
type Series struct {
	Name string
	Y    []float64
}

// AddPoint appends y to the named series, creating it on first use.
func (f *Figure) AddPoint(series string, y float64) {
	for i := range f.Series {
		if f.Series[i].Name == series {
			f.Series[i].Y = append(f.Series[i].Y, y)
			return
		}
	}
	f.Series = append(f.Series, Series{Name: series, Y: []float64{y}})
}

// nan is the missing-point marker.
var nan = math.NaN()
