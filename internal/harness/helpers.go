package harness

import (
	"dialga/internal/dialga"
	"dialga/internal/engine"
	"dialga/internal/isal"
	"dialga/internal/mem"
	"dialga/internal/workload"
	"dialga/internal/xorec"
)

// runDecode measures decode throughput: k survivor blocks are read and
// m missing blocks reconstructed. Table-lookup decode shares encode's
// memory pattern (§4.1 "Other Coding Tasks"); XOR decode replays the
// (denser) decode bitmatrix schedule derived from the inverted survivor
// matrix (§5.4).
func (r *Runner) runDecode(st Strategy, k, m, block int) (float64, error) {
	s := BaseSpec(st, k, m, block, 1)
	switch st {
	case StratZerasure, StratCerasure:
		var enc *xorec.Encoder
		var err error
		if st == StratZerasure {
			enc, err = xorec.NewZerasure(k, m, xorec.ZerasureOptions{Seed: 1})
		} else {
			enc, err = xorec.NewCerasure(k, m)
		}
		if err != nil {
			return nan, err
		}
		// Erase the first m data blocks: the hardest pattern.
		missing := make([]int, m)
		for i := range missing {
			missing[i] = i
		}
		sched, err := enc.DecodeSchedule(missing)
		if err != nil {
			return nan, err
		}
		res, err := r.RunWith(s, func(l *workload.Layout, cfg *mem.Config) (engine.Program, error) {
			return xorec.NewProgram(l, cfg, sched), nil
		})
		if err != nil {
			return nan, err
		}
		return res.ThroughputGBps, nil
	default:
		res, err := r.Run(s)
		if err != nil {
			return nan, err
		}
		return res.ThroughputGBps, nil
	}
}

// runLRC measures LRC(k, m, l) encoding: m global parities plus l local
// XOR parities (the stripe writes m+l parity blocks).
func (r *Runner) runLRC(st Strategy, k, m, l int) (float64, error) {
	s := BaseSpec(st, k, m+l, defaultBlock, 1)
	s.LRCGroups = l
	if st == StratCerasure {
		var enc *xorec.Encoder
		var err error
		if k <= 32 {
			enc, err = xorec.NewCerasure(k, m)
		} else {
			enc, err = xorec.NewEncoder(k, m, xorec.Options{SmartSchedule: true})
		}
		if err != nil {
			return nan, err
		}
		sched, err := enc.LRCSchedule(l)
		if err != nil {
			return nan, err
		}
		res, err := r.RunWith(s, func(lay *workload.Layout, cfg *mem.Config) (engine.Program, error) {
			return xorec.NewProgram(lay, cfg, sched), nil
		})
		if err != nil {
			return nan, err
		}
		return res.ThroughputGBps, nil
	}
	res, err := r.Run(s)
	if err != nil {
		return nan, err
	}
	return res.ThroughputGBps, nil
}

// mixedProgram builds one thread's mixed-size workload: consecutive
// segments with different block sizes, each in its own address region.
func (r *Runner) mixedProgram(s RunSpec, base *workload.Layout, cfg *mem.Config, sizes []int) (engine.Program, error) {
	// Recover the thread id from the base layout's region.
	threadID := int(uint64(base.Data[0][0]) >> 34)
	segBytes := r.perThreadBytes(s.Threads) / len(sizes)
	var progs []engine.Program
	for seg, bs := range sizes {
		l, err := workload.New(workload.Config{
			K: s.K, M: s.M, BlockSize: bs,
			TotalDataBytes: segBytes,
			Seed:           s.Seed + int64(seg),
		}, threadID+64*(seg+1)) // disjoint pseudo-thread regions
		if err != nil {
			return nil, err
		}
		var p engine.Program
		if s.Strategy == StratDialga {
			p = dialga.New(l, cfg, s.DialgaOpts)
		} else {
			p = isal.NewProgram(l, cfg, s.Params)
		}
		progs = append(progs, p)
	}
	return engine.NewSequence(progs...), nil
}

// runBreakdown runs a Fig. 18 ablation variant: a DIALGA scheduler with
// individual optimizations disabled. The hardware prefetcher is
// controlled by the machine switch (s.HWP), not the coordinator.
func (r *Runner) runBreakdown(s RunSpec, sw, bf bool) (float64, error) {
	s.DialgaOpts = dialga.Options{
		DisableSWPrefetch:     !sw,
		DisableBufferFriendly: !bf,
		DisableHWManagement:   true,
	}
	s.Strategy = StratDialga
	res, err := r.Run(s)
	if err != nil {
		return nan, err
	}
	return res.ThroughputGBps, nil
}
