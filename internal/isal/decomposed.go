package isal

import (
	"dialga/internal/engine"
	"dialga/internal/mem"
	"dialga/internal/workload"
)

// DecomposedProgram models ISA-L-D (§5.1): wide-stripe encoding split
// into sub-stripes of at most Width data blocks. The first group
// encodes parity directly; each subsequent group reloads the parity
// (written with non-temporal stores, so the reload is a PM read) and
// accumulates into it — the "parity reloading" and amplified write
// traffic the paper charges against the decompose strategy (§5.7),
// in exchange for keeping the concurrent stream count low enough to
// re-activate the hardware prefetcher.
type DecomposedProgram struct {
	Layout *workload.Layout
	Cfg    *mem.Config
	Width  int

	groups [][2]int
	stripe int
	group  int
	row    int
}

// NewDecomposedProgram constructs the ISA-L-D access program. A width
// of 0 selects 16, the L2 stream prefetcher's comfortable range.
func NewDecomposedProgram(l *workload.Layout, cfg *mem.Config, width int) *DecomposedProgram {
	if width <= 0 {
		width = 16
	}
	p := &DecomposedProgram{Layout: l, Cfg: cfg, Width: width}
	for lo := 0; lo < l.K; lo += width {
		hi := lo + width
		if hi > l.K {
			hi = l.K
		}
		p.groups = append(p.groups, [2]int{lo, hi})
	}
	return p
}

// DataBytes implements engine.Program.
func (p *DecomposedProgram) DataBytes() uint64 { return p.Layout.DataBytes() }

// Next implements engine.Program: one op per (group, row).
func (p *DecomposedProgram) Next(op *engine.Op) bool {
	if p.stripe >= p.Layout.Stripes {
		return false
	}
	g := p.groups[p.group]
	lo, hi := g[0], g[1]
	kg := hi - lo
	rowOff := mem.Addr(p.row * mem.CachelineSize)

	data := p.Layout.Data[p.stripe]
	for j := lo; j < hi; j++ {
		op.Loads = append(op.Loads, data[j]+rowOff)
	}
	parity := p.Layout.Parity[p.stripe]
	if p.group > 0 {
		// Parity reload: the previous group's NT-stored parity comes
		// back from the device.
		for i := 0; i < p.Layout.M; i++ {
			op.Loads = append(op.Loads, parity[i]+rowOff)
		}
	}
	op.ComputeCycles = float64(kg*p.Layout.M) * p.Cfg.VectorsPerLine() * p.Cfg.ComputeCycPerVecParity
	if p.group > 0 {
		// Accumulating into reloaded parity adds one XOR pass.
		op.ComputeCycles += float64(p.Layout.M) * p.Cfg.VectorsPerLine() * p.Cfg.XORCycPerVec
	}
	for i := 0; i < p.Layout.M; i++ {
		op.Stores = append(op.Stores, parity[i]+rowOff)
	}

	p.row++
	if p.row >= p.Layout.LinesPerBlock() {
		p.row = 0
		p.group++
		if p.group >= len(p.groups) {
			p.group = 0
			p.stripe++
		}
	}
	return true
}
