// Package isal provides the simulator entry-point programs that model
// Intel ISA-L's erasure-coding kernel (ec_encode_data) on the simulated
// testbed: its memory-access pattern, one read per data block and one
// table-lookup multiply-XOR per parity accumulator per 64 B.
//
// The real ISA-L dispatches among assembly entry points per instruction
// set; DIALGA statically extends those entry points with prefetching
// variants (§4.1.2). Program generates the kernel's access stream for
// the engine, parameterized by the same entry-point variants (plain,
// shuffled, software-prefetch, XPLine-expanded); DecomposedProgram
// models ISA-L-D. The bytes themselves are coded by package rs.
package isal

import (
	"dialga/internal/engine"
	"dialga/internal/mem"
	"dialga/internal/workload"
)

// KernelParams selects the entry-point variant of the encode kernel,
// mirroring DIALGA's statically generated ISA-L entry points (§4.1.2):
// the coordinator switches among them per stripe and passes the
// prefetch distance as a parameter.
type KernelParams struct {
	// Shuffle applies the static shuffle mapping: encode tasks are
	// reordered at 64 B cacheline granularity so the L2 stream
	// prefetcher never sees sequential runs — the lightweight
	// "hardware prefetcher off" switch (§4.2.2).
	Shuffle bool
	// SWPrefetch enables the branchless pipelined software prefetcher:
	// while processing cacheline task N, task N+PrefetchDistance is
	// prefetched (§4.1.2, Fig. 9).
	SWPrefetch bool
	// PrefetchDistance is d in cacheline tasks. DIALGA's hill climbing
	// starts at d=k.
	PrefetchDistance int
	// BufferFriendly applies the non-uniform distance of §4.3.2: the
	// first cacheline of each XPLine is prefetched firstLineBoost tasks
	// earlier, the rest restReduce tasks later.
	BufferFriendly bool
	// XPLineLoop expands the loop task granularity to one 256 B XPLine
	// per block per iteration (§4.3.3), trading single-thread latency
	// for read-buffer efficiency under pressure.
	XPLineLoop bool
	// PrefetchOverheadCycles models a naive (branching) software
	// prefetch interface; DIALGA's vectorized pointer pre-processing
	// keeps this at zero (§4.2.2).
	PrefetchOverheadCycles float64
}

// firstLineBoost is the paper's k+4 first-line distance expressed as
// a boost over d=k.
const firstLineBoost = 4

// restReduce is the distance reduction applied to non-first cachelines
// under buffer-friendly prefetching.
const restReduce = 2

// linesPerGroup returns the loop-expansion factor for the XPLine loop:
// the device's media line in cachelines (4 on Optane), capped so one
// group never exceeds a block.
func (p *Program) linesPerGroup() int {
	n := p.Cfg.PMLineSize / mem.CachelineSize
	if n < 1 {
		n = 1
	}
	if r := p.Layout.LinesPerBlock(); n > r {
		n = r
	}
	return n
}

// task is one cacheline load task: row r of block j.
type task struct {
	row int
	j   int
}

// Program generates the table-lookup kernel's access stream over a
// layout. One Op is one loop iteration: a full row (k loads, m stores)
// or, with XPLineLoop, an XPLine group (4k loads, 4m stores).
type Program struct {
	Layout *workload.Layout
	Cfg    *mem.Config
	Params KernelParams
	// OnStripe, if set, is invoked at each stripe boundary and may
	// mutate Params — the hook DIALGA's coordinator uses for
	// per-function-call strategy switching.
	OnStripe func(stripe int, p *KernelParams)
	// LRCLocalGroups, when positive, models LRC(k, m', l) encoding:
	// the layout's M parity blocks are the m' global plus l local
	// parities, and each data line additionally feeds one local XOR
	// (§4.1 "Other Coding Tasks").
	LRCLocalGroups int

	// Iteration state.
	stripe   int
	opIdx    int // op index within the stripe
	taskBase uint64

	// Cached per-stripe structure, rebuilt when mode changes.
	order    []task  // within-stripe load order
	opStart  []int   // first index in order of each op
	opRows   [][]int // distinct rows covered by each op
	modeShuf bool
	modeXP   bool
	built    bool
}

// NewProgram constructs a program over the layout with the given
// initial parameters.
func NewProgram(l *workload.Layout, cfg *mem.Config, params KernelParams) *Program {
	return &Program{Layout: l, Cfg: cfg, Params: params}
}

// DataBytes implements engine.Program.
func (p *Program) DataBytes() uint64 { return p.Layout.DataBytes() }

// rebuild constructs the within-stripe task order and op boundaries for
// the current parameters.
func (p *Program) rebuild() {
	R := p.Layout.LinesPerBlock()
	K := p.Layout.K
	p.order = p.order[:0]
	p.opStart = p.opStart[:0]
	p.opRows = p.opRows[:0]

	if p.Params.XPLineLoop {
		gsz := p.linesPerGroup()
		groups := (R + gsz - 1) / gsz
		perm := identity(groups)
		if p.Params.Shuffle {
			perm = staticShuffle(groups)
		}
		for _, g := range perm {
			lo := g * gsz
			hi := lo + gsz
			if hi > R {
				hi = R
			}
			p.opStart = append(p.opStart, len(p.order))
			rows := make([]int, 0, hi-lo)
			for r := lo; r < hi; r++ {
				rows = append(rows, r)
			}
			p.opRows = append(p.opRows, rows)
			// Block-major within the group: the whole XPLine of block
			// j is consumed before moving to block j+1, so the
			// implicit 256 B load is fully used before eviction.
			for j := 0; j < K; j++ {
				for r := lo; r < hi; r++ {
					p.order = append(p.order, task{row: r, j: j})
				}
			}
		}
	} else {
		perm := identity(R)
		if p.Params.Shuffle {
			perm = staticShuffle(R)
		}
		for _, r := range perm {
			p.opStart = append(p.opStart, len(p.order))
			p.opRows = append(p.opRows, []int{r})
			for j := 0; j < K; j++ {
				p.order = append(p.order, task{row: r, j: j})
			}
		}
	}
	p.modeShuf = p.Params.Shuffle
	p.modeXP = p.Params.XPLineLoop
	p.built = true
}

func identity(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// staticShuffle is the deterministic cacheline-task permutation of the
// shuffle mapping: a stride walk perm[i] = i*J mod n with J coprime to
// n and far from 1, so consecutive entries are never sequential in
// either direction and the stream prefetcher's confidence never builds
// — the "carefully designed" static mapping of §4.2.2.
func staticShuffle(n int) []int {
	if n <= 2 {
		// Too short to shuffle meaningfully; reverse order still
		// avoids ascending runs.
		perm := make([]int, n)
		for i := range perm {
			perm[i] = n - 1 - i
		}
		return perm
	}
	j := n/2 + 1
	for gcd(j, n) != 1 || j == 1 {
		j++
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = (i * j) % n
	}
	return perm
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// tasksPerStripe returns the number of cacheline load tasks per stripe.
func (p *Program) tasksPerStripe() uint64 {
	return uint64(p.Layout.LinesPerBlock() * p.Layout.K)
}

// loadAddrAt resolves a global task index to its load address,
// returning false past the end of the workload.
func (p *Program) loadAddrAt(idx uint64) (mem.Addr, bool) {
	tps := p.tasksPerStripe()
	s := int(idx / tps)
	if s >= p.Layout.Stripes {
		return 0, false
	}
	t := p.order[idx%tps]
	return p.Layout.Data[s][t.j] + mem.Addr(t.row*mem.CachelineSize), true
}

// Next implements engine.Program.
func (p *Program) Next(op *engine.Op) bool {
	if p.stripe >= p.Layout.Stripes {
		return false
	}
	if p.opIdx == 0 {
		if p.OnStripe != nil {
			p.OnStripe(p.stripe, &p.Params)
		}
		if !p.built || p.modeShuf != p.Params.Shuffle || p.modeXP != p.Params.XPLineLoop {
			p.rebuild()
		}
	}

	start := p.opStart[p.opIdx]
	end := len(p.order)
	if p.opIdx+1 < len(p.opStart) {
		end = p.opStart[p.opIdx+1]
	}
	chunk := p.order[start:end]
	rows := p.opRows[p.opIdx]

	// Software prefetches for the chunk d tasks ahead.
	if p.Params.SWPrefetch && p.Params.PrefetchDistance > 0 {
		d := uint64(p.Params.PrefetchDistance)
		op.PrefetchExtraCycles = p.Params.PrefetchOverheadCycles
		if !p.Params.BufferFriendly {
			for i := range chunk {
				target, ok := p.loadAddrAt(p.taskBase + uint64(i) + d)
				if !ok {
					continue // tail: revert to the standard entry point
				}
				op.SWPrefetches = append(op.SWPrefetches, target)
			}
		} else {
			// Non-uniform distances (§4.3.2): a line that opens an
			// XPLine is prefetched firstLineBoost tasks earlier (its
			// implicit 256 B load starts early); the remaining lines
			// restReduce tasks later (they only need the buffer hit).
			// Classifying by *target* keeps coverage exact: every task
			// is prefetched by exactly one predecessor.
			for i := range chunk {
				base := p.taskBase + uint64(i)
				if far, ok := p.loadAddrAt(base + d + firstLineBoost); ok &&
					uint64(far)%uint64(p.Cfg.PMLineSize) == 0 {
					op.SWPrefetches = append(op.SWPrefetches, far)
				}
				nearIdx := base + d
				if nearIdx > restReduce {
					nearIdx -= restReduce
				}
				if near, ok := p.loadAddrAt(nearIdx); ok &&
					uint64(near)%uint64(p.Cfg.PMLineSize) != 0 {
					op.SWPrefetches = append(op.SWPrefetches, near)
				}
			}
		}
	}

	// Demand loads.
	sAddrs := p.Layout.Data[p.stripe]
	for _, t := range chunk {
		op.Loads = append(op.Loads, sAddrs[t.j]+mem.Addr(t.row*mem.CachelineSize))
	}

	// Compute: k x m table-lookup multiply-accumulates per row (for
	// LRC, k x m' global products plus one local XOR per data line).
	gfParities := p.Layout.M
	if p.LRCLocalGroups > 0 {
		gfParities = p.Layout.M - p.LRCLocalGroups
	}
	op.ComputeCycles = float64(len(rows)*p.Layout.K*gfParities) *
		p.Cfg.VectorsPerLine() * p.Cfg.ComputeCycPerVecParity
	if p.LRCLocalGroups > 0 {
		op.ComputeCycles += float64(len(rows)*p.Layout.K) *
			p.Cfg.VectorsPerLine() * p.Cfg.XORCycPerVec
	}

	// Non-temporal parity stores, one line per parity per row.
	pAddrs := p.Layout.Parity[p.stripe]
	for i := 0; i < p.Layout.M; i++ {
		for _, r := range rows {
			op.Stores = append(op.Stores, pAddrs[i]+mem.Addr(r*mem.CachelineSize))
		}
	}

	p.taskBase += uint64(len(chunk))
	p.opIdx++
	if p.opIdx >= len(p.opStart) {
		p.opIdx = 0
		p.stripe++
	}
	return true
}
