package rs

import (
	"bytes"
	"sync"

	"dialga/internal/ecmatrix"
	"dialga/internal/gf"
)

// tileSize is how many bytes of each source block one tile pass covers.
// The working set of a 4-row group tile is the interleaved accumulator
// (4*tileSize = 16 KiB) plus the current source tile (4 KiB) plus the
// one packed table in flight (1 KiB) — comfortably L1-resident, which is
// what makes the read-modify-write accumulation cheap. 2 KiB and 8 KiB
// tiles measured within noise of 4 KiB on the bench machine; 4 KiB
// leaves the most L1 headroom as k grows.
const tileSize = 4096

// accPool serves the interleaved accumulator and de-interleave scratch
// tiles. Every buffer is 4*tileSize so one pool serves quad and pair
// groups alike.
var accPool = sync.Pool{
	New: func() any {
		b := make([]byte, 4*tileSize)
		return &b
	},
}

// kernelFamily is the gf kernel set a plan is compiled for. It decides
// the row grouping and how scheduleCost prices a schedule.
type kernelFamily int

const (
	// packedFamily groups rows 4/2/1 over packed multi-row tables, so
	// the portable word kernels load each source byte once per group.
	packedFamily kernelFamily = iota
	// vectorFamily makes every row its own group, swept by
	// gf.MulSlice/MulSliceAdd. Their AVX2 body multiplies 32 bytes per
	// step, faster than a packed table's byte lookups, and a single row
	// needs no interleaved accumulator and no de-interleave.
	vectorFamily
)

// hostFamily is the family the process's gf kernels run.
func hostFamily() kernelFamily {
	if gf.HasAVX2() {
		return vectorFamily
	}
	return packedFamily
}

// rowGroup is a run of 1, 2 or 4 consecutive plan rows advanced together
// by one fused source sweep. cols lists the active column indices — the
// columns with a nonzero coefficient in at least one group row, counting
// CSE temporaries as columns beyond the matrix width — and the packed
// tables (quad/pair) or raw coefficients (single rows) run parallel to
// it, so all-zero columns cost nothing.
type rowGroup struct {
	lo, n  int
	cols   []int
	quad   []gf.QuadTables
	pair   []gf.PairTables
	coeffs []byte
}

// encodePlan is a coefficient matrix compiled into fused row groups plus
// an optional CSE prologue of pooled temporary tiles. A plan is
// immutable after buildPlan and safe for concurrent use; the encode plan
// of a Code is built once at New, and decode plans are built once per
// erasure pattern and cached.
type encodePlan struct {
	rows, cols int
	temps      []tempDef  // CSE temporaries, evaluation order; empty for plain plans
	groups     []rowGroup // over cols + len(temps) logical columns
	tmp        *sync.Pool // temp-tile scratch (len(temps)*tileSize); nil without temps

	// cost prices the chosen schedule and plainCost the quad/pair
	// baseline, in scheduleCost units; cost < plainCost iff the CSE
	// schedule was adopted. Retained for tests and introspection.
	cost, plainCost int
}

// buildPlan compiles an r x c coefficient matrix into row groups for
// kernel family fam: single rows for vectorFamily; for packedFamily
// greedily 4-row groups, then a 2-row group, then a single row (m=3
// becomes 2+1, m=5 becomes 4+1, m=7 becomes 4+2+1). It then runs the
// greedy CSE pair extraction (cse.go) over the matrix and recompiles;
// the extracted schedule is kept only when it prices strictly cheaper
// under scheduleCost, otherwise the plain grouping stands.
func buildPlan(mat *ecmatrix.Matrix, fam kernelFamily) *encodePlan {
	rows := make([][]byte, mat.Rows)
	for i := range rows {
		rows[i] = append([]byte(nil), mat.Row(i)...)
	}
	p := &encodePlan{rows: mat.Rows, cols: mat.Cols}
	p.groups = compileGroups(rows, fam)
	p.plainCost = scheduleCost(p.groups, nil, fam)
	p.cost = p.plainCost

	cseRows, temps := cseExtract(rows)
	if len(temps) > 0 {
		cseGroups := compileGroups(cseRows, fam)
		if cseCost := scheduleCost(cseGroups, temps, fam); cseCost < p.plainCost {
			p.temps, p.groups, p.cost = temps, cseGroups, cseCost
			n := len(temps)
			p.tmp = &sync.Pool{New: func() any {
				b := make([]byte, n*tileSize)
				return &b
			}}
		}
	}
	return p
}

// compileGroups builds fam's row grouping over a row-major coefficient
// matrix, recording only the active columns of each group.
func compileGroups(rows [][]byte, fam kernelFamily) []rowGroup {
	var groups []rowGroup
	width := len(rows[0])
	for lo := 0; lo < len(rows); {
		n := 1
		switch rem := len(rows) - lo; {
		case fam == vectorFamily:
		case rem >= 4:
			n = 4
		case rem >= 2:
			n = 2
		}
		g := rowGroup{lo: lo, n: n}
		for c := 0; c < width; c++ {
			active := false
			for r := 0; r < n; r++ {
				if rows[lo+r][c] != 0 {
					active = true
					break
				}
			}
			if !active {
				continue
			}
			g.cols = append(g.cols, c)
			switch n {
			case 4:
				g.quad = append(g.quad, gf.MakeQuadTables(
					rows[lo][c], rows[lo+1][c], rows[lo+2][c], rows[lo+3][c]))
			case 2:
				g.pair = append(g.pair, gf.MakePairTables(rows[lo][c], rows[lo+1][c]))
			default:
				g.coeffs = append(g.coeffs, rows[lo][c])
			}
		}
		groups = append(groups, g)
		lo += n
	}
	return groups
}

// tile resolves a logical column to its current tile slice: source
// columns come from srcs, temporary columns from the tmp scratch laid
// out at tileSize stride.
func (p *encodePlan) tile(srcs [][]byte, tmp []byte, col, off, t int) []byte {
	if col < p.cols {
		return srcs[col][off : off+t]
	}
	i := col - p.cols
	return tmp[i*tileSize : i*tileSize+t]
}

// apply computes dst[i] = sum_j mat[i][j]*srcs[j] for every plan row,
// overwriting dst. dst must hold p.rows blocks and srcs p.cols blocks,
// all of length size; dst blocks must not alias srcs.
func (p *encodePlan) apply(dst, srcs [][]byte, size int) {
	p.sweep(dst, srcs, size, nil, nil)
}

// sweep is the fused tile loop behind apply and the *Sum paths. It walks
// the blocks in L1-sized tiles: within a tile the CSE temporaries (if
// any) are materialized first, then every row group sweeps its active
// columns. A single row accumulates straight into its destination tile;
// a packed 2- or 4-row group accumulates into a pooled interleaved
// accumulator and transposes the result out once, so each source byte
// is loaded once per group (not once per row) and the accumulator never
// leaves L1.
//
// When srcSums is non-nil (length p.cols) the CRC-32C of each source
// block is folded into it in a per-tile epilogue, right after the row
// groups consumed those tiles — the bytes are still cache-resident, so
// the checksum re-read is served from L1/L2 instead of the DRAM (or
// persistent-memory) pass a separate whole-block checksum would cost.
// Likewise dstSums (length p.rows) accumulates each output row's CRC
// immediately after its tile is produced. Both start from the caller's
// values (zero for a fresh checksum), so a full sweep leaves exactly
// gf.CRC32C of each block — the single-pass replacement for a separate
// trailer pass over the stripe.
func (p *encodePlan) sweep(dst, srcs [][]byte, size int, srcSums, dstSums []uint32) {
	accp := accPool.Get().(*[]byte)
	acc := *accp
	var tmpp *[]byte
	var tmp []byte
	if p.tmp != nil {
		tmpp = p.tmp.Get().(*[]byte)
		tmp = *tmpp
	}
	for off := 0; off < size; off += tileSize {
		t := min(tileSize, size-off)
		for ti := range p.temps {
			td := &p.temps[ti]
			gf.MulSliceXor(td.cb, tmp[ti*tileSize:ti*tileSize+t],
				p.tile(srcs, tmp, td.a, off, t), p.tile(srcs, tmp, td.b, off, t))
		}
		for gi := range p.groups {
			g := &p.groups[gi]
			switch g.n {
			case 4:
				a := acc[:4*t]
				clear(a)
				for ci, col := range g.cols {
					g.quad[ci].MulAddQuad(a, p.tile(srcs, tmp, col, off, t))
				}
				gf.Deinterleave4(a,
					dst[g.lo][off:off+t], dst[g.lo+1][off:off+t],
					dst[g.lo+2][off:off+t], dst[g.lo+3][off:off+t])
			case 2:
				a := acc[:2*t]
				clear(a)
				for ci, col := range g.cols {
					g.pair[ci].MulAddPair(a, p.tile(srcs, tmp, col, off, t))
				}
				gf.Deinterleave2(a, dst[g.lo][off:off+t], dst[g.lo+1][off:off+t])
			default:
				d := dst[g.lo][off : off+t]
				if len(g.cols) == 0 {
					clear(d)
					break
				}
				gf.MulSlice(g.coeffs[0], d, p.tile(srcs, tmp, g.cols[0], off, t))
				for ci := 1; ci < len(g.cols); ci++ {
					gf.MulSliceAdd(g.coeffs[ci], d, p.tile(srcs, tmp, g.cols[ci], off, t))
				}
			}
			if dstSums != nil {
				for r := 0; r < g.n; r++ {
					dstSums[g.lo+r] = gf.CRC32CUpdate(dstSums[g.lo+r], dst[g.lo+r][off:off+t])
				}
			}
		}
		if srcSums != nil {
			for j, src := range srcs {
				srcSums[j] = gf.CRC32CUpdate(srcSums[j], src[off:off+t])
			}
		}
	}
	if tmpp != nil {
		p.tmp.Put(tmpp)
	}
	accPool.Put(accp)
}

// verify recomputes the plan's outputs tile by tile into pooled scratch
// and compares them word-at-a-time against expect, returning false at
// the first tile row that differs — a mismatch near the front of the
// blocks is detected without touching the rest.
func (p *encodePlan) verify(expect, srcs [][]byte, size int) bool {
	accp := accPool.Get().(*[]byte)
	outp := accPool.Get().(*[]byte)
	var tmpp *[]byte
	var tmp []byte
	if p.tmp != nil {
		tmpp = p.tmp.Get().(*[]byte)
		tmp = *tmpp
	}
	defer func() {
		if tmpp != nil {
			p.tmp.Put(tmpp)
		}
		accPool.Put(accp)
		accPool.Put(outp)
	}()
	acc, out := *accp, *outp
	for off := 0; off < size; off += tileSize {
		t := min(tileSize, size-off)
		for ti := range p.temps {
			td := &p.temps[ti]
			gf.MulSliceXor(td.cb, tmp[ti*tileSize:ti*tileSize+t],
				p.tile(srcs, tmp, td.a, off, t), p.tile(srcs, tmp, td.b, off, t))
		}
		for gi := range p.groups {
			g := &p.groups[gi]
			switch g.n {
			case 4:
				a := acc[:4*t]
				clear(a)
				for ci, col := range g.cols {
					g.quad[ci].MulAddQuad(a, p.tile(srcs, tmp, col, off, t))
				}
				gf.Deinterleave4(a, out[:t], out[t:2*t], out[2*t:3*t], out[3*t:4*t])
				for r := 0; r < 4; r++ {
					if !bytes.Equal(out[r*t:(r+1)*t], expect[g.lo+r][off:off+t]) {
						return false
					}
				}
			case 2:
				a := acc[:2*t]
				clear(a)
				for ci, col := range g.cols {
					g.pair[ci].MulAddPair(a, p.tile(srcs, tmp, col, off, t))
				}
				gf.Deinterleave2(a, out[:t], out[t:2*t])
				if !bytes.Equal(out[:t], expect[g.lo][off:off+t]) ||
					!bytes.Equal(out[t:2*t], expect[g.lo+1][off:off+t]) {
					return false
				}
			default:
				d := out[:t]
				if len(g.cols) == 0 {
					clear(d)
				} else {
					gf.MulSlice(g.coeffs[0], d, p.tile(srcs, tmp, g.cols[0], off, t))
					for ci := 1; ci < len(g.cols); ci++ {
						gf.MulSliceAdd(g.coeffs[ci], d, p.tile(srcs, tmp, g.cols[ci], off, t))
					}
				}
				if !bytes.Equal(d, expect[g.lo][off:off+t]) {
					return false
				}
			}
		}
	}
	return true
}
