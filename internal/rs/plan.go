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
// the row grouping.
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
// by one fused source sweep. cols lists the active source columns — the
// columns with a nonzero coefficient in at least one group row — and the
// packed tables (quad/pair) or raw coefficients (single rows) run
// parallel to it, so all-zero columns cost nothing.
type rowGroup struct {
	lo, n  int
	cols   []int
	quad   []gf.QuadTables
	pair   []gf.PairTables
	coeffs []byte
}

// encodePlan is a coefficient matrix compiled into fused row groups. A
// plan is immutable after buildPlan and safe for concurrent use; the
// encode plan of a Code is built once at New, and decode plans are built
// once per erasure pattern and cached.
type encodePlan struct {
	groups []rowGroup
}

// buildPlan compiles an r x c coefficient matrix into row groups for
// kernel family fam, recording only the active columns of each group:
// single rows for vectorFamily; for packedFamily greedily 4-row groups,
// then a 2-row group, then a single row (m=3 becomes 2+1, m=5 becomes
// 4+1, m=7 becomes 4+2+1).
func buildPlan(mat *ecmatrix.Matrix, fam kernelFamily) *encodePlan {
	p := &encodePlan{}
	for lo := 0; lo < mat.Rows; {
		n := 1
		switch rem := mat.Rows - lo; {
		case fam == vectorFamily:
		case rem >= 4:
			n = 4
		case rem >= 2:
			n = 2
		}
		g := rowGroup{lo: lo, n: n}
		for c := 0; c < mat.Cols; c++ {
			active := false
			for r := lo; r < lo+n; r++ {
				if mat.At(r, c) != 0 {
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
					mat.At(lo, c), mat.At(lo+1, c), mat.At(lo+2, c), mat.At(lo+3, c)))
			case 2:
				g.pair = append(g.pair, gf.MakePairTables(mat.At(lo, c), mat.At(lo+1, c)))
			default:
				g.coeffs = append(g.coeffs, mat.At(lo, c))
			}
		}
		p.groups = append(p.groups, g)
		lo += n
	}
	return p
}

// step computes the group's rows of the tile [off, off+t) of srcs into
// dst[r][doff:doff+t] for r < g.n, overwriting them. A single row
// accumulates straight into its output tile; a packed 2- or 4-row group
// accumulates into the interleaved accumulator acc (at least 4*t bytes)
// and transposes the result out once, so each source byte is loaded
// once per group (not once per row) and the accumulator never leaves L1.
func (g *rowGroup) step(dst [][]byte, doff int, acc []byte, srcs [][]byte, off, t int) {
	switch g.n {
	case 4:
		a := acc[:4*t]
		clear(a)
		for ci, col := range g.cols {
			g.quad[ci].MulAddQuad(a, srcs[col][off:off+t])
		}
		gf.Deinterleave4(a, dst[0][doff:doff+t], dst[1][doff:doff+t],
			dst[2][doff:doff+t], dst[3][doff:doff+t])
	case 2:
		a := acc[:2*t]
		clear(a)
		for ci, col := range g.cols {
			g.pair[ci].MulAddPair(a, srcs[col][off:off+t])
		}
		gf.Deinterleave2(a, dst[0][doff:doff+t], dst[1][doff:doff+t])
	default:
		d := dst[0][doff : doff+t]
		if len(g.cols) == 0 {
			clear(d)
			return
		}
		gf.MulSlice(g.coeffs[0], d, srcs[g.cols[0]][off:off+t])
		for ci := 1; ci < len(g.cols); ci++ {
			gf.MulSliceAdd(g.coeffs[ci], d, srcs[g.cols[ci]][off:off+t])
		}
	}
}

// apply computes dst[i] = sum_j mat[i][j]*srcs[j] for every plan row,
// overwriting dst. dst must hold one block per plan row and srcs one per
// matrix column, all of length size; dst blocks must not alias srcs.
func (p *encodePlan) apply(dst, srcs [][]byte, size int) {
	p.sweep(dst, srcs, size, nil, nil)
}

// sweep is the fused tile loop behind apply and the *Sum paths. It walks
// the blocks in L1-sized tiles, and within a tile every row group takes
// one step over its active columns, straight into its destination tiles.
//
// When srcSums is non-nil (one entry per source) the CRC-32C of each
// source block is folded into it in a per-tile epilogue, right after the
// row groups consumed those tiles — the bytes are still cache-resident,
// so the checksum re-read is served from L1/L2 instead of the DRAM (or
// persistent-memory) pass a separate whole-block checksum would cost.
// Likewise dstSums (one entry per plan row) accumulates each output
// row's CRC immediately after its tile is produced. Both start from the
// caller's values (zero for a fresh checksum), so a full sweep leaves
// exactly gf.CRC32C of each block — the single-pass replacement for a
// separate trailer pass over the stripe.
func (p *encodePlan) sweep(dst, srcs [][]byte, size int, srcSums, dstSums []uint32) {
	accp := accPool.Get().(*[]byte)
	acc := *accp
	for off := 0; off < size; off += tileSize {
		t := min(tileSize, size-off)
		for gi := range p.groups {
			g := &p.groups[gi]
			g.step(dst[g.lo:], off, acc, srcs, off, t)
			if dstSums != nil {
				for r := g.lo; r < g.lo+g.n; r++ {
					dstSums[r] = gf.CRC32CUpdate(dstSums[r], dst[r][off:off+t])
				}
			}
		}
		if srcSums != nil {
			for j, src := range srcs {
				srcSums[j] = gf.CRC32CUpdate(srcSums[j], src[off:off+t])
			}
		}
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
	defer func() {
		accPool.Put(accp)
		accPool.Put(outp)
	}()
	acc, out := *accp, *outp
	rows := [4][]byte{out, out[tileSize:], out[2*tileSize:], out[3*tileSize:]}
	for off := 0; off < size; off += tileSize {
		t := min(tileSize, size-off)
		for gi := range p.groups {
			g := &p.groups[gi]
			g.step(rows[:], 0, acc, srcs, off, t)
			for r := range g.n {
				if !bytes.Equal(rows[r][:t], expect[g.lo+r][off:off+t]) {
					return false
				}
			}
		}
	}
	return true
}
