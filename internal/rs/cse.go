package rs

import "dialga/internal/gf"

// Common-subexpression elimination over the byte coefficient matrix —
// the GF(2^8) generalization of the XOR-pair extraction in
// internal/xorec/cse.go (Uezato, SC'21). Two columns j1 < j2 form a
// common subexpression for row i whenever both coefficients are nonzero:
// with r = m[i][j2] / m[i][j1], the row's contribution
//
//	m[i][j1]*x_j1 + m[i][j2]*x_j2 == m[i][j1] * (x_j1 + r*x_j2)
//
// so every row sharing the same ratio r for the pair (j1, j2) can read
// one precomputed temporary t = x_j1 + r*x_j2 instead of two sources.
// The search greedily extracts the (j1, j2, r) triple shared by the most
// rows, appends t as a fresh matrix column (temporaries may themselves
// pair with sources or other temporaries in later iterations), and
// repeats until no triple is shared by at least two rows.
//
// Whether the extracted schedule is actually cheaper than the plain
// quad/pair-grouped sweep is a separate question — a pair must vanish
// across a *whole* row group before the group's source sweep shrinks —
// so buildPlan compiles both schedules, prices them with scheduleCost,
// and keeps the plain one unless the CSE schedule strictly wins.

// tempDef describes one pooled temporary tile: t = s(a) ^ cb * s(b),
// where s(i) is source column i for i < cols and temporary i-cols
// otherwise. Temporaries only reference earlier temporaries, so
// evaluating them in definition order is always valid.
type tempDef struct {
	a, b int
	cb   byte
}

// cseExtract runs the greedy pair extraction over a row-major
// coefficient matrix, returning the rewritten (widened) rows and the
// temporary definitions, in evaluation order. rows is mutated.
func cseExtract(rows [][]byte) ([][]byte, []tempDef) {
	var temps []tempDef
	for {
		best, bestN := tempDef{}, 1
		counts := make(map[tempDef]int)
		width := len(rows[0])
		for _, row := range rows {
			for a := 0; a < width; a++ {
				if row[a] == 0 {
					continue
				}
				for b := a + 1; b < width; b++ {
					if row[b] == 0 {
						continue
					}
					cand := tempDef{a: a, b: b, cb: gf.Div(row[b], row[a])}
					counts[cand]++
					// Strict > with deterministic row/column iteration
					// keeps the extraction order stable across runs.
					if counts[cand] > bestN {
						best, bestN = cand, counts[cand]
					}
				}
			}
		}
		if bestN < 2 {
			return rows, temps
		}
		for i, row := range rows {
			rows[i] = append(row, 0)
			row = rows[i]
			if row[best.a] != 0 && row[best.b] != 0 &&
				gf.Div(row[best.b], row[best.a]) == best.cb {
				row[width] = row[best.a]
				row[best.a], row[best.b] = 0, 0
			}
		}
		temps = append(temps, best)
	}
}

// scheduleCost prices a compiled schedule for kernel family fam in table
// lookups + memory touches per tile byte — the two quantities the
// kernels spend. Per active column of a row group the kernels perform
// one table lookup (packed for a multi-row group, a VPSHUFB nibble pair
// for a vectorFamily row), one source load, and one destination
// read-modify-write (3 units). A packedFamily group additionally clears
// and de-interleaves its accumulator once per row (2 units per row,
// equal across candidate schedules since grouping never changes row
// count); a vectorFamily row is written in place and pays neither. Each
// temporary costs one load per operand plus one store, plus a lookup
// unless its coefficient is 1 (plain XOR).
func scheduleCost(groups []rowGroup, temps []tempDef, fam kernelFamily) int {
	cost := 0
	for _, td := range temps {
		cost += 3
		if td.cb != 1 {
			cost++
		}
	}
	for gi := range groups {
		g := &groups[gi]
		cost += 3 * len(g.cols)
		if fam == packedFamily {
			cost += 2 * g.n
		}
	}
	return cost
}
