package rs

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"

	"dialga/internal/ecmatrix"
	"dialga/internal/gf"
)

// matrixFromRows builds an ecmatrix from explicit byte rows.
func matrixFromRows(rows [][]byte) *ecmatrix.Matrix {
	m := ecmatrix.New(len(rows), len(rows[0]))
	for i, row := range rows {
		copy(m.Row(i), row)
	}
	return m
}

// proportionalMatrix builds rows x cols with row_i = lambda_i * base:
// every column pair shares its coefficient ratio across all rows, the
// best case for CSE extraction — shared subexpressions span every row
// group, so hoisting them shrinks each group's source sweep.
func proportionalMatrix(rows, cols int, seed int64) *ecmatrix.Matrix {
	r := rand.New(rand.NewSource(seed))
	base := make([]byte, cols)
	for j := range base {
		base[j] = byte(r.Intn(255)) + 1
	}
	m := ecmatrix.New(rows, cols)
	for i := 0; i < rows; i++ {
		lambda := byte(i) + 1
		for j := 0; j < cols; j++ {
			m.Set(i, j, gf.Mul(lambda, base[j]))
		}
	}
	return m
}

// refApply computes the plan's defining product with the scalar
// reference kernels, straight from the matrix.
func refApply(mat *ecmatrix.Matrix, srcs [][]byte, size int) [][]byte {
	out := make([][]byte, mat.Rows)
	for i := range out {
		out[i] = make([]byte, size)
		gf.RefDotSlice(mat.Row(i), out[i], srcs)
	}
	return out
}

// TestCSEAdoptedAndCorrect feeds the plan compiler a matrix where every
// pair is a cross-group common subexpression and checks that (a) the
// searched schedule is adopted because it prices strictly cheaper, and
// (b) the CSE sweep — temps, sparse groups, fused CRC — still produces
// exactly the reference product.
func TestCSEAdoptedAndCorrect(t *testing.T) {
	for _, fam := range families {
		testCSEAdoptedAndCorrect(t, fam)
	}
}

// families lists both kernel families, so plan tests hold for the one
// this machine does not run too.
var families = []kernelFamily{packedFamily, vectorFamily}

func testCSEAdoptedAndCorrect(t *testing.T, fam kernelFamily) {
	table := crc32.MakeTable(crc32.Castagnoli)
	for _, shape := range []struct{ rows, cols int }{{8, 8}, {6, 10}, {8, 4}} {
		mat := proportionalMatrix(shape.rows, shape.cols, int64(shape.rows*100+shape.cols))
		p := buildPlan(mat, fam)
		if len(p.temps) == 0 {
			t.Fatalf("%dx%d proportional matrix: CSE schedule not adopted", shape.rows, shape.cols)
		}
		if p.cost >= p.plainCost {
			t.Fatalf("%dx%d: adopted schedule cost %d not cheaper than plain %d",
				shape.rows, shape.cols, p.cost, p.plainCost)
		}
		r := rand.New(rand.NewSource(61))
		for _, size := range []int{1, 200, tileSize, 2*tileSize + 13} {
			srcs := make([][]byte, shape.cols)
			for i := range srcs {
				srcs[i] = make([]byte, size)
				r.Read(srcs[i])
			}
			dst := make([][]byte, shape.rows)
			for i := range dst {
				dst[i] = make([]byte, size)
			}
			want := refApply(mat, srcs, size)

			p.apply(dst, srcs, size)
			for i := range want {
				if !bytes.Equal(dst[i], want[i]) {
					t.Fatalf("%dx%d size=%d: CSE apply row %d differs from reference",
						shape.rows, shape.cols, size, i)
				}
			}
			if !p.verify(want, srcs, size) {
				t.Fatalf("%dx%d size=%d: CSE verify rejected correct rows", shape.rows, shape.cols, size)
			}

			srcSums := make([]uint32, shape.cols)
			dstSums := make([]uint32, shape.rows)
			for i := range dst {
				clear(dst[i])
			}
			p.sweep(dst, srcs, size, srcSums, dstSums)
			for i := range srcs {
				if want := crc32.Checksum(srcs[i], table); srcSums[i] != want {
					t.Fatalf("src sum %d = %08x, want %08x", i, srcSums[i], want)
				}
			}
			for i := range dst {
				if want := crc32.Checksum(dst[i], table); dstSums[i] != want {
					t.Fatalf("dst sum %d = %08x, want %08x", i, dstSums[i], want)
				}
			}
		}
	}
}

// TestCSEFallback: with only a 2-row packed group, hoisting a pair saves
// exactly what the temp costs (or less), so the searched schedule is
// never strictly cheaper and the plain grouping must stand. (Single-row
// plans price a pair shared by two rows as a win, so this is a property
// of the packed family.)
func TestCSEFallback(t *testing.T) {
	mat := proportionalMatrix(2, 8, 7)
	p := buildPlan(mat, packedFamily)
	if len(p.temps) != 0 {
		t.Fatalf("2-row proportional matrix: CSE adopted (cost %d vs plain %d), want fallback",
			p.cost, p.plainCost)
	}
	if p.cost != p.plainCost {
		t.Fatalf("fallback plan cost %d != plain cost %d", p.cost, p.plainCost)
	}
}

// TestPlanCostInvariant: whatever the compiler picks must never price
// worse than the plain schedule, across real generator matrices.
func TestPlanCostInvariant(t *testing.T) {
	for _, sh := range fusedShapes {
		for _, fk := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
			kind, fam := MatrixKind(fk[0]), families[fk[1]]
			c, err := newCode(sh.k, sh.m, kind, fam)
			if err != nil {
				t.Fatal(err)
			}
			if c.plan.cost > c.plan.plainCost {
				t.Fatalf("RS(%d,%d) kind=%d: chosen cost %d exceeds plain %d",
					sh.k, sh.m, kind, c.plan.cost, c.plan.plainCost)
			}
			if len(c.plan.temps) > 0 && c.plan.cost >= c.plan.plainCost {
				t.Fatalf("RS(%d,%d) kind=%d: CSE adopted without strict win", sh.k, sh.m, kind)
			}
		}
	}
}

// TestSparseColumnsSkipped: all-zero columns (and a fully zero single
// row) must cost nothing and still produce correct output.
func TestSparseColumnsSkipped(t *testing.T) {
	for _, fam := range families {
		testSparseColumnsSkipped(t, fam)
	}
}

func testSparseColumnsSkipped(t *testing.T, fam kernelFamily) {
	rows := [][]byte{
		{5, 0, 9, 0, 1},
		{7, 0, 3, 0, 2},
		{1, 0, 4, 0, 8},
		{2, 0, 6, 0, 9},
		{0, 0, 0, 0, 0},
	}
	mat := matrixFromRows(rows)
	p := buildPlan(mat, fam)
	for _, g := range p.groups {
		for _, col := range g.cols {
			if col == 1 || col == 3 {
				t.Fatalf("group at row %d swept all-zero column %d", g.lo, col)
			}
		}
	}
	const size = tileSize + 19
	r := rand.New(rand.NewSource(62))
	srcs := make([][]byte, 5)
	for i := range srcs {
		srcs[i] = make([]byte, size)
		r.Read(srcs[i])
	}
	dst := make([][]byte, 5)
	for i := range dst {
		dst[i] = make([]byte, size)
		r.Read(dst[i]) // dirty: zero row must be fully overwritten
	}
	p.apply(dst, srcs, size)
	want := refApply(mat, srcs, size)
	for i := range want {
		if !bytes.Equal(dst[i], want[i]) {
			t.Fatalf("sparse apply row %d differs from reference", i)
		}
	}
}

// TestCSEExtractRewriteInvariant: after extraction, evaluating the
// temporaries and the rewritten rows must reproduce the original linear
// map (checked symbolically on unit vectors).
func TestCSEExtractRewriteInvariant(t *testing.T) {
	mat := proportionalMatrix(8, 6, 9)
	orig := make([][]byte, mat.Rows)
	for i := range orig {
		orig[i] = append([]byte(nil), mat.Row(i)...)
	}
	work := make([][]byte, mat.Rows)
	for i := range work {
		work[i] = append([]byte(nil), mat.Row(i)...)
	}
	rewritten, temps := cseExtract(work)
	if len(temps) == 0 {
		t.Fatal("expected extraction on proportional matrix")
	}
	cols := mat.Cols
	// colVal[c][j]: coefficient of source j in logical column c.
	colVal := make([][]byte, cols+len(temps))
	for c := 0; c < cols; c++ {
		colVal[c] = make([]byte, cols)
		colVal[c][c] = 1
	}
	for ti, td := range temps {
		v := make([]byte, cols)
		for j := 0; j < cols; j++ {
			v[j] = colVal[td.a][j] ^ gf.Mul(td.cb, colVal[td.b][j])
		}
		colVal[cols+ti] = v
	}
	for i, row := range rewritten {
		for j := 0; j < cols; j++ {
			var got byte
			for c, coeff := range row {
				got ^= gf.Mul(coeff, colVal[c][j])
			}
			if got != orig[i][j] {
				t.Fatalf("row %d source %d: rewritten map %d != original %d", i, j, got, orig[i][j])
			}
		}
	}
}
