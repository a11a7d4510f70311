package rs

import (
	"bytes"
	"math/rand"
	"testing"

	"dialga/internal/ecmatrix"
	"dialga/internal/gf"
)

// families lists both kernel families, so plan tests hold for the one
// this machine does not run too.
var families = []kernelFamily{packedFamily, vectorFamily}

// matrixFromRows builds an ecmatrix from explicit byte rows.
func matrixFromRows(rows [][]byte) *ecmatrix.Matrix {
	m := ecmatrix.New(len(rows), len(rows[0]))
	for i, row := range rows {
		copy(m.Row(i), row)
	}
	return m
}

// proportionalMatrix builds rows x cols with row_i = lambda_i * base:
// every column pair shares its coefficient ratio across all rows, so
// every 2x2 minor is zero — as far from an MDS matrix as a dense matrix
// gets.
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
