// Package ecmatrix provides matrices over GF(2^8) for erasure-code
// construction: the systematic Cauchy generator matrix, Gaussian
// inversion for decoding, and the w=8 bitmatrix expansion used by
// XOR-based codecs (Jerasure/Zerasure/Cerasure lineage).
package ecmatrix

import (
	"errors"
	"fmt"

	"dialga/internal/gf"
)

// Matrix is a dense row-major matrix over GF(2^8).
type Matrix struct {
	Rows, Cols int
	Data       []byte // len Rows*Cols
}

// New returns a zero Rows x Cols matrix.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("ecmatrix: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]byte, rows*cols)}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) byte { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v byte) { m.Data[r*m.Cols+c] = v }

// Row returns row r as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) []byte { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	n := New(m.Rows, m.Cols)
	copy(n.Data, m.Data)
	return n
}

// identity returns the n x n identity matrix.
func identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Mul returns the matrix product a*b.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic("ecmatrix: dimension mismatch in Mul")
	}
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			mrow := gf.MulRow(av)
			for j := 0; j < b.Cols; j++ {
				orow[j] ^= mrow[brow[j]]
			}
		}
	}
	return out
}

// errSingular is returned when a matrix passed to Invert has no inverse,
// i.e. the chosen survivor set cannot reconstruct the stripe.
var errSingular = errors.New("ecmatrix: matrix is singular")

// Invert returns the inverse of a square matrix via Gauss-Jordan
// elimination, or errSingular.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.Rows != m.Cols {
		panic("ecmatrix: Invert on non-square matrix")
	}
	n := m.Rows
	work := m.Clone()
	inv := identity(n)
	for col := 0; col < n; col++ {
		// Find pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, errSingular
		}
		if pivot != col {
			swapRows(work, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Scale pivot row to 1.
		pv := work.At(col, col)
		if pv != 1 {
			scale := gf.Inv(pv)
			scaleRow(work.Row(col), scale)
			scaleRow(inv.Row(col), scale)
		}
		// Eliminate the column everywhere else.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := work.At(r, col)
			if f == 0 {
				continue
			}
			addScaledRow(work.Row(r), work.Row(col), f)
			addScaledRow(inv.Row(r), inv.Row(col), f)
		}
	}
	return inv, nil
}

func swapRows(m *Matrix, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

func scaleRow(row []byte, c byte) {
	mrow := gf.MulRow(c)
	for i := range row {
		row[i] = mrow[row[i]]
	}
}

func addScaledRow(dst, src []byte, c byte) {
	mrow := gf.MulRow(c)
	for i := range dst {
		dst[i] ^= mrow[src[i]]
	}
}

// SubMatrix returns the matrix formed by the given rows (in order).
func (m *Matrix) SubMatrix(rows []int) *Matrix {
	out := New(len(rows), m.Cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// Cauchy returns the (k+m) x k systematic Cauchy generator matrix:
// identity on top, and parity rows p[i][j] = 1/(x_i + y_j) with
// x_i = k+i, y_j = j, which are distinct elements of GF(2^8).
func Cauchy(k, m int) *Matrix {
	if k <= 0 || m < 0 || k+m > gf.FieldSize {
		panic(fmt.Sprintf("ecmatrix: invalid Cauchy parameters k=%d m=%d", k, m))
	}
	out := New(k+m, k)
	for i := 0; i < k; i++ {
		out.Set(i, i, 1)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			out.Set(k+i, j, gf.Inv(byte(k+i)^byte(j)))
		}
	}
	return out
}

// ParityRows returns the m x k parity portion of a systematic (k+m) x k
// generator matrix.
func ParityRows(gen *Matrix, k int) *Matrix {
	m := gen.Rows - k
	out := New(m, k)
	for i := 0; i < m; i++ {
		copy(out.Row(i), gen.Row(k+i))
	}
	return out
}
