package ecmatrix

import "dialga/internal/gf"

// BitMatrix is a matrix over GF(2) used by XOR-based codecs. A w=8
// expansion maps each GF(2^8) element to an 8x8 binary block, so a
// (k+m) x k generator over GF(2^8) becomes an (8(k+m)) x (8k) bitmatrix
// whose parity portion drives pure-XOR encoding.
type BitMatrix struct {
	Rows, Cols int
	Bits       []bool // row-major
}

// newBitMatrix returns a zero bitmatrix.
func newBitMatrix(rows, cols int) *BitMatrix {
	return &BitMatrix{Rows: rows, Cols: cols, Bits: make([]bool, rows*cols)}
}

// At returns bit (r, c).
func (b *BitMatrix) At(r, c int) bool { return b.Bits[r*b.Cols+c] }

// Set assigns bit (r, c).
func (b *BitMatrix) Set(r, c int, v bool) { b.Bits[r*b.Cols+c] = v }

// Row returns row r aliasing internal storage.
func (b *BitMatrix) Row(r int) []bool { return b.Bits[r*b.Cols : (r+1)*b.Cols] }

// elementColumns returns the 8x8 binary expansion of e: column j of the
// block is the bit pattern of e * x^j, matching Jerasure's
// jerasure_matrix_to_bitmatrix construction for w=8.
func elementColumns(e byte) [8]byte {
	var cols [8]byte
	v := e
	for j := 0; j < 8; j++ {
		cols[j] = v
		v = gf.Mul(v, 2)
	}
	return cols
}

// ElementOnes returns the number of set bits in the 8x8 binary expansion
// of e — the XOR weight contribution of a single GF(2^8) coefficient.
func ElementOnes(e byte) int {
	cols := elementColumns(e)
	n := 0
	for _, c := range cols {
		for v := c; v != 0; v &= v - 1 {
			n++
		}
	}
	return n
}

// ToBitMatrix expands a GF(2^8) matrix into its w=8 binary form.
func ToBitMatrix(m *Matrix) *BitMatrix {
	const w = 8
	out := newBitMatrix(m.Rows*w, m.Cols*w)
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			cols := elementColumns(m.At(r, c))
			for j := 0; j < w; j++ {
				col := cols[j]
				for i := 0; i < w; i++ {
					if col&(1<<uint(i)) != 0 {
						out.Set(r*w+i, c*w+j, true)
					}
				}
			}
		}
	}
	return out
}

// BitMatrixVecMul multiplies the bitmatrix by a bit-vector (one bool per
// column) over GF(2); used for verifying the expansion against GF(2^8)
// arithmetic in tests.
func (b *BitMatrix) BitMatrixVecMul(x []bool) []bool {
	if len(x) != b.Cols {
		panic("ecmatrix: bit vector length mismatch")
	}
	out := make([]bool, b.Rows)
	for r := 0; r < b.Rows; r++ {
		row := b.Row(r)
		acc := false
		for c, v := range row {
			if v && x[c] {
				acc = !acc
			}
		}
		out[r] = acc
	}
	return out
}
