package ecmatrix

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dialga/internal/gf"
)

func TestIdentityMul(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := New(5, 5)
	r.Read(m.Data)
	id := identity(5)
	left := Mul(id, m)
	right := Mul(m, id)
	for i := range m.Data {
		if left.Data[i] != m.Data[i] || right.Data[i] != m.Data[i] {
			t.Fatal("identity multiplication changed the matrix")
		}
	}
}

func TestInvertRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(12)
		m := New(n, n)
		// Random matrices over GF(256) are invertible with high
		// probability; retry until one is.
		var inv *Matrix
		var err error
		for {
			r.Read(m.Data)
			inv, err = m.Invert()
			if err == nil {
				break
			}
		}
		prod := Mul(m, inv)
		id := identity(n)
		for i := range prod.Data {
			if prod.Data[i] != id.Data[i] {
				t.Fatalf("m * m^-1 != I for n=%d", n)
			}
		}
	}
}

func TestInvertSingular(t *testing.T) {
	m := New(3, 3)
	// Two identical rows => singular.
	for c := 0; c < 3; c++ {
		m.Set(0, c, byte(c+1))
		m.Set(1, c, byte(c+1))
		m.Set(2, c, byte(7*c+3))
	}
	if _, err := m.Invert(); err != errSingular {
		t.Fatalf("expected errSingular, got %v", err)
	}
}

func systematicTopIsIdentity(t *testing.T, gen *Matrix, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			want := byte(0)
			if i == j {
				want = 1
			}
			if gen.At(i, j) != want {
				t.Fatalf("systematic top block not identity at (%d,%d)", i, j)
			}
		}
	}
}

// Every k x k submatrix of an MDS generator must be invertible; check a
// sample of survivor sets including all-parity-heavy ones.
func checkMDS(t *testing.T, gen *Matrix, k, m int) {
	t.Helper()
	r := rand.New(rand.NewSource(99))
	total := k + m
	for trial := 0; trial < 60; trial++ {
		rows := r.Perm(total)[:k]
		sub := gen.SubMatrix(rows)
		if _, err := sub.Invert(); err != nil {
			t.Fatalf("survivor set %v not invertible (k=%d m=%d)", rows, k, m)
		}
	}
}

func TestCauchySystematicMDS(t *testing.T) {
	for _, kp := range []struct{ k, m int }{{2, 2}, {4, 2}, {8, 4}, {10, 4}, {24, 4}, {48, 4}, {64, 4}, {20, 8}} {
		gen := Cauchy(kp.k, kp.m)
		systematicTopIsIdentity(t, gen, kp.k)
		checkMDS(t, gen, kp.k, kp.m)
	}
}

func TestParityRows(t *testing.T) {
	gen := Cauchy(6, 3)
	p := ParityRows(gen, 6)
	if p.Rows != 3 || p.Cols != 6 {
		t.Fatalf("ParityRows wrong shape %dx%d", p.Rows, p.Cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 6; j++ {
			if p.At(i, j) != gen.At(6+i, j) {
				t.Fatal("ParityRows content mismatch")
			}
		}
	}
}

// The bitmatrix expansion must agree with GF(2^8) arithmetic: multiplying
// the expanded matrix by the bit-decomposition of a vector equals the
// bit-decomposition of the GF product.
func TestBitMatrixMatchesFieldArithmetic(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	m := New(3, 4)
	r.Read(m.Data)
	bm := ToBitMatrix(m)
	if bm.Rows != 24 || bm.Cols != 32 {
		t.Fatalf("bitmatrix shape %dx%d", bm.Rows, bm.Cols)
	}
	for trial := 0; trial < 200; trial++ {
		x := make([]byte, 4)
		r.Read(x)
		xm := New(4, 1)
		copy(xm.Data, x)
		want := Mul(m, xm).Data // the 3×1 product, one byte per row
		xbits := make([]bool, 32)
		for j, v := range x {
			for i := 0; i < 8; i++ {
				xbits[j*8+i] = v&(1<<uint(i)) != 0
			}
		}
		gotBits := bm.BitMatrixVecMul(xbits)
		for rIdx, wv := range want {
			var got byte
			for i := 0; i < 8; i++ {
				if gotBits[rIdx*8+i] {
					got |= 1 << uint(i)
				}
			}
			if got != wv {
				t.Fatalf("bitmatrix product differs at row %d: got %d want %d", rIdx, got, wv)
			}
		}
	}
}

func TestBitMatrixIdentityExpansion(t *testing.T) {
	id := identity(3)
	bm := ToBitMatrix(id)
	for i := 0; i < 24; i++ {
		for j := 0; j < 24; j++ {
			if bm.At(i, j) != (i == j) {
				t.Fatalf("identity expansion has bit (%d,%d) = %v", i, j, bm.At(i, j))
			}
		}
	}
}

// Property: inverting twice returns the original matrix.
func TestQuickDoubleInvert(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		m := New(n, n)
		var inv *Matrix
		var err error
		for {
			r.Read(m.Data)
			inv, err = m.Invert()
			if err == nil {
				break
			}
		}
		back, err := inv.Invert()
		if err != nil {
			return false
		}
		for i := range m.Data {
			if back.Data[i] != m.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Cross-check Cauchy parity encoding against direct evaluation for a
// tiny code where parity has a closed form: with k=1 the single parity
// row must be a nonzero scalar (any survivor works).
func TestDegenerateSingleData(t *testing.T) {
	gen := Cauchy(1, 2)
	if gen.At(0, 0) != 1 {
		t.Fatal("systematic k=1 top must be [1]")
	}
	for i := 1; i < 3; i++ {
		if gen.At(i, 0) == 0 {
			t.Fatal("parity coefficient must be nonzero for MDS")
		}
	}
	_ = gf.Mul(gen.At(1, 0), 1)
}
