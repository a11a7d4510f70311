package rs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// familyCodes builds the same code under both kernel families.
func familyCodes(t testing.TB, k, m int) (packed, vector *Code) {
	t.Helper()
	packed, err := newCode(k, m, packedFamily)
	if err != nil {
		t.Fatal(err)
	}
	if vector, err = newCode(k, m, vectorFamily); err != nil {
		t.Fatal(err)
	}
	return packed, vector
}

// erasurePatterns returns every single and double erasure of n blocks
// (doubles only when m >= 2) plus extra random patterns of 1..m
// erasures.
func erasurePatterns(r *rand.Rand, n, m, extra int) [][]int {
	var pats [][]int
	for a := 0; a < n; a++ {
		pats = append(pats, []int{a})
		for b := a + 1; m >= 2 && b < n; b++ {
			pats = append(pats, []int{a, b})
		}
	}
	for i := 0; i < extra; i++ {
		pats = append(pats, r.Perm(n)[:1+r.Intn(m)])
	}
	return pats
}

// TestPlanFamiliesAgree holds the single-row plans the AVX2 kernels run
// against the packed 4/2/1 plans the portable kernels run, on random
// geometries (k <= 20, m <= 6, sizes across tile edges): encode parity
// and sums, ReconstructData and ReconstructSum for every erasure
// pattern, RebuildSum for every target, and Verify verdicts on clean and
// corrupted parity must be identical, and equal to the encoded stripe.
// A second pass does the same at plan level on matrices no code builds:
// proportional rows (every 2x2 minor zero) and random rows with zero
// coefficients.
func TestPlanFamiliesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	trials := 16
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		k, m := 1+r.Intn(20), 1+r.Intn(6)
		size := 1 + r.Intn(2*tileSize+100)
		packed, vector := familyCodes(t, k, m)
		geom := fmt.Sprintf("RS(%d,%d) size=%d", k, m, size)

		data, parity := makeStripe(r, k, m, size)
		wantSums, err := packed.EncodeSum(data, parity)
		if err != nil {
			t.Fatal(err)
		}
		_, got := makeStripe(r, k, m, size)
		gotSums, err := vector.EncodeSum(data, got)
		if err != nil {
			t.Fatal(err)
		}
		for i := range parity {
			if !bytes.Equal(got[i], parity[i]) {
				t.Fatalf("%s: parity %d differs between families", geom, i)
			}
		}
		for i := range wantSums {
			if gotSums[i] != wantSums[i] {
				t.Fatalf("%s: sum %d differs between families", geom, i)
			}
		}
		stripe := append(append([][]byte(nil), data...), parity...)

		for _, c := range []*Code{packed, vector} {
			if ok, err := c.Verify(data, parity); err != nil || !ok {
				t.Fatalf("%s fam=%d: clean stripe failed Verify: ok=%v err=%v", geom, c.fam, ok, err)
			}
			row, off := r.Intn(m), r.Intn(size)
			parity[row][off] ^= 0x5a
			if ok, err := c.Verify(data, parity); err != nil || ok {
				t.Fatalf("%s fam=%d: corrupt parity %d@%d passed Verify", geom, c.fam, row, off)
			}
			parity[row][off] ^= 0x5a
		}

		for _, pat := range erasurePatterns(r, k+m, m, 16) {
			var outs [2][][]byte
			var sums [2][]uint32
			for fi, c := range []*Code{packed, vector} {
				blocks := append([][]byte(nil), stripe...)
				for _, i := range pat {
					blocks[i] = nil
				}
				if err := c.ReconstructData(blocks); err != nil {
					t.Fatalf("%s fam=%d erase %v: %v", geom, c.fam, pat, err)
				}
				for i := 0; i < k; i++ {
					if !bytes.Equal(blocks[i], stripe[i]) {
						t.Fatalf("%s fam=%d erase %v: ReconstructData block %d wrong", geom, c.fam, pat, i)
					}
				}
				blocks = append([][]byte(nil), stripe...)
				for _, i := range pat {
					blocks[i] = nil
				}
				sums[fi] = make([]uint32, k+m)
				if err := c.ReconstructSum(blocks, sums[fi]); err != nil {
					t.Fatalf("%s fam=%d erase %v: %v", geom, c.fam, pat, err)
				}
				outs[fi] = blocks
			}
			for i := range stripe {
				if !bytes.Equal(outs[0][i], stripe[i]) || !bytes.Equal(outs[1][i], stripe[i]) {
					t.Fatalf("%s erase %v: ReconstructSum block %d differs", geom, pat, i)
				}
				if sums[0][i] != sums[1][i] {
					t.Fatalf("%s erase %v: ReconstructSum sum %d differs between families", geom, pat, i)
				}
			}
		}

		for want := 0; want < k+m; want++ {
			blocks := append([][]byte(nil), stripe...)
			for _, i := range r.Perm(k + m)[:r.Intn(m)] {
				blocks[i] = nil
			}
			var dsts [2][]byte
			var sums [2]uint32
			for fi, c := range []*Code{packed, vector} {
				dsts[fi] = make([]byte, size)
				if sums[fi], err = c.RebuildSum(blocks, want, dsts[fi]); err != nil {
					t.Fatalf("%s fam=%d rebuild %d: %v", geom, c.fam, want, err)
				}
			}
			if !bytes.Equal(dsts[0], stripe[want]) || !bytes.Equal(dsts[1], stripe[want]) || sums[0] != sums[1] {
				t.Fatalf("%s: RebuildSum of %d differs between families", geom, want)
			}
		}
	}

	for trial := 0; trial < 24; trial++ {
		rows, cols := 1+r.Intn(6), 1+r.Intn(20)
		mat := proportionalMatrix(rows, cols, int64(trial))
		if trial%2 == 1 {
			mat = matrixFromRows(randRows(r, rows, cols))
		}
		size := 1 + r.Intn(2*tileSize+100)
		srcs, _ := makeStripe(r, cols, 0, size)
		var outs [2][][]byte
		var sums [2][]uint32
		for fi, fam := range families {
			p := buildPlan(mat, fam)
			_, outs[fi] = makeStripe(r, 0, rows, size)
			sums[fi] = make([]uint32, rows)
			p.sweep(outs[fi], srcs, size, nil, sums[fi])
			if !p.verify(outs[fi], srcs, size) {
				t.Fatalf("trial %d fam=%d: verify rejected the plan's own output", trial, fam)
			}
		}
		want := refApply(mat, srcs, size)
		for i := range want {
			if !bytes.Equal(outs[0][i], want[i]) || !bytes.Equal(outs[1][i], want[i]) || sums[0][i] != sums[1][i] {
				t.Fatalf("trial %d %dx%d: plan row %d differs between families", trial, rows, cols, i)
			}
		}
	}
}

// randRows returns a rows x cols matrix of random coefficients, zeros
// included.
func randRows(r *rand.Rand, rows, cols int) [][]byte {
	out := make([][]byte, rows)
	for i := range out {
		out[i] = make([]byte, cols)
		r.Read(out[i])
	}
	return out
}
