package xorec

import (
	"math"
	"math/rand"

	"dialga/internal/ecmatrix"
	"dialga/internal/gf"
)

// scaledCauchy builds the systematic generator whose parity portion is
// the Cauchy matrix with row i scaled by rowScale[i] and column j scaled
// by colScale[j]. All scales must be nonzero; scaling by nonzero field
// elements preserves the MDS property (every square submatrix of a
// Cauchy matrix stays nonsingular under nonzero row/column scaling).
func scaledCauchy(k, m int, rowScale, colScale []byte) *ecmatrix.Matrix {
	gen := ecmatrix.Cauchy(k, m)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			v := gen.At(k+i, j)
			v = gf.Mul(v, rowScale[i])
			v = gf.Mul(v, colScale[j])
			gen.Set(k+i, j, v)
		}
	}
	return gen
}

// parityOnes returns the XOR weight (bitmatrix ones) of the parity
// portion of a scaled Cauchy matrix without materializing the bitmatrix.
func parityOnes(k, m int, rowScale, colScale []byte) int {
	base := ecmatrix.Cauchy(k, m)
	total := 0
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			v := gf.Mul(gf.Mul(base.At(k+i, j), rowScale[i]), colScale[j])
			total += ecmatrix.ElementOnes(v)
		}
	}
	return total
}

// normalizeCauchy applies the classic "good Cauchy" normalization: scale
// each column so the first parity row becomes all ones, then scale each
// remaining row by the inverse of its lightest element. This is
// Zerasure's deterministic starting point before annealing.
func normalizeCauchy(k, m int) (rowScale, colScale []byte) {
	base := ecmatrix.Cauchy(k, m)
	colScale = make([]byte, k)
	for j := 0; j < k; j++ {
		colScale[j] = gf.Inv(base.At(k, j))
	}
	rowScale = make([]byte, m)
	rowScale[0] = 1
	for i := 1; i < m; i++ {
		// Choose the row scale minimizing the row's bit weight.
		best, bestW := byte(1), 1<<30
		for s := 1; s < 256; s++ {
			w := 0
			for j := 0; j < k; j++ {
				v := gf.Mul(gf.Mul(base.At(k+i, j), byte(s)), colScale[j])
				w += ecmatrix.ElementOnes(v)
			}
			if w < bestW {
				best, bestW = byte(s), w
			}
		}
		rowScale[i] = best
	}
	return rowScale, colScale
}

// ZerasureOptions tunes the simulated-annealing search.
type ZerasureOptions struct {
	// Iterations of the annealing loop. Zero selects a default that
	// scales with the matrix size.
	Iterations int
	// Seed for the deterministic search.
	Seed int64
	// MaxK bounds the stripe width the search will attempt; Zerasure's
	// search space explodes for wide stripes and the paper reports
	// missing results for k > 32 (§5.2.1). Zero selects 32.
	MaxK int
}

// searchSpaceError is returned by NewZerasure for stripes wider than the
// search can converge on, mirroring the paper's missing wide-stripe
// results for Zerasure.
type searchSpaceError struct{ K, MaxK int }

func (e searchSpaceError) Error() string {
	return "xorec: zerasure annealing does not converge for k > maxK"
}

// NewZerasure constructs the Zerasure baseline encoder: normalization +
// simulated annealing over row/column scalings to minimize bitmatrix
// ones, with smart scheduling on the result.
func NewZerasure(k, m int, opts ZerasureOptions) (*Encoder, error) {
	maxK := opts.MaxK
	if maxK == 0 {
		maxK = 32
	}
	if k > maxK {
		return nil, searchSpaceError{K: k, MaxK: maxK}
	}
	// Zerasure's annealing starts from the raw Cauchy matrix rather
	// than the normalized one; with a bounded iteration budget this
	// lands on heavier matrices than Cerasure's greedy-from-normalized
	// search, which is the narrow-stripe weakness the paper observes
	// ("suboptimal encoding matrix", §5.2.1).
	rowScale := make([]byte, m)
	colScale := make([]byte, k)
	for i := range rowScale {
		rowScale[i] = 1
	}
	for j := range colScale {
		colScale[j] = 1
	}
	iters := opts.Iterations
	if iters == 0 {
		iters = 60 * (k + m)
	}
	r := rand.New(rand.NewSource(opts.Seed + 0x5ea))
	cur := parityOnes(k, m, rowScale, colScale)
	best := cur
	bestRow := append([]byte(nil), rowScale...)
	bestCol := append([]byte(nil), colScale...)
	t0 := float64(cur) * 0.05
	for it := 0; it < iters; it++ {
		temp := t0 * math.Pow(0.995, float64(it))
		// Neighbor: perturb one random scale.
		var idx int
		var old byte
		isRow := r.Intn(k+m) < m
		if isRow {
			idx = r.Intn(m)
			old = rowScale[idx]
			rowScale[idx] = byte(1 + r.Intn(255))
		} else {
			idx = r.Intn(k)
			old = colScale[idx]
			colScale[idx] = byte(1 + r.Intn(255))
		}
		next := parityOnes(k, m, rowScale, colScale)
		accept := next <= cur
		if !accept && temp > 0 {
			accept = r.Float64() < math.Exp(float64(cur-next)/temp)
		}
		if accept {
			cur = next
			if cur < best {
				best = cur
				copy(bestRow, rowScale)
				copy(bestCol, colScale)
			}
		} else {
			if isRow {
				rowScale[idx] = old
			} else {
				colScale[idx] = old
			}
		}
	}
	gen := scaledCauchy(k, m, bestRow, bestCol)
	return NewEncoder(k, m, Options{Matrix: gen, SmartSchedule: true})
}
