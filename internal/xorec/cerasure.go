package xorec

import (
	"fmt"

	"dialga/internal/ecmatrix"
	"dialga/internal/gf"
)

// NewCerasure constructs the Cerasure baseline encoder: a greedy
// steepest-descent search over row/column scalings (far fewer
// evaluations than Zerasure's annealing, converges for wide stripes),
// with smart scheduling.
func NewCerasure(k, m int) (*Encoder, error) {
	if k <= 0 || m <= 0 || k+m > gf.FieldSize {
		return nil, fmt.Errorf("xorec: invalid parameters k=%d m=%d", k, m)
	}
	rowScale, colScale := normalizeCauchy(k, m)
	base := ecmatrix.Cauchy(k, m)
	// Greedy passes: for each column then each row, pick the scale that
	// minimizes that line's bit weight given current other scales.
	// Repeat until a full pass yields no improvement (bounded passes).
	colWeight := func(j int, s byte) int {
		w := 0
		for i := 0; i < m; i++ {
			w += ecmatrix.ElementOnes(gf.Mul(gf.Mul(base.At(k+i, j), rowScale[i]), s))
		}
		return w
	}
	rowWeight := func(i int, s byte) int {
		w := 0
		for j := 0; j < k; j++ {
			w += ecmatrix.ElementOnes(gf.Mul(gf.Mul(base.At(k+i, j), s), colScale[j]))
		}
		return w
	}
	for pass := 0; pass < 4; pass++ {
		improved := false
		for j := 0; j < k; j++ {
			cur := colWeight(j, colScale[j])
			for s := 1; s < 256; s++ {
				if w := colWeight(j, byte(s)); w < cur {
					cur = w
					colScale[j] = byte(s)
					improved = true
				}
			}
		}
		for i := 0; i < m; i++ {
			cur := rowWeight(i, rowScale[i])
			for s := 1; s < 256; s++ {
				if w := rowWeight(i, byte(s)); w < cur {
					cur = w
					rowScale[i] = byte(s)
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	gen := scaledCauchy(k, m, rowScale, colScale)
	return NewEncoder(k, m, Options{Matrix: gen, SmartSchedule: true})
}

// Decomposed wraps an encoder family to implement the wide-stripe
// decomposition strategy used by Cerasure and by ISA-L-D (§5.1): the k
// data blocks are split into groups of at most width, each group is
// encoded to m partial parities with a narrow code, and the partial
// parities are XOR-combined into the stripe parity. Decomposition
// re-activates the hardware prefetcher (fewer concurrent streams) at the
// cost of extra partial-parity write and read traffic.
type Decomposed struct {
	k, m   int
	groups [][2]int   // [lo, hi) data ranges
	subs   []*Encoder // one narrow encoder per group
}

// defaultDecomposeWidth is the sub-stripe width used when none is given;
// chosen to sit inside the L2 stream prefetcher's comfortable tracking
// range (16 streams).
const defaultDecomposeWidth = 16

// NewDecomposed builds a decomposed encoder over groups of at most width
// data blocks. The combined code is the Cauchy code whose parity matrix
// columns are the concatenation of the groups' columns, so the overall
// stripe remains MDS.
func NewDecomposed(k, m, width int, build func(subK, subM int, cols *ecmatrix.Matrix) (*Encoder, error)) (*Decomposed, error) {
	if width <= 0 {
		width = defaultDecomposeWidth
	}
	if k <= 0 || m <= 0 || k+m > gf.FieldSize {
		return nil, fmt.Errorf("xorec: invalid parameters k=%d m=%d", k, m)
	}
	full := ecmatrix.Cauchy(k, m)
	parity := ecmatrix.ParityRows(full, k)
	d := &Decomposed{k: k, m: m}
	for lo := 0; lo < k; lo += width {
		hi := lo + width
		if hi > k {
			hi = k
		}
		subK := hi - lo
		// Build the sub-generator: identity on top, the full code's
		// parity columns [lo, hi) below, so partial parities XOR to the
		// stripe parity.
		gen := ecmatrix.New(subK+m, subK)
		for i := 0; i < subK; i++ {
			gen.Set(i, i, 1)
		}
		for i := 0; i < m; i++ {
			for j := 0; j < subK; j++ {
				gen.Set(subK+i, j, parity.At(i, lo+j))
			}
		}
		var enc *Encoder
		var err error
		if build != nil {
			enc, err = build(subK, m, gen)
		} else {
			enc, err = NewEncoder(subK, m, Options{Matrix: gen, SmartSchedule: true})
		}
		if err != nil {
			return nil, err
		}
		d.groups = append(d.groups, [2]int{lo, hi})
		d.subs = append(d.subs, enc)
	}
	return d, nil
}

// CombinedSchedule flattens the per-group schedules into one stripe
// schedule with global block numbering: data blocks 0..k-1, and group
// g's partial parity i at block k + g*m + i (group 0's partials double
// as the final parity blocks k..k+m-1). After the per-group schedules,
// recombination ops XOR the later groups' partials into group 0's.
// The result is what Program replays for a decomposed encoder: at any
// moment only one group's (≤ width) data streams are live, which is
// how decomposition re-activates the hardware prefetcher — at the cost
// of the extra partial-parity traffic the paper charges against the
// strategy.
func (d *Decomposed) CombinedSchedule() Schedule {
	var out Schedule
	for g, rng := range d.groups {
		lo := rng[0]
		subK := rng[1] - rng[0]
		for _, op := range d.subs[g].Schedule() {
			mapped := op
			if op.SrcBlock < subK {
				mapped.SrcBlock = lo + op.SrcBlock
			} else {
				mapped.SrcBlock = d.k + g*d.m + (op.SrcBlock - subK)
			}
			if op.DstBlock < subK {
				mapped.DstBlock = lo + op.DstBlock
			} else {
				mapped.DstBlock = d.k + g*d.m + (op.DstBlock - subK)
			}
			out = append(out, mapped)
		}
	}
	for g := 1; g < len(d.groups); g++ {
		for i := 0; i < d.m; i++ {
			for b := 0; b < W; b++ {
				out = append(out, XOROp{
					SrcBlock: d.k + g*d.m + i, SrcBit: b,
					DstBlock: d.k + i, DstBit: b,
				})
			}
		}
	}
	return out
}
