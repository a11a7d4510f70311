// Package xorec builds the packet XOR schedules of XOR-based
// (bitmatrix) erasure codecs in the Jerasure lineage, together with the
// two optimized baselines the DIALGA paper compares against:
//
//   - Zerasure (Zhou & Tian, FAST'19): matrix normalization plus a
//     simulated-annealing search over column/row scalings to minimize the
//     XOR count, combined with smart (delta) scheduling.
//   - Cerasure (Niu et al., ICCD'23): greedy scaling search with fewer
//     evaluations, plus wide-stripe decomposition that splits encoding
//     into narrower sub-stripes and combines partial parities.
//
// Unlike the table-lookup strategy (package isal), XOR codecs convert
// each GF(2^8) coefficient into an 8x8 bit block and evaluate parity as a
// sequence of packet-level XOR operations. This reads data packets
// repeatedly from different locations — the larger memory footprint the
// paper identifies as their weakness on PM (§2.2). The simulator replays
// a schedule's accesses (Program); the package's tests run schedules on
// bytes to check that they compute the code.
package xorec

import (
	"errors"
	"fmt"

	"dialga/internal/ecmatrix"
	"dialga/internal/gf"
)

// W is the bit width of the field; sub-blocks ("packets") per block.
const W = 8

// XOROp is one packet-level operation in an encoding schedule.
// Destination packet (DstBlock, DstBit) is overwritten (Copy) or
// accumulated (XOR) with source packet (SrcBlock, SrcBit).
//
// Block numbering: 0..k-1 are data blocks, k..k+m-1 are parity blocks
// (so schedules can reference previously computed parity packets).
type XOROp struct {
	SrcBlock, SrcBit int
	DstBlock, DstBit int
	Copy             bool
}

// Schedule is an ordered list of packet XOR operations computing all
// parity packets. Its length is the XOR-count cost metric.
type Schedule []XOROp

// Encoder holds the XOR encode schedule of an RS(k+m, k) code with w=8.
type Encoder struct {
	k, m     int
	gen      *ecmatrix.Matrix // (k+m) x k systematic generator over GF(2^8)
	schedule Schedule
}

// Options configures Encoder construction.
type Options struct {
	// Matrix overrides the generator matrix; nil selects a systematic
	// Cauchy matrix.
	Matrix *ecmatrix.Matrix
	// SmartSchedule enables delta scheduling (reuse of previously
	// computed parity packets); naive scheduling otherwise.
	SmartSchedule bool
}

// NewEncoder builds an XOR encoder for k data and m parity blocks.
func NewEncoder(k, m int, opts Options) (*Encoder, error) {
	if k <= 0 || m <= 0 || k+m > gf.FieldSize {
		return nil, fmt.Errorf("xorec: invalid parameters k=%d m=%d", k, m)
	}
	gen := opts.Matrix
	if gen == nil {
		gen = ecmatrix.Cauchy(k, m)
	}
	if gen.Rows != k+m || gen.Cols != k {
		return nil, fmt.Errorf("xorec: generator must be %dx%d, got %dx%d", k+m, k, gen.Rows, gen.Cols)
	}
	bm := ecmatrix.ToBitMatrix(ecmatrix.ParityRows(gen, k))
	e := &Encoder{k: k, m: m, gen: gen.Clone()}
	if opts.SmartSchedule {
		e.schedule = smartSchedule(bm, k, m)
	} else {
		e.schedule = naiveSchedule(bm, k, m)
	}
	return e, nil
}

// Schedule returns the encoder's XOR schedule (shared storage; treat as
// read-only).
func (e *Encoder) Schedule() Schedule { return e.schedule }

// LRCSchedule extends an encoder's schedule with l local XOR parities
// (§4.1 "Other Coding Tasks"): data blocks are divided into l groups
// and each group's XOR is written to an additional parity packet. The
// combined schedule computes m global + l local parities into blocks
// k..k+m+l-1 (locals after globals). l must divide k.
func (e *Encoder) LRCSchedule(l int) (Schedule, error) {
	if l <= 0 || e.k%l != 0 {
		return nil, fmt.Errorf("xorec: l=%d must divide k=%d", l, e.k)
	}
	// The global schedule writes blocks k..k+m-1; locals follow it.
	groupSize := e.k / l
	out := make(Schedule, 0, len(e.schedule)+l*groupSize*W)
	out = append(out, e.schedule...)
	for g := 0; g < l; g++ {
		lo := g * groupSize
		dst := e.k + e.m + g
		for bit := 0; bit < W; bit++ {
			for j := 0; j < groupSize; j++ {
				out = append(out, XOROp{
					SrcBlock: lo + j, SrcBit: bit,
					DstBlock: dst, DstBit: bit,
					Copy: j == 0,
				})
			}
		}
	}
	return out, nil
}

// DecodeSchedule builds the schedule that rebuilds the given erasure
// pattern (stripe indices of missing blocks) from the encoder's
// generator matrix. It reads the first k surviving blocks in stripe
// order as its blocks 0..k-1 and writes the missing blocks, in stripe
// order, as its blocks k and up. The decode bitmatrix is derived from
// the inverted survivor matrix — the paper notes (§5.4) its density is
// not optimized by encoding-side searches, which is why XOR decode
// underperforms.
func (e *Encoder) DecodeSchedule(missing []int) (Schedule, error) {
	if len(missing) == 0 {
		return nil, errors.New("xorec: nothing to decode")
	}
	if len(missing) > e.m {
		return nil, fmt.Errorf("xorec: %d erasures exceed m=%d", len(missing), e.m)
	}
	isMissing := make(map[int]bool, len(missing))
	for _, i := range missing {
		if i < 0 || i >= e.k+e.m {
			return nil, fmt.Errorf("xorec: erasure index %d out of range", i)
		}
		isMissing[i] = true
	}
	var survivors []int
	for i := 0; i < e.k+e.m && len(survivors) < e.k; i++ {
		if !isMissing[i] {
			survivors = append(survivors, i)
		}
	}
	if len(survivors) < e.k {
		return nil, fmt.Errorf("xorec: only %d survivors for k=%d", len(survivors), e.k)
	}
	sub := e.gen.SubMatrix(survivors)
	inv, err := sub.Invert()
	if err != nil {
		return nil, err
	}
	// Rows to reconstruct: for data block d, row = inv.Row(d); for a
	// missing parity p, row = parityRow(p) * inv (coefficients over the
	// survivors).
	var missingSorted []int
	for i := 0; i < e.k+e.m; i++ {
		if isMissing[i] {
			missingSorted = append(missingSorted, i)
		}
	}
	dec := ecmatrix.New(len(missingSorted), e.k)
	parityM := ecmatrix.ParityRows(e.gen, e.k)
	for r, idx := range missingSorted {
		if idx < e.k {
			copy(dec.Row(r), inv.Row(idx))
			continue
		}
		// parity row composed with inverse.
		prow := parityM.Row(idx - e.k)
		for j := 0; j < e.k; j++ {
			var acc byte
			for t := 0; t < e.k; t++ {
				acc ^= gf.Mul(prow[t], inv.At(t, j))
			}
			dec.Set(r, j, acc)
		}
	}
	return naiveSchedule(ecmatrix.ToBitMatrix(dec), e.k, len(missingSorted)), nil
}
