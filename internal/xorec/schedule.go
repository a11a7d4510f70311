package xorec

import "dialga/internal/ecmatrix"

// naiveSchedule converts a parity bitmatrix ((m*8) x (k*8)) into the
// straightforward schedule: each parity packet is a copy of its first
// source packet followed by XORs of the remaining sources. The cost is
// exactly one operation per set bit of the bitmatrix (copies included).
func naiveSchedule(bm *ecmatrix.BitMatrix, k, m int) Schedule {
	var sched Schedule
	for r := 0; r < bm.Rows; r++ {
		dstBlock := k + r/W
		dstBit := r % W
		first := true
		for c := 0; c < bm.Cols; c++ {
			if !bm.At(r, c) {
				continue
			}
			sched = append(sched, XOROp{
				SrcBlock: c / W,
				SrcBit:   c % W,
				DstBlock: dstBlock,
				DstBit:   dstBit,
				Copy:     first,
			})
			first = false
		}
	}
	return sched
}

// smartSchedule implements Jerasure-style delta ("smart") scheduling:
// when computing a parity packet, it may start from a previously
// computed parity packet whose source set differs minimally, XORing only
// the symmetric difference. This is the scheduling optimization Zerasure
// builds on. The result computes exactly the same parity packets, often
// with fewer operations on dense matrices.
func smartSchedule(bm *ecmatrix.BitMatrix, k, m int) Schedule {
	rows := bm.Rows
	cols := bm.Cols
	// rowBits[r] = set of source columns for parity row r.
	rowBits := make([][]bool, rows)
	for r := 0; r < rows; r++ {
		bits := make([]bool, cols)
		copy(bits, bm.Row(r))
		rowBits[r] = bits
	}
	ones := func(bits []bool) int {
		n := 0
		for _, b := range bits {
			if b {
				n++
			}
		}
		return n
	}
	diff := func(a, b []bool) int {
		n := 0
		for i := range a {
			if a[i] != b[i] {
				n++
			}
		}
		return n
	}

	computed := make([]bool, rows) // parity rows already produced
	var order []int
	var sched Schedule

	for len(order) < rows {
		// Pick the cheapest remaining row: min over (direct cost,
		// delta cost from any computed row).
		best, bestCost, bestBase := -1, 1<<30, -1
		for r := 0; r < rows; r++ {
			if computed[r] {
				continue
			}
			cost := ones(rowBits[r]) // copy + xors = ones ops
			base := -1
			for _, p := range order {
				d := diff(rowBits[r], rowBits[p]) + 1 // copy + delta xors
				if d < cost {
					cost = d
					base = p
				}
			}
			if cost < bestCost {
				best, bestCost, bestBase = r, cost, base
			}
		}
		r := best
		dstBlock := k + r/W
		dstBit := r % W
		if bestBase == -1 {
			// Direct evaluation.
			first := true
			for c := 0; c < cols; c++ {
				if !rowBits[r][c] {
					continue
				}
				sched = append(sched, XOROp{SrcBlock: c / W, SrcBit: c % W, DstBlock: dstBlock, DstBit: dstBit, Copy: first})
				first = false
			}
		} else {
			// Copy the base parity packet, then XOR the delta.
			b := bestBase
			sched = append(sched, XOROp{SrcBlock: k + b/W, SrcBit: b % W, DstBlock: dstBlock, DstBit: dstBit, Copy: true})
			for c := 0; c < cols; c++ {
				if rowBits[r][c] != rowBits[b][c] {
					sched = append(sched, XOROp{SrcBlock: c / W, SrcBit: c % W, DstBlock: dstBlock, DstBit: dstBit})
				}
			}
		}
		computed[r] = true
		order = append(order, r)
	}
	return sched
}
