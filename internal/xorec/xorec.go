// Package xorec implements XOR-based (bitmatrix) erasure codecs in the
// Jerasure lineage, together with the two optimized baselines the DIALGA
// paper compares against:
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
// paper identifies as their weakness on PM (§2.2).
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

// XORCount returns the number of non-copy operations in the schedule.
func (s Schedule) XORCount() int {
	n := 0
	for _, op := range s {
		if !op.Copy {
			n++
		}
	}
	return n
}

// Encoder is an XOR-based encoder for RS(k+m, k) with w=8.
type Encoder struct {
	k, m     int
	gen      *ecmatrix.Matrix    // (k+m) x k systematic generator over GF(2^8)
	parityBM *ecmatrix.BitMatrix // (m*8) x (k*8) parity bitmatrix
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
	parity := ecmatrix.ParityRows(gen, k)
	bm := ecmatrix.ToBitMatrix(parity)
	e := &Encoder{k: k, m: m, gen: gen.Clone(), parityBM: bm}
	if opts.SmartSchedule {
		e.schedule = SmartSchedule(bm, k, m)
	} else {
		e.schedule = NaiveSchedule(bm, k, m)
	}
	return e, nil
}

// K returns the data block count.
func (e *Encoder) K() int { return e.k }

// M returns the parity block count.
func (e *Encoder) M() int { return e.m }

// Schedule returns the encoder's XOR schedule (shared storage; treat as
// read-only).
func (e *Encoder) Schedule() Schedule { return e.schedule }

// ParityBitMatrix returns the parity bitmatrix (shared storage; treat as
// read-only).
func (e *Encoder) ParityBitMatrix() *ecmatrix.BitMatrix { return e.parityBM }

// XORCount returns the number of packet XORs per stripe.
func (e *Encoder) XORCount() int { return e.schedule.XORCount() }

var errPacketAlign = errors.New("xorec: block size must be a positive multiple of 8")

// Encode computes parity blocks from data blocks. Block sizes must be
// equal and a multiple of W (=8) bytes so each block splits into 8
// bit-row packets.
func (e *Encoder) Encode(data, parity [][]byte) error {
	size, err := checkStripe(data, parity, e.k, e.m)
	if err != nil {
		return err
	}
	return executeSchedule(e.schedule, data, parity, size)
}

// EncodeAppend allocates and returns the parity blocks.
func (e *Encoder) EncodeAppend(data [][]byte) ([][]byte, error) {
	if len(data) != e.k {
		return nil, fmt.Errorf("xorec: got %d data blocks, want %d", len(data), e.k)
	}
	if len(data) == 0 || len(data[0]) == 0 {
		return nil, errPacketAlign
	}
	parity := make([][]byte, e.m)
	for i := range parity {
		parity[i] = make([]byte, len(data[0]))
	}
	if err := e.Encode(data, parity); err != nil {
		return nil, err
	}
	return parity, nil
}

func checkStripe(data, parity [][]byte, k, m int) (int, error) {
	if len(data) != k {
		return 0, fmt.Errorf("xorec: got %d data blocks, want %d", len(data), k)
	}
	if len(parity) != m {
		return 0, fmt.Errorf("xorec: got %d parity blocks, want %d", len(parity), m)
	}
	size := -1
	for _, b := range data {
		if size == -1 {
			size = len(b)
		}
		if len(b) != size {
			return 0, errors.New("xorec: data blocks must be equally sized")
		}
	}
	for _, b := range parity {
		if len(b) != size {
			return 0, errors.New("xorec: parity blocks must match data block size")
		}
	}
	if size <= 0 || size%W != 0 {
		return 0, errPacketAlign
	}
	return size, nil
}

// executeSchedule runs the packet operations. blocks are addressed with
// the schedule's numbering: 0..k-1 data, k.. parity.
func executeSchedule(sched Schedule, data, parity [][]byte, size int) error {
	ps := size / W
	packet := func(block, bit int) []byte {
		var b []byte
		if block < len(data) {
			b = data[block]
		} else {
			b = parity[block-len(data)]
		}
		return b[bit*ps : (bit+1)*ps]
	}
	for _, op := range sched {
		src := packet(op.SrcBlock, op.SrcBit)
		dst := packet(op.DstBlock, op.DstBit)
		if op.Copy {
			copy(dst, src)
		} else {
			gf.AddSlice(dst, src)
		}
	}
	return nil
}

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

// Decoder holds a decode schedule for a specific erasure pattern.
type Decoder struct {
	k, m      int
	survivors []int
	missing   []int
	schedule  Schedule
	bm        *ecmatrix.BitMatrix
}

// NewDecoder builds a decoder for the given erasure pattern (stripe
// indices of missing blocks) from the encoder's generator matrix. The
// decode bitmatrix is derived from the inverted survivor matrix — the
// paper notes (§5.4) its density is not optimized by encoding-side
// searches, which is why XOR decode underperforms.
func (e *Encoder) NewDecoder(missing []int) (*Decoder, error) {
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
	bm := ecmatrix.ToBitMatrix(dec)
	sched := NaiveSchedule(bm, e.k, len(missingSorted))
	return &Decoder{k: e.k, m: e.m, survivors: survivors, missing: missingSorted, schedule: sched, bm: bm}, nil
}

// Schedule returns the decode schedule.
func (d *Decoder) Schedule() Schedule { return d.schedule }

// BitMatrix returns the decode bitmatrix.
func (d *Decoder) BitMatrix() *ecmatrix.BitMatrix { return d.bm }

// Decode reconstructs the missing blocks. blocks is the full stripe
// (k+m entries, stripe order) with nil at missing positions; outputs are
// written into freshly allocated slices placed back into blocks.
func (d *Decoder) Decode(blocks [][]byte) error {
	if len(blocks) != d.k+d.m {
		return fmt.Errorf("xorec: stripe has %d blocks, want %d", len(blocks), d.k+d.m)
	}
	size := -1
	for _, s := range d.survivors {
		if blocks[s] == nil {
			return fmt.Errorf("xorec: survivor block %d is nil", s)
		}
		if size == -1 {
			size = len(blocks[s])
		} else if len(blocks[s]) != size {
			return errors.New("xorec: survivor blocks must be equally sized")
		}
	}
	if size <= 0 || size%W != 0 {
		return errPacketAlign
	}
	srcs := make([][]byte, d.k)
	for i, s := range d.survivors {
		srcs[i] = blocks[s]
	}
	outs := make([][]byte, len(d.missing))
	for i := range outs {
		outs[i] = make([]byte, size)
	}
	if err := executeSchedule(d.schedule, srcs, outs, size); err != nil {
		return err
	}
	for i, idx := range d.missing {
		blocks[idx] = outs[i]
	}
	return nil
}
