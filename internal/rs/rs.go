// Package rs implements systematic Reed-Solomon erasure coding over
// GF(2^8) in the RS(k+m, k) configuration used throughout the DIALGA
// paper: k data blocks are encoded into m parity blocks forming a stripe
// of k+m blocks, any k of which suffice to reconstruct the stripe.
//
// The generator is systematic Cauchy. At New time its m x k parity
// coefficients are compiled into an encode plan for the gf kernel family
// the process runs, and Encode walks the stripe in L1-sized tiles, each
// row group taking one tile step at a time; Verify runs the same step
// into scratch and stops at the first tile that differs. Where gf has
// its AVX2 body (ISA-L's gf_vect_mad), every parity row is its own
// group, swept 32 bytes per VPSHUFB step. Elsewhere the plan follows the
// fused-kernel strategy of ISA-L's gf_4vect_dot_prod lineage: rows
// grouped 4/2/1-wide with packed multi-row lookup tables, so each data
// byte is loaded once per row group instead of once per parity row.
// Decoding compiles the same kind of plan per erasure pattern and caches
// it, so steady-state repair shares the encode kernels and performs no
// table or matrix work per call. A plan is exactly the coefficient
// rows: an MDS matrix has no zero 2x2 minor, so no two rows share a
// column pair at one ratio and there is no common subexpression to
// hoist (DESIGN.md records the measurement).
package rs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dialga/internal/ecmatrix"
	"dialga/internal/gf"
)

// Code is an RS(k+m, k) code instance. The coding parameters are
// immutable; an internal decode-plan cache makes repeated repairs of the
// same erasure pattern cheap. Code is safe for concurrent use.
type Code struct {
	k, m   int
	gen    *ecmatrix.Matrix // (k+m) x k systematic generator
	parity *ecmatrix.Matrix // m x k parity rows
	plan   *encodePlan      // fused tiled encode plan over the parity rows
	fam    kernelFamily     // the family every plan of this code is built for

	mu       sync.RWMutex
	decode   map[erasureKey]*decodeEntry
	useClock atomic.Uint64 // LRU clock for decode-plan eviction
}

// New constructs an RS code with k data and m parity blocks using a
// systematic Cauchy generator matrix, MDS for all k+m <= 256.
func New(k, m int) (*Code, error) { return newCode(k, m, hostFamily()) }

// newCode is New with the kernel family named, so tests can build both
// families on one machine.
func newCode(k, m int, fam kernelFamily) (*Code, error) {
	if k <= 0 {
		return nil, fmt.Errorf("rs: k must be positive, got %d", k)
	}
	if m <= 0 {
		return nil, fmt.Errorf("rs: m must be positive, got %d", m)
	}
	if k+m > gf.FieldSize {
		return nil, fmt.Errorf("rs: k+m = %d exceeds field size %d", k+m, gf.FieldSize)
	}
	gen := ecmatrix.Cauchy(k, m)
	parity := ecmatrix.ParityRows(gen, k)
	return &Code{
		k:      k,
		m:      m,
		gen:    gen,
		parity: parity,
		plan:   buildPlan(parity, fam),
		fam:    fam,
		decode: make(map[erasureKey]*decodeEntry),
	}, nil
}

// K returns the number of data blocks per stripe.
func (c *Code) K() int { return c.k }

// M returns the number of parity blocks per stripe.
func (c *Code) M() int { return c.m }

var (
	// ErrBlockCount indicates the slice-of-blocks argument has the
	// wrong number of blocks for this code.
	ErrBlockCount = errors.New("rs: wrong number of blocks")
	// ErrBlockSize indicates blocks of differing (or zero) lengths.
	ErrBlockSize = errors.New("rs: blocks must be non-empty and equally sized")
	// ErrTooManyErasures indicates more than m blocks are missing.
	ErrTooManyErasures = errors.New("rs: more erasures than parity blocks")
)

// checkBlocks validates a stripe that may contain missing blocks
// (length zero) and returns the common size of the present ones.
func checkBlocks(blocks [][]byte, want int) (int, error) {
	if len(blocks) != want {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrBlockCount, len(blocks), want)
	}
	size := -1
	for _, b := range blocks {
		if len(b) == 0 {
			continue
		}
		if size == -1 {
			size = len(b)
		} else if len(b) != size {
			return 0, ErrBlockSize
		}
	}
	if size <= 0 {
		return 0, ErrBlockSize
	}
	return size, nil
}

// checkPresent validates a block set in which every block must be
// present and equally sized.
func checkPresent(blocks [][]byte, want int) (int, error) {
	if len(blocks) != want {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrBlockCount, len(blocks), want)
	}
	size := len(blocks[0])
	if size == 0 {
		return 0, ErrBlockSize
	}
	for _, b := range blocks[1:] {
		if len(b) != size {
			return 0, ErrBlockSize
		}
	}
	return size, nil
}

func (c *Code) checkEncodeArgs(data, parity [][]byte) (int, error) {
	size, err := checkPresent(data, c.k)
	if err != nil {
		return 0, err
	}
	if len(parity) != c.m {
		return 0, fmt.Errorf("%w: got %d parity blocks, want %d", ErrBlockCount, len(parity), c.m)
	}
	for _, p := range parity {
		if len(p) != size {
			return 0, ErrBlockSize
		}
	}
	return size, nil
}

// Encode computes the m parity blocks for the given k data blocks,
// writing into parity (which must contain m slices of the data block
// size). The steady-state path allocates nothing: tile scratch comes
// from an internal pool.
func (c *Code) Encode(data, parity [][]byte) error {
	size, err := c.checkEncodeArgs(data, parity)
	if err != nil {
		return err
	}
	c.plan.apply(parity, data, size)
	return nil
}

// EncodeSum computes parity and the CRC-32C (Castagnoli) checksum of
// every block of the stripe in a single fused pass, returning k+m sums
// in stripe order (data 0..k-1, then parity k..k+m-1). Each 4 KiB tile
// is checksummed while it is L1-resident for the GF sweep, so the
// stripe is read once instead of once for parity and once for trailers.
// The sums are bit-identical to gf.CRC32C over each whole block.
func (c *Code) EncodeSum(data, parity [][]byte) ([]uint32, error) {
	sums := make([]uint32, c.k+c.m)
	if err := c.EncodeSumInto(sums, data, parity); err != nil {
		return nil, err
	}
	return sums, nil
}

// EncodeSumInto is EncodeSum writing into a caller-supplied sums slice
// of length k+m — the allocation-free form the streaming encoder's
// workers use. sums is overwritten.
func (c *Code) EncodeSumInto(sums []uint32, data, parity [][]byte) error {
	size, err := c.checkEncodeArgs(data, parity)
	if err != nil {
		return err
	}
	if len(sums) != c.k+c.m {
		return fmt.Errorf("%w: got %d sums, want k+m=%d", ErrBlockCount, len(sums), c.k+c.m)
	}
	clear(sums)
	c.plan.sweep(parity, data, size, sums[:c.k], sums[c.k:])
	return nil
}

// EncodeRef computes the same parity as Encode using the scalar
// byte-at-a-time reference kernels, one independent dot-product pass per
// parity row. It is the pre-fused-kernel implementation, retained as the
// differential-testing and benchmarking baseline.
func (c *Code) EncodeRef(data, parity [][]byte) error {
	if _, err := c.checkEncodeArgs(data, parity); err != nil {
		return err
	}
	for i := 0; i < c.m; i++ {
		gf.RefDotSlice(c.parity.Row(i), parity[i], data)
	}
	return nil
}

// EncodeAppend is a convenience wrapper that allocates and returns the
// parity blocks.
func (c *Code) EncodeAppend(data [][]byte) ([][]byte, error) {
	size, err := checkPresent(data, c.k)
	if err != nil {
		return nil, err
	}
	parity := make([][]byte, c.m)
	for i := range parity {
		parity[i] = make([]byte, size)
	}
	if err := c.Encode(data, parity); err != nil {
		return nil, err
	}
	return parity, nil
}

// Verify reports whether the parity blocks are consistent with the data
// blocks. Parity is recomputed tile by tile into pooled scratch and
// compared word-at-a-time, returning false at the first mismatching
// tile without recomputing the remainder of the stripe.
func (c *Code) Verify(data, parity [][]byte) (bool, error) {
	size, err := checkPresent(data, c.k)
	if err != nil {
		return false, err
	}
	if len(parity) != c.m {
		return false, ErrBlockCount
	}
	for _, p := range parity {
		if len(p) != size {
			return false, ErrBlockSize
		}
	}
	return c.plan.verify(parity, data, size), nil
}

// Reconstruct repairs a stripe in place. blocks must hold k+m entries in
// stripe order (data blocks 0..k-1 then parity k..k+m-1); missing blocks
// are nil or zero-length. On success every missing entry is replaced
// with its reconstructed content; a zero-length entry with capacity >=
// the block size has its backing array reused, so a caller that recycles
// stripes can repair without per-call allocation. At most m entries may
// be missing.
func (c *Code) Reconstruct(blocks [][]byte) error {
	return c.reconstruct(blocks, true, nil)
}

// ReconstructSum is Reconstruct with fused checksums for the repair
// path: sums must hold k+m entries, and for every block the call
// rebuilds, sums[i] is set to the block's CRC-32C folded during the
// same tile sweep that produced the bytes. Entries for blocks that were
// already present are left untouched.
func (c *Code) ReconstructSum(blocks [][]byte, sums []uint32) error {
	if len(sums) != c.k+c.m {
		return fmt.Errorf("%w: got %d sums, want k+m=%d", ErrBlockCount, len(sums), c.k+c.m)
	}
	return c.reconstruct(blocks, true, sums)
}

// ReconstructData repairs only the data blocks of a stripe in place,
// skipping parity rebuilds — the fast path for serving reads from a
// degraded stripe. blocks follows the Reconstruct convention; on return
// blocks[0:k] are all present.
func (c *Code) ReconstructData(blocks [][]byte) error {
	return c.reconstruct(blocks, false, nil)
}

func (c *Code) reconstruct(blocks [][]byte, withParity bool, sums []uint32) error {
	size, err := checkBlocks(blocks, c.k+c.m)
	if err != nil {
		return err
	}
	key, missing := erasureKeyOf(blocks)
	if missing == 0 {
		return nil
	}
	if missing > c.m {
		return fmt.Errorf("%w: %d missing, m=%d", ErrTooManyErasures, missing, c.m)
	}
	e, err := c.decodeEntryFor(key)
	if err != nil {
		return err
	}
	if len(e.missingData) == 0 && !withParity {
		return nil
	}
	sc := reconPool.Get().(*reconScratch)
	if len(e.missingData) > 0 {
		srcs := sc.srcs[:0]
		for _, idx := range e.chosen {
			srcs = append(srcs, blocks[idx])
		}
		dsts := sc.dsts[:0]
		for _, idx := range e.missingData {
			blocks[idx] = outBuf(blocks[idx], size)
			dsts = append(dsts, blocks[idx])
		}
		sc.srcs, sc.dsts = srcs, dsts
		e.dataPlan.sweep(dsts, srcs, size, nil, sc.sumViews(sums, e.missingData))
		sc.scatterSums(sums, e.missingData)
	}
	if withParity && len(e.missingParity) > 0 {
		dsts := sc.dsts[:0]
		for _, idx := range e.missingParity {
			blocks[idx] = outBuf(blocks[idx], size)
			dsts = append(dsts, blocks[idx])
		}
		sc.dsts = dsts
		// Data is complete now, so missing parity is plain re-encoding.
		e.parityPlan.sweep(dsts, blocks[:c.k], size, nil, sc.sumViews(sums, e.missingParity))
		sc.scatterSums(sums, e.missingParity)
	}
	sc.release()
	return nil
}

// RebuildSum computes block want of a stripe into dst — and nothing
// else — from the first k present blocks other than want, returning
// dst's CRC-32C folded during the same tile sweep. blocks follows the
// Reconstruct convention (k+m entries, nil or zero-length where
// absent); blocks[want] is ignored, and absent blocks that are not
// wanted are never rebuilt, so the cost is one 1×k row over the
// survivors whatever else the stripe is missing. The row is compiled
// once per (survivor set, want) and cached with the whole-stripe decode
// plans, after which the call allocates nothing. dst sets the block
// size and must not alias a source.
func (c *Code) RebuildSum(blocks [][]byte, want int, dst []byte) (uint32, error) {
	if len(blocks) != c.k+c.m {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrBlockCount, len(blocks), c.k+c.m)
	}
	if want < 0 || want >= c.k+c.m {
		return 0, fmt.Errorf("rs: rebuild index %d out of range [0,%d)", want, c.k+c.m)
	}
	size := len(dst)
	if size == 0 {
		return 0, ErrBlockSize
	}
	key := erasureKey{want: want}
	present := 0
	for i, b := range blocks {
		if i == want || len(b) == 0 || present == c.k {
			key.mark(i)
			continue
		}
		if len(b) != size {
			return 0, ErrBlockSize
		}
		present++
	}
	if present < c.k {
		return 0, fmt.Errorf("%w: %d of k=%d source blocks present", ErrTooManyErasures, present, c.k)
	}
	e, err := c.decodeEntryFor(key)
	if err != nil {
		return 0, err
	}
	sc := reconPool.Get().(*reconScratch)
	for _, idx := range e.chosen {
		sc.srcs = append(sc.srcs, blocks[idx])
	}
	sc.dsts = append(sc.dsts, dst)
	sc.sums = append(sc.sums[:0], 0)
	e.rowPlan.sweep(sc.dsts, sc.srcs, size, nil, sc.sums)
	sum := sc.sums[0]
	sc.release()
	return sum, nil
}
