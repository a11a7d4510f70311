package rs

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dialga/internal/ecmatrix"
)

// maxDecodeEntries bounds the per-Code decode-plan cache. Real stripes
// cycle through a handful of erasure patterns (a failed device erases
// the same block index in every stripe), so 64 patterns is far more than
// steady state needs while keeping worst-case memory bounded.
const maxDecodeEntries = 64

// erasureKey names one compiled decoder: the bitmap of block indices
// that are not sources (k+m <= 256, so 32 bytes always suffice) and,
// for a single-target rebuild, the wanted index. A whole-stripe decode
// has want == -1 and every absent block in the bitmap; a rebuild marks
// everything but its k chosen survivors, so the key is exactly
// (survivor set, target).
type erasureKey struct {
	missing [32]byte
	want    int
}

func (k *erasureKey) mark(i int)     { k.missing[i>>3] |= 1 << (i & 7) }
func (k *erasureKey) has(i int) bool { return k.missing[i>>3]&(1<<(i&7)) != 0 }

// erasureKeyOf returns the missing-block bitmap and the number of
// missing blocks. A block is missing when its length is zero: nil, or a
// zero-length slice whose capacity the decoder may reuse as the output
// buffer.
func erasureKeyOf(blocks [][]byte) (erasureKey, int) {
	key := erasureKey{want: -1}
	missing := 0
	for i, b := range blocks {
		if len(b) == 0 {
			key.mark(i)
			missing++
		}
	}
	return key, missing
}

// decodeEntry is the compiled decoder for one erasure pattern: the
// survivor blocks chosen as sources, plus fused plans for the missing
// data rows (inverted-submatrix coefficients over the survivors) and the
// missing parity rows (generator coefficients over the repaired data).
// A single-target rebuild compiles only rowPlan. Entries are immutable
// once built and shared across goroutines; used is the LRU stamp,
// refreshed on every cache hit.
type decodeEntry struct {
	chosen        []int // k survivor stripe indices, ascending
	missingData   []int
	missingParity []int
	dataPlan      *encodePlan // nil when no data block is missing
	parityPlan    *encodePlan // nil when no parity block is missing
	rowPlan       *encodePlan // rebuild: the one row gen[want]·inv(gen[chosen])
	used          atomic.Uint64
}

// decodeEntryFor returns the cached decoder for the erasure pattern,
// building and inserting it on first use. Every hit refreshes the
// entry's LRU stamp, and a full cache evicts the least-recently-used
// entry — so the steady-state pattern of a failed device is never
// displaced by a churn of one-off patterns.
func (c *Code) decodeEntryFor(key erasureKey) (*decodeEntry, error) {
	c.mu.RLock()
	e := c.decode[key]
	c.mu.RUnlock()
	if e != nil {
		e.used.Store(c.useClock.Add(1))
		return e, nil
	}
	e, err := c.buildDecodeEntry(key)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if prev := c.decode[key]; prev != nil {
		e = prev // lost a build race; keep the established entry
	} else {
		if len(c.decode) >= maxDecodeEntries {
			var coldKey erasureKey
			coldUsed := uint64(0)
			first := true
			for k, cand := range c.decode {
				if u := cand.used.Load(); first || u < coldUsed {
					coldKey, coldUsed, first = k, u, false
				}
			}
			delete(c.decode, coldKey)
		}
		c.decode[key] = e
	}
	c.mu.Unlock()
	e.used.Store(c.useClock.Add(1))
	return e, nil
}

func (c *Code) buildDecodeEntry(key erasureKey) (*decodeEntry, error) {
	e := &decodeEntry{}
	for i := 0; i < c.k+c.m; i++ {
		switch {
		case key.has(i):
			if i < c.k {
				e.missingData = append(e.missingData, i)
			} else {
				e.missingParity = append(e.missingParity, i)
			}
		case len(e.chosen) < c.k:
			e.chosen = append(e.chosen, i)
		}
	}
	if key.want >= 0 || len(e.missingData) > 0 {
		sub := c.gen.SubMatrix(e.chosen)
		inv, err := sub.Invert()
		if err != nil {
			// Cannot happen for an MDS generator; surface it anyway.
			return nil, fmt.Errorf("rs: survivor matrix singular: %w", err)
		}
		if key.want >= 0 {
			// The generator is systematic, so for a data target this
			// product is just inv's row; for a parity target it folds
			// "rebuild the data, then re-encode" into one 1×k row.
			row := ecmatrix.Mul(c.gen.SubMatrix([]int{key.want}), inv)
			return &decodeEntry{chosen: e.chosen, rowPlan: buildPlan(row)}, nil
		}
		e.dataPlan = buildPlan(inv.SubMatrix(e.missingData))
	}
	if len(e.missingParity) > 0 {
		rows := make([]int, len(e.missingParity))
		for i, idx := range e.missingParity {
			rows[i] = idx - c.k
		}
		e.parityPlan = buildPlan(c.parity.SubMatrix(rows))
	}
	return e, nil
}

// reconScratch pools the small gather slices a reconstruction needs, so
// the steady-state repair path performs no allocations beyond output
// buffers the caller did not supply. sums is the dense CRC accumulator
// the fused ReconstructSum path sweeps into before scattering to the
// caller's stripe-indexed slice.
type reconScratch struct {
	srcs [][]byte
	dsts [][]byte
	sums []uint32
}

var reconPool = sync.Pool{New: func() any { return new(reconScratch) }}

// sumViews returns a zeroed dense CRC accumulator with one slot per
// rebuilt index, or nil when the caller asked for no sums.
func (s *reconScratch) sumViews(sums []uint32, idxs []int) []uint32 {
	if sums == nil {
		return nil
	}
	if cap(s.sums) < len(idxs) {
		s.sums = make([]uint32, len(idxs))
	}
	s.sums = s.sums[:len(idxs)]
	clear(s.sums)
	return s.sums
}

// scatterSums copies the dense accumulator back to the caller's
// stripe-indexed sums.
func (s *reconScratch) scatterSums(sums []uint32, idxs []int) {
	if sums == nil {
		return
	}
	for i, idx := range idxs {
		sums[idx] = s.sums[i]
	}
}

func (s *reconScratch) release() {
	clear(s.srcs) // drop references to caller blocks
	clear(s.dsts)
	s.srcs, s.dsts = s.srcs[:0], s.dsts[:0]
	reconPool.Put(s)
}

// outBuf returns a length-size output buffer for a missing block,
// reusing b's capacity when the caller supplied a zero-length slice
// large enough, and allocating otherwise. The contents need not be
// zeroed: every plan output path overwrites its destination completely.
func outBuf(b []byte, size int) []byte {
	if cap(b) >= size {
		return b[:size]
	}
	return make([]byte, size)
}
