package gf

import "encoding/binary"

// This file holds the portable family's fused kernels: the software
// analogue of ISA-L's gf_2vect/gf_4vect dot products (§4.1 of the DIALGA
// paper), which the rs plan compiler uses where MulSliceAdd has no SIMD
// body. Instead of one VPSHUFB split-table lookup per coefficient, the
// packed tables fuse 2 or 4 coefficients into a single 16- or 32-bit
// entry, so one L1 load yields the products for 2-4 parity rows at once
// and each source word is loaded exactly once per row group.
//
// The fused accumulation runs in an *interleaved* layout — acc[2p+r]
// (pairs) or acc[4p+r] (quads) holds row r at byte position p — because
// interleaving is what lets eight packed entries be XORed into plain
// 64-bit accumulator words with no per-row shifting. The caller
// de-interleaves once per tile (Deinterleave2/Deinterleave4) after all k
// sources have been accumulated, so the transpose cost is amortized over
// the whole source sweep. See DESIGN.md "GF kernel families".

// PairTables is the packed split table for two coefficients:
// entry b = c0*b | c1*b<<8. One lookup multiplies a source byte by both
// coefficients of a 2-row group.
type PairTables [256]uint16

// QuadTables is the packed split table for four coefficients:
// entry b = c0*b | c1*b<<8 | c2*b<<16 | c3*b<<24. One lookup multiplies
// a source byte by all four coefficients of a 4-row group.
type QuadTables [256]uint32

// MakePairTables builds the packed table for coefficients (c0, c1).
func MakePairTables(c0, c1 byte) PairTables {
	var t PairTables
	r0, r1 := &mulTable[c0], &mulTable[c1]
	for b := 0; b < 256; b++ {
		t[b] = uint16(r0[b]) | uint16(r1[b])<<8
	}
	return t
}

// MakeQuadTables builds the packed table for coefficients (c0, c1, c2, c3).
func MakeQuadTables(c0, c1, c2, c3 byte) QuadTables {
	var t QuadTables
	r0, r1 := &mulTable[c0], &mulTable[c1]
	r2, r3 := &mulTable[c2], &mulTable[c3]
	for b := 0; b < 256; b++ {
		t[b] = uint32(r0[b]) | uint32(r1[b])<<8 | uint32(r2[b])<<16 | uint32(r3[b])<<24
	}
	return t
}

// MulAddQuad accumulates the four products of every source byte into the
// 4-way interleaved accumulator: acc[4*p+r] ^= c_r * src[p] for r in
// 0..3. len(acc) must be at least 4*len(src); acc and src must not
// overlap. Eight source bytes are processed per step.
func (t *QuadTables) MulAddQuad(acc, src []byte) {
	if len(acc) < 4*len(src) {
		panic("gf: MulAddQuad accumulator too short")
	}
	for len(src) >= 8 && len(acc) >= 32 {
		w := binary.LittleEndian.Uint64(src)
		a0 := binary.LittleEndian.Uint64(acc) ^
			(uint64(t[byte(w)]) | uint64(t[byte(w>>8)])<<32)
		a1 := binary.LittleEndian.Uint64(acc[8:]) ^
			(uint64(t[byte(w>>16)]) | uint64(t[byte(w>>24)])<<32)
		a2 := binary.LittleEndian.Uint64(acc[16:]) ^
			(uint64(t[byte(w>>32)]) | uint64(t[byte(w>>40)])<<32)
		a3 := binary.LittleEndian.Uint64(acc[24:]) ^
			(uint64(t[byte(w>>48)]) | uint64(t[byte(w>>56)])<<32)
		binary.LittleEndian.PutUint64(acc, a0)
		binary.LittleEndian.PutUint64(acc[8:], a1)
		binary.LittleEndian.PutUint64(acc[16:], a2)
		binary.LittleEndian.PutUint64(acc[24:], a3)
		src = src[8:]
		acc = acc[32:]
	}
	for i, b := range src {
		q := t[b]
		acc[4*i] ^= byte(q)
		acc[4*i+1] ^= byte(q >> 8)
		acc[4*i+2] ^= byte(q >> 16)
		acc[4*i+3] ^= byte(q >> 24)
	}
}

// MulAddPair accumulates the two products of every source byte into the
// 2-way interleaved accumulator: acc[2*p+r] ^= c_r * src[p] for r in
// 0..1. len(acc) must be at least 2*len(src); acc and src must not
// overlap. Eight source bytes are processed per step.
func (t *PairTables) MulAddPair(acc, src []byte) {
	if len(acc) < 2*len(src) {
		panic("gf: MulAddPair accumulator too short")
	}
	for len(src) >= 8 && len(acc) >= 16 {
		w := binary.LittleEndian.Uint64(src)
		a0 := binary.LittleEndian.Uint64(acc) ^
			(uint64(t[byte(w)]) | uint64(t[byte(w>>8)])<<16 |
				uint64(t[byte(w>>16)])<<32 | uint64(t[byte(w>>24)])<<48)
		a1 := binary.LittleEndian.Uint64(acc[8:]) ^
			(uint64(t[byte(w>>32)]) | uint64(t[byte(w>>40)])<<16 |
				uint64(t[byte(w>>48)])<<32 | uint64(t[byte(w>>56)])<<48)
		binary.LittleEndian.PutUint64(acc, a0)
		binary.LittleEndian.PutUint64(acc[8:], a1)
		src = src[8:]
		acc = acc[16:]
	}
	for i, b := range src {
		q := t[b]
		acc[2*i] ^= byte(q)
		acc[2*i+1] ^= byte(q >> 8)
	}
}

// Deinterleave4 transposes a 4-way interleaved accumulator into four
// plain rows: d_r[p] = acc[4*p+r]. All four destinations must share one
// length n with len(acc) >= 4*n. The destinations are overwritten.
func Deinterleave4(acc, d0, d1, d2, d3 []byte) {
	n := len(d0)
	if len(d1) != n || len(d2) != n || len(d3) != n {
		panic("gf: Deinterleave4 destination length mismatch")
	}
	if len(acc) < 4*n {
		panic("gf: Deinterleave4 accumulator too short")
	}
	for n >= 8 && len(acc) >= 32 {
		w0 := binary.LittleEndian.Uint64(acc)
		w1 := binary.LittleEndian.Uint64(acc[8:])
		w2 := binary.LittleEndian.Uint64(acc[16:])
		w3 := binary.LittleEndian.Uint64(acc[24:])
		// Row r of position pair j sits at lanes r and 4+r of wj.
		binary.LittleEndian.PutUint64(d0,
			(w0&0xff|w0>>32&0xff<<8)|(w1&0xff|w1>>32&0xff<<8)<<16|
				(w2&0xff|w2>>32&0xff<<8)<<32|(w3&0xff|w3>>32&0xff<<8)<<48)
		binary.LittleEndian.PutUint64(d1,
			(w0>>8&0xff|w0>>40&0xff<<8)|(w1>>8&0xff|w1>>40&0xff<<8)<<16|
				(w2>>8&0xff|w2>>40&0xff<<8)<<32|(w3>>8&0xff|w3>>40&0xff<<8)<<48)
		binary.LittleEndian.PutUint64(d2,
			(w0>>16&0xff|w0>>48&0xff<<8)|(w1>>16&0xff|w1>>48&0xff<<8)<<16|
				(w2>>16&0xff|w2>>48&0xff<<8)<<32|(w3>>16&0xff|w3>>48&0xff<<8)<<48)
		binary.LittleEndian.PutUint64(d3,
			(w0>>24&0xff|w0>>56<<8)|(w1>>24&0xff|w1>>56<<8)<<16|
				(w2>>24&0xff|w2>>56<<8)<<32|(w3>>24&0xff|w3>>56<<8)<<48)
		acc = acc[32:]
		d0, d1, d2, d3 = d0[8:], d1[8:], d2[8:], d3[8:]
		n -= 8
	}
	for i := 0; i < n; i++ {
		d0[i] = acc[4*i]
		d1[i] = acc[4*i+1]
		d2[i] = acc[4*i+2]
		d3[i] = acc[4*i+3]
	}
}

// Deinterleave2 transposes a 2-way interleaved accumulator into two
// plain rows: d_r[p] = acc[2*p+r]. Both destinations must share one
// length n with len(acc) >= 2*n. The destinations are overwritten.
func Deinterleave2(acc, d0, d1 []byte) {
	n := len(d0)
	if len(d1) != n {
		panic("gf: Deinterleave2 destination length mismatch")
	}
	if len(acc) < 2*n {
		panic("gf: Deinterleave2 accumulator too short")
	}
	for n >= 8 && len(acc) >= 16 {
		w0 := binary.LittleEndian.Uint64(acc)
		w1 := binary.LittleEndian.Uint64(acc[8:])
		binary.LittleEndian.PutUint64(d0,
			(w0&0xff|w0>>16&0xff<<8|w0>>32&0xff<<16|w0>>48&0xff<<24)|
				(w1&0xff|w1>>16&0xff<<8|w1>>32&0xff<<16|w1>>48&0xff<<24)<<32)
		binary.LittleEndian.PutUint64(d1,
			(w0>>8&0xff|w0>>24&0xff<<8|w0>>40&0xff<<16|w0>>56<<24)|
				(w1>>8&0xff|w1>>24&0xff<<8|w1>>40&0xff<<16|w1>>56<<24)<<32)
		acc = acc[16:]
		d0, d1 = d0[8:], d1[8:]
		n -= 8
	}
	for i := 0; i < n; i++ {
		d0[i] = acc[2*i]
		d1[i] = acc[2*i+1]
	}
}

// MulAdd4 applies four coefficients to one source over separate
// destinations: d_r[i] ^= c_r * src[i], as four MulSliceAdd passes, so
// it runs the SIMD body where there is one. It serves the incremental
// parity Update path, where the destinations are full rows rather than
// tiles. (A portable body that loaded each source word once for all
// four rows measured within noise of the four passes.) All slices must
// share src's length and must not overlap src.
func MulAdd4(c0, c1, c2, c3 byte, d0, d1, d2, d3, src []byte) {
	n := len(src)
	if len(d0) != n || len(d1) != n || len(d2) != n || len(d3) != n {
		panic("gf: MulAdd4 length mismatch")
	}
	MulSliceAdd(c0, d0, src)
	MulSliceAdd(c1, d1, src)
	MulSliceAdd(c2, d2, src)
	MulSliceAdd(c3, d3, src)
}

// MulAdd2 applies two coefficients to one source over separate
// destinations: d_r[i] ^= c_r * src[i]. See MulAdd4.
func MulAdd2(c0, c1 byte, d0, d1, src []byte) {
	if len(d0) != len(src) || len(d1) != len(src) {
		panic("gf: MulAdd2 length mismatch")
	}
	MulSliceAdd(c0, d0, src)
	MulSliceAdd(c1, d1, src)
}

// XorInto overwrites dst with the XOR of all sources: dst[i] =
// srcs[0][i] ^ srcs[1][i] ^ ... — a fused replacement for a copy
// followed by repeated AddSlice passes; dst is written exactly once.
// Every source must have dst's length. With no sources dst is zeroed.
func XorInto(dst []byte, srcs ...[]byte) {
	for _, s := range srcs {
		if len(s) != len(dst) {
			panic("gf: XorInto length mismatch")
		}
	}
	switch len(srcs) {
	case 0:
		clear(dst)
		return
	case 1:
		copy(dst, srcs[0])
		return
	}
	n := len(dst)
	i := 0
	for ; i+8 <= n; i += 8 {
		w := binary.LittleEndian.Uint64(srcs[0][i:])
		for _, s := range srcs[1:] {
			w ^= binary.LittleEndian.Uint64(s[i:])
		}
		binary.LittleEndian.PutUint64(dst[i:], w)
	}
	for ; i < n; i++ {
		b := srcs[0][i]
		for _, s := range srcs[1:] {
			b ^= s[i]
		}
		dst[i] = b
	}
}
