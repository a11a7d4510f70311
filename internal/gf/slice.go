package gf

import "encoding/binary"

// nibbleTable holds the two 16-entry lookup tables for a coefficient c,
// mirroring the operand layout ISA-L feeds to VPSHUFB: Lo[x] = c*(x) for
// the low nibble and Hi[x] = c*(x<<4) for the high nibble, so that
// c*b == Lo[b&0xf] ^ Hi[b>>4].
type nibbleTable struct {
	Lo [16]byte
	Hi [16]byte
}

// makeNibbleTable builds the VPSHUFB-style split tables for coefficient c.
func makeNibbleTable(c byte) nibbleTable {
	var t nibbleTable
	for x := 0; x < 16; x++ {
		t.Lo[x] = Mul(c, byte(x))
		t.Hi[x] = Mul(c, byte(x<<4))
	}
	return t
}

// nibbleTables[c] is makeNibbleTable(c), built once at init for the
// SIMD kernels.
var nibbleTables [256]nibbleTable

// mulVec and mulAddVec are the SIMD bodies of the single-coefficient
// kernels, ISA-L's gf_vect_mul and gf_vect_mad: mulVec sets dst = c·src
// and mulAddVec sets dst ⊕= c·src, with t = &nibbleTables[c], over
// equal-length slices whose length is a multiple of 32. Init installs
// them where the CPU has them (kernels_amd64.go); elsewhere they stay
// nil and the word loops do all the work.
var (
	mulVec    func(t *nibbleTable, dst, src []byte)
	mulAddVec func(t *nibbleTable, dst, src []byte)
)

// HasAVX2 reports whether MulSlice and MulSliceAdd run the AVX2 VPSHUFB
// body. The rs plan compiler groups its rows by it: single rows over
// these kernels where it holds, packed 4/2/1 groups elsewhere.
func HasAVX2() bool { return mulVec != nil }

// addSlice XORs src into dst element-wise: dst[i] ^= src[i].
// It processes eight bytes per iteration. dst and src must be the same
// length.
func addSlice(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf: addSlice length mismatch")
	}
	for len(src) >= 8 && len(dst) >= 8 {
		binary.LittleEndian.PutUint64(dst,
			binary.LittleEndian.Uint64(dst)^binary.LittleEndian.Uint64(src))
		dst, src = dst[8:], src[8:]
	}
	for i := range src {
		dst[i] ^= src[i]
	}
}

// MulSlice sets dst[i] = c*src[i]. The 32-byte-multiple prefix goes to
// the SIMD body where there is one; the rest runs eight source bytes
// per step: each 64-bit source word is split into bytes, multiplied
// through the coefficient's 256-entry table, and reassembled into one
// destination word store. dst and src must be the same length and must
// not partially overlap (dst == src is fine).
func MulSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf: MulSlice length mismatch")
	}
	switch c {
	case 0:
		clear(dst)
		return
	case 1:
		copy(dst, src)
		return
	}
	if n := len(src) &^ 31; n > 0 && mulVec != nil {
		mulVec(&nibbleTables[c], dst[:n], src[:n])
		dst, src = dst[n:], src[n:]
	}
	row := &mulTable[c]
	for len(src) >= 8 && len(dst) >= 8 {
		w := binary.LittleEndian.Uint64(src)
		binary.LittleEndian.PutUint64(dst,
			uint64(row[byte(w)])|uint64(row[byte(w>>8)])<<8|
				uint64(row[byte(w>>16)])<<16|uint64(row[byte(w>>24)])<<24|
				uint64(row[byte(w>>32)])<<32|uint64(row[byte(w>>40)])<<40|
				uint64(row[byte(w>>48)])<<48|uint64(row[byte(w>>56)])<<56)
		dst, src = dst[8:], src[8:]
	}
	for i, b := range src {
		dst[i] = row[b]
	}
}

// MulSliceAdd accumulates dst[i] ^= c*src[i]: the SIMD body takes the
// 32-byte-multiple prefix where there is one, and the rest runs eight
// source bytes per step with a single destination word
// read-modify-write. This is the single-coefficient inner kernel of
// table-lookup Reed-Solomon coding. dst and src must be the same length
// and must not partially overlap.
func MulSliceAdd(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf: MulSliceAdd length mismatch")
	}
	switch c {
	case 0:
		return
	case 1:
		addSlice(dst, src)
		return
	}
	if n := len(src) &^ 31; n > 0 && mulAddVec != nil {
		mulAddVec(&nibbleTables[c], dst[:n], src[:n])
		dst, src = dst[n:], src[n:]
	}
	row := &mulTable[c]
	for len(src) >= 8 && len(dst) >= 8 {
		w := binary.LittleEndian.Uint64(src)
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)^
			(uint64(row[byte(w)])|uint64(row[byte(w>>8)])<<8|
				uint64(row[byte(w>>16)])<<16|uint64(row[byte(w>>24)])<<24|
				uint64(row[byte(w>>32)])<<32|uint64(row[byte(w>>40)])<<40|
				uint64(row[byte(w>>48)])<<48|uint64(row[byte(w>>56)])<<56))
		dst, src = dst[8:], src[8:]
	}
	for i, b := range src {
		dst[i] ^= row[b]
	}
}

// The Ref* functions below are the byte-at-a-time scalar kernels the
// word-parallel implementations replaced. They are retained verbatim as
// the reference implementation: the differential fuzz tests pin every
// fast kernel byte-for-byte against them, and rs.(*Code).EncodeRef
// exposes them for old-vs-new benchmarking.

// refMulSliceAdd is the scalar reference for MulSliceAdd: one table
// lookup and XOR per byte.
func refMulSliceAdd(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf: refMulSliceAdd length mismatch")
	}
	row := &mulTable[c]
	for i, b := range src {
		dst[i] ^= row[b]
	}
}

// RefDotSlice computes dst = sum_j coeffs[j]*srcs[j] (element-wise over
// the slices), overwriting dst: a zeroed destination accumulated with one
// refMulSliceAdd pass per source. It is the reference product the rs
// plans are tested against. All slices must share dst's length and
// len(coeffs) must equal len(srcs).
func RefDotSlice(coeffs []byte, dst []byte, srcs [][]byte) {
	if len(coeffs) != len(srcs) {
		panic("gf: RefDotSlice coefficient/source count mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	for j, src := range srcs {
		refMulSliceAdd(coeffs[j], dst, src)
	}
}
