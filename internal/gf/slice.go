package gf

import "encoding/binary"

// NibbleTables holds the two 16-entry lookup tables for a coefficient c,
// mirroring the operand layout ISA-L feeds to VPSHUFB: Lo[x] = c*(x) for
// the low nibble and Hi[x] = c*(x<<4) for the high nibble, so that
// c*b == Lo[b&0xf] ^ Hi[b>>4].
type NibbleTables struct {
	Lo [16]byte
	Hi [16]byte
}

// MakeNibbleTables builds the VPSHUFB-style split tables for coefficient c.
func MakeNibbleTables(c byte) NibbleTables {
	var t NibbleTables
	for x := 0; x < 16; x++ {
		t.Lo[x] = Mul(c, byte(x))
		t.Hi[x] = Mul(c, byte(x<<4))
	}
	return t
}

// Mul applies the split-table multiply to a single byte.
func (t *NibbleTables) Mul(b byte) byte {
	return t.Lo[b&0xf] ^ t.Hi[b>>4]
}

// nibbleTables[c] is MakeNibbleTables(c), built once at init for the
// SIMD kernels.
var nibbleTables [256]NibbleTables

// mulVec and mulAddVec are the SIMD bodies of the single-coefficient
// kernels, ISA-L's gf_vect_mul and gf_vect_mad: mulVec sets dst = c·src
// and mulAddVec sets dst = a ⊕ c·src, with t = &nibbleTables[c], over
// equal-length slices whose length is a multiple of 32. Init installs
// them where the CPU has them (kernels_amd64.go); elsewhere they stay
// nil and the word loops do all the work.
var (
	mulVec    func(t *NibbleTables, dst, src []byte)
	mulAddVec func(t *NibbleTables, dst, a, src []byte)
)

// HasAVX2 reports whether MulSlice, MulSliceAdd and MulSliceXor run the
// AVX2 VPSHUFB body. The rs plan compiler groups its rows by it.
func HasAVX2() bool { return mulVec != nil }

// AddSlice XORs src into dst element-wise: dst[i] ^= src[i].
// It processes eight bytes per iteration. dst and src must be the same
// length.
func AddSlice(dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf: AddSlice length mismatch")
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
		AddSlice(dst, src)
		return
	}
	if n := len(src) &^ 31; n > 0 && mulAddVec != nil {
		mulAddVec(&nibbleTables[c], dst[:n], dst[:n], src[:n])
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

// DotSlice computes dst = sum_j coeffs[j]*srcs[j] (element-wise over the
// slices), overwriting dst. All slices must share dst's length and
// len(coeffs) must equal len(srcs).
func DotSlice(coeffs []byte, dst []byte, srcs [][]byte) {
	if len(coeffs) != len(srcs) {
		panic("gf: DotSlice coefficient/source count mismatch")
	}
	clear(dst)
	for j, src := range srcs {
		MulSliceAdd(coeffs[j], dst, src)
	}
}

// The Ref* functions below are the byte-at-a-time scalar kernels the
// word-parallel implementations replaced. They are retained verbatim as
// the reference implementation: the differential fuzz tests pin every
// fast kernel byte-for-byte against them, and rs.(*Code).EncodeRef
// exposes them for old-vs-new benchmarking.

// RefMulSlice is the scalar reference for MulSlice: one table lookup
// per byte.
func RefMulSlice(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf: RefMulSlice length mismatch")
	}
	row := &mulTable[c]
	for i, b := range src {
		dst[i] = row[b]
	}
}

// RefMulSliceAdd is the scalar reference for MulSliceAdd: one table
// lookup and XOR per byte.
func RefMulSliceAdd(c byte, dst, src []byte) {
	if len(dst) != len(src) {
		panic("gf: RefMulSliceAdd length mismatch")
	}
	row := &mulTable[c]
	for i, b := range src {
		dst[i] ^= row[b]
	}
}

// RefMulSliceXor is the scalar reference for MulSliceXor:
// dst[i] = a[i] ^ c*b[i], one table lookup per byte.
func RefMulSliceXor(c byte, dst, a, b []byte) {
	if len(dst) != len(a) || len(dst) != len(b) {
		panic("gf: RefMulSliceXor length mismatch")
	}
	row := &mulTable[c]
	for i := range dst {
		dst[i] = a[i] ^ row[b[i]]
	}
}

// RefDotSlice is the scalar reference for DotSlice: a zeroed destination
// accumulated with one RefMulSliceAdd pass per source.
func RefDotSlice(coeffs []byte, dst []byte, srcs [][]byte) {
	if len(coeffs) != len(srcs) {
		panic("gf: RefDotSlice coefficient/source count mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	for j, src := range srcs {
		RefMulSliceAdd(coeffs[j], dst, src)
	}
}
