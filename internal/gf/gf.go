// Package gf implements arithmetic over the Galois field GF(2^8).
//
// The field is constructed with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the same polynomial used by ISA-L,
// Jerasure and most storage erasure-coding libraries, so encoding matrices
// and parity bytes produced here are interoperable with those systems.
//
// The package provides scalar operations (Mul, Inv), bulk
// slice operations used by the table-lookup codec (MulSlice,
// MulSliceAdd, AddSlice), and the nibble split tables that ISA-L feeds
// to VPSHUFB. On amd64 CPUs with AVX2 the single-coefficient kernels
// run ISA-L's VPSHUFB split-table body, 32 bytes per step, chosen once
// at init from CPUID; everywhere else, and for every tail shorter than
// 32 bytes, they process eight bytes per step via 64-bit word batching.
package gf

// poly is the primitive polynomial used to construct GF(2^8),
// expressed with the implicit x^8 term included (0x11d).
const poly = 0x11d

// FieldSize is the number of elements in GF(2^8).
const FieldSize = 256

var (
	// expTable[i] = alpha^i for i in [0, 510); doubled so that
	// mulLogs can index without a modular reduction.
	expTable [510]byte
	// logTable[x] = log_alpha(x) for x != 0. logTable[0] is unused.
	logTable [256]int
	// mulTable[a][b] = a*b in GF(2^8). 64 KiB; stays hot in L2.
	mulTable [256][256]byte
	// invTable[x] = x^-1 for x != 0.
	invTable [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= poly
		}
	}
	for i := 255; i < 510; i++ {
		expTable[i] = expTable[i-255]
	}
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			mulTable[a][b] = expTable[logTable[a]+logTable[b]]
		}
	}
	for a := 1; a < 256; a++ {
		invTable[a] = expTable[255-logTable[a]]
	}
	for c := range nibbleTables {
		nibbleTables[c] = makeNibbleTable(byte(c))
	}
}

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte { return mulTable[a][b] }

// Inv returns the multiplicative inverse of a. It panics if a == 0.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf: zero has no inverse")
	}
	return invTable[a]
}

// MulRow returns the 256-entry multiplication row for coefficient c,
// i.e. table[x] = c*x. The row aliases internal storage and must not be
// modified by the caller.
func MulRow(c byte) *[256]byte { return &mulTable[c] }
