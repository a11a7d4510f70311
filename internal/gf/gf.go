// Package gf implements arithmetic over the Galois field GF(2^8).
//
// The field is constructed with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the same polynomial used by ISA-L,
// Jerasure and most storage erasure-coding libraries, so encoding matrices
// and parity bytes produced here are interoperable with those systems.
//
// The package provides scalar operations (Mul, Div, Inv, Exp), bulk
// slice operations used by the table-lookup codec (MulSlice,
// MulSliceAdd, AddSlice), and the nibble split tables that ISA-L feeds
// to VPSHUFB. On amd64 CPUs with AVX2 the single-coefficient kernels
// run ISA-L's VPSHUFB split-table body, 32 bytes per step, chosen once
// at init from CPUID; everywhere else, and for every tail shorter than
// 32 bytes, they process eight bytes per step via 64-bit word batching.
package gf

import "fmt"

// Poly is the primitive polynomial used to construct GF(2^8),
// expressed with the implicit x^8 term included (0x11d).
const Poly = 0x11d

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
			x ^= Poly
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
		nibbleTables[c] = MakeNibbleTables(byte(c))
	}
}

// Add returns a+b in GF(2^8). Addition is XOR; it is its own inverse,
// so Sub is the same operation.
func Add(a, b byte) byte { return a ^ b }

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte { return mulTable[a][b] }

// Div returns a/b in GF(2^8). It panics if b == 0.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[logTable[a]+255-logTable[b]]
}

// Inv returns the multiplicative inverse of a. It panics if a == 0.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf: zero has no inverse")
	}
	return invTable[a]
}

// Exp returns alpha^n where alpha is the primitive element (2).
// n may be any non-negative integer.
func Exp(n int) byte {
	if n < 0 {
		panic(fmt.Sprintf("gf: negative exponent %d", n))
	}
	return expTable[n%255]
}

// Log returns log_alpha(a). It panics if a == 0.
func Log(a byte) int {
	if a == 0 {
		panic("gf: log of zero")
	}
	return logTable[a]
}

// Pow returns a^n in GF(2^8). a may be zero (0^0 == 1 by convention).
func Pow(a byte, n int) byte {
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return expTable[(logTable[a]*n)%255]
}

// MulRow returns the 256-entry multiplication row for coefficient c,
// i.e. table[x] = c*x. The row aliases internal storage and must not be
// modified by the caller.
func MulRow(c byte) *[256]byte { return &mulTable[c] }
