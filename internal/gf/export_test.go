package gf

import "fmt"

// Add returns a+b in GF(2^8). Addition is XOR; it is its own inverse,
// so Sub is the same operation.
func Add(a, b byte) byte { return a ^ b }

// Exp returns alpha^n where alpha is the primitive element (2).
// n may be any non-negative integer.
func Exp(n int) byte {
	if n < 0 {
		panic(fmt.Sprintf("gf: negative exponent %d", n))
	}
	return expTable[n%255]
}

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
