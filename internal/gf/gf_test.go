package gf

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddIsXOR(t *testing.T) {
	if Add(0x5a, 0xa5) != 0xff {
		t.Fatalf("Add(0x5a,0xa5) = %#x, want 0xff", Add(0x5a, 0xa5))
	}
	if Add(7, 7) != 0 {
		t.Fatal("a+a must be 0 in GF(2^8)")
	}
}

func TestMulIdentity(t *testing.T) {
	for a := 0; a < 256; a++ {
		if Mul(byte(a), 1) != byte(a) {
			t.Fatalf("%d * 1 != %d", a, a)
		}
		if Mul(byte(a), 0) != 0 {
			t.Fatalf("%d * 0 != 0", a)
		}
	}
}

func TestMulCommutative(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := a; b < 256; b++ {
			if Mul(byte(a), byte(b)) != Mul(byte(b), byte(a)) {
				t.Fatalf("Mul not commutative at %d,%d", a, b)
			}
		}
	}
}

func TestMulAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		a, b, c := byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))
		if Mul(Mul(a, b), c) != Mul(a, Mul(b, c)) {
			t.Fatalf("Mul not associative at %d,%d,%d", a, b, c)
		}
	}
}

func TestDistributive(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		a, b, c := byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))
		if Mul(a, b^c) != Mul(a, b)^Mul(a, c) {
			t.Fatalf("distributivity fails at %d,%d,%d", a, b, c)
		}
	}
}

// Reference slow multiply: carry-less multiply then reduce by Poly.
func slowMul(a, b byte) byte {
	var p uint16
	ua, ub := uint16(a), uint16(b)
	for i := 0; i < 8; i++ {
		if ub&1 != 0 {
			p ^= ua
		}
		ub >>= 1
		ua <<= 1
		if ua&0x100 != 0 {
			ua ^= Poly
		}
	}
	return byte(p)
}

func TestMulMatchesPolynomialReference(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := Mul(byte(a), byte(b)), slowMul(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestInvAndDiv(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if Mul(byte(a), inv) != 1 {
			t.Fatalf("a * a^-1 != 1 for a=%d", a)
		}
		if Div(1, byte(a)) != inv {
			t.Fatalf("Div(1,a) != Inv(a) for a=%d", a)
		}
	}
	for a := 0; a < 256; a++ {
		for b := 1; b < 256; b++ {
			q := Div(byte(a), byte(b))
			if Mul(q, byte(b)) != byte(a) {
				t.Fatalf("Div roundtrip fails at %d/%d", a, b)
			}
		}
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	Div(3, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestExpLogRoundtrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if Exp(Log(byte(a))) != byte(a) {
			t.Fatalf("Exp(Log(%d)) != %d", a, a)
		}
	}
	seen := make(map[byte]bool)
	for i := 0; i < 255; i++ {
		seen[Exp(i)] = true
	}
	if len(seen) != 255 {
		t.Fatalf("alpha does not generate the multiplicative group: %d distinct powers", len(seen))
	}
}

func TestPow(t *testing.T) {
	for a := 0; a < 256; a++ {
		want := byte(1)
		for n := 0; n < 16; n++ {
			if got := Pow(byte(a), n); got != want {
				t.Fatalf("Pow(%d,%d) = %d, want %d", a, n, got, want)
			}
			want = Mul(want, byte(a))
		}
	}
}

func TestNibbleTablesMatchMul(t *testing.T) {
	for c := 0; c < 256; c++ {
		nt := MakeNibbleTables(byte(c))
		for b := 0; b < 256; b++ {
			if got, want := nt.Mul(byte(b)), Mul(byte(c), byte(b)); got != want {
				t.Fatalf("nibble mul mismatch c=%d b=%d: got %d want %d", c, b, got, want)
			}
		}
	}
}

func TestAddSlice(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 1000} {
		a := make([]byte, n)
		b := make([]byte, n)
		r.Read(a)
		r.Read(b)
		want := make([]byte, n)
		for i := range want {
			want[i] = a[i] ^ b[i]
		}
		AddSlice(a, b)
		if !bytes.Equal(a, want) {
			t.Fatalf("AddSlice wrong for n=%d", n)
		}
	}
}

func TestAddSliceLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AddSlice(make([]byte, 3), make([]byte, 4))
}

func TestMulSliceAgainstScalar(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	src := make([]byte, 513)
	r.Read(src)
	dst := make([]byte, len(src))
	for c := 0; c < 256; c++ {
		MulSlice(byte(c), dst, src)
		for i := range src {
			if dst[i] != Mul(byte(c), src[i]) {
				t.Fatalf("MulSlice c=%d differs at %d", c, i)
			}
		}
	}
}

func TestMulSliceAddAgainstScalar(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	src := make([]byte, 257)
	r.Read(src)
	for c := 0; c < 256; c++ {
		dst := make([]byte, len(src))
		r.Read(dst)
		want := make([]byte, len(src))
		for i := range want {
			want[i] = dst[i] ^ Mul(byte(c), src[i])
		}
		MulSliceAdd(byte(c), dst, src)
		if !bytes.Equal(dst, want) {
			t.Fatalf("MulSliceAdd c=%d mismatch", c)
		}
	}
}

func TestDotSlice(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	const n = 128
	srcs := make([][]byte, 5)
	coeffs := make([]byte, 5)
	for j := range srcs {
		srcs[j] = make([]byte, n)
		r.Read(srcs[j])
		coeffs[j] = byte(r.Intn(256))
	}
	dst := make([]byte, n)
	r.Read(dst) // DotSlice must overwrite, not accumulate
	DotSlice(coeffs, dst, srcs)
	for i := 0; i < n; i++ {
		var want byte
		for j := range srcs {
			want ^= Mul(coeffs[j], srcs[j][i])
		}
		if dst[i] != want {
			t.Fatalf("DotSlice differs at %d", i)
		}
	}
}

// Property: multiplication by a fixed nonzero c is a bijection on slices.
func TestQuickMulSliceBijective(t *testing.T) {
	f := func(data []byte, cRaw byte) bool {
		c := cRaw | 1 // ensure nonzero
		enc := make([]byte, len(data))
		MulSlice(c, enc, data)
		dec := make([]byte, len(data))
		MulSlice(Inv(c), dec, enc)
		return bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: (a+b)*c distributes over slices.
func TestQuickSliceDistributive(t *testing.T) {
	f := func(a, b []byte, c byte) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		sum := make([]byte, n)
		copy(sum, a)
		AddSlice(sum, b)
		left := make([]byte, n)
		MulSlice(c, left, sum)
		ra := make([]byte, n)
		MulSlice(c, ra, a)
		rb := make([]byte, n)
		MulSlice(c, rb, b)
		AddSlice(ra, rb)
		return bytes.Equal(left, ra)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMulSliceAdd4K measures one rs tile step's kernel under each
// body this CPU has.
func BenchmarkMulSliceAdd4K(b *testing.B) {
	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	rand.New(rand.NewSource(7)).Read(src)
	eachBody(func(body string) {
		b.Run(body, func(b *testing.B) {
			b.SetBytes(4096)
			for i := 0; i < b.N; i++ {
				MulSliceAdd(0x57, dst, src)
			}
		})
	})
}

func BenchmarkAddSlice4K(b *testing.B) {
	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddSlice(dst, src)
	}
}
