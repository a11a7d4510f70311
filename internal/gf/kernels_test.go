package gf

import (
	"bytes"
	"math/rand"
	"testing"
)

// kernelLengths are the slice lengths every kernel test sweeps: empty,
// sub-word, word-aligned, and off-by-one around the 8- and 64-byte
// boundaries the word loops care about.
var kernelLengths = []int{0, 1, 7, 8, 9, 63, 64, 65, 255, 256, 1000}

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

// maxSweepLen bounds the single-coefficient sweeps: they run every
// length up to it, so most lengths are not multiples of the SIMD body's
// 32-byte step and every prefix/tail split is taken.
const maxSweepLen = 300

// eachBody runs f with the SIMD kernels, where this CPU has them, then
// with the portable word loops alone, and restores the dispatch.
func eachBody(f func(body string)) {
	mul, mad := mulVec, mulAddVec
	defer func() { mulVec, mulAddVec = mul, mad }()
	if mul != nil {
		f("avx2")
	}
	mulVec, mulAddVec = nil, nil
	f("portable")
}

// TestMulSliceMatchesRef covers all 256 coefficients at every length up
// to maxSweepLen, on subslices starting off a word boundary, both into
// a separate destination and in place (dst == src).
func TestMulSliceMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	buf := randBytes(r, maxSweepLen+3)
	want := make([]byte, maxSweepLen)
	out := make([]byte, maxSweepLen+3)
	eachBody(func(body string) {
		for n := 0; n <= maxSweepLen; n++ {
			off := n % 4
			src, got := buf[off:off+n], out[off:off+n]
			for c := 0; c < 256; c++ {
				RefMulSlice(byte(c), want[:n], src)
				MulSlice(byte(c), got, src)
				if !bytes.Equal(got, want[:n]) {
					t.Fatalf("%s MulSlice c=%d n=%d off=%d differs from reference", body, c, n, off)
				}
				copy(got, src)
				MulSlice(byte(c), got, got)
				if !bytes.Equal(got, want[:n]) {
					t.Fatalf("%s MulSlice in place c=%d n=%d off=%d differs from reference", body, c, n, off)
				}
			}
		}
	})
}

func TestMulSliceAddMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	buf := randBytes(r, maxSweepLen+3)
	init := randBytes(r, maxSweepLen+3)
	want := make([]byte, maxSweepLen)
	out := make([]byte, maxSweepLen+3)
	eachBody(func(body string) {
		for n := 0; n <= maxSweepLen; n++ {
			off := n % 4
			src, got := buf[off:off+n], out[off:off+n]
			for c := 0; c < 256; c++ {
				copy(want, init[:n])
				refMulSliceAdd(byte(c), want[:n], src)
				copy(got, init[:n])
				MulSliceAdd(byte(c), got, src)
				if !bytes.Equal(got, want[:n]) {
					t.Fatalf("%s MulSliceAdd c=%d n=%d off=%d differs from reference", body, c, n, off)
				}
			}
		}
	})
}

func TestMulAddQuadMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for _, n := range kernelLengths {
		src := randBytes(r, n)
		for trial := 0; trial < 8; trial++ {
			var cs [4]byte
			for i := range cs {
				cs[i] = byte(r.Intn(256))
			}
			qt := MakeQuadTables(cs[0], cs[1], cs[2], cs[3])
			acc := randBytes(r, 4*n)
			want := append([]byte(nil), acc...)
			for p := 0; p < n; p++ {
				for x := 0; x < 4; x++ {
					want[4*p+x] ^= Mul(cs[x], src[p])
				}
			}
			qt.MulAddQuad(acc, src)
			if !bytes.Equal(acc, want) {
				t.Fatalf("MulAddQuad n=%d cs=%v differs from reference", n, cs)
			}
		}
	}
}

func TestMulAddPairMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	for _, n := range kernelLengths {
		src := randBytes(r, n)
		for trial := 0; trial < 8; trial++ {
			c0, c1 := byte(r.Intn(256)), byte(r.Intn(256))
			pt := MakePairTables(c0, c1)
			acc := randBytes(r, 2*n)
			want := append([]byte(nil), acc...)
			for p := 0; p < n; p++ {
				want[2*p] ^= Mul(c0, src[p])
				want[2*p+1] ^= Mul(c1, src[p])
			}
			pt.MulAddPair(acc, src)
			if !bytes.Equal(acc, want) {
				t.Fatalf("MulAddPair n=%d c0=%d c1=%d differs", n, c0, c1)
			}
		}
	}
}

func TestDeinterleaveRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	for _, n := range kernelLengths {
		acc := randBytes(r, 4*n)
		d := make([][]byte, 4)
		for i := range d {
			d[i] = randBytes(r, n) // overwritten: stale content must not leak
		}
		Deinterleave4(acc, d[0], d[1], d[2], d[3])
		for p := 0; p < n; p++ {
			for x := 0; x < 4; x++ {
				if d[x][p] != acc[4*p+x] {
					t.Fatalf("Deinterleave4 n=%d row %d pos %d wrong", n, x, p)
				}
			}
		}

		acc2 := randBytes(r, 2*n)
		Deinterleave2(acc2, d[0][:n], d[1][:n])
		for p := 0; p < n; p++ {
			if d[0][p] != acc2[2*p] || d[1][p] != acc2[2*p+1] {
				t.Fatalf("Deinterleave2 n=%d pos %d wrong", n, p)
			}
		}
	}
}

func TestMulAdd4MatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	eachBody(func(body string) {
		for n := 0; n <= maxSweepLen; n++ {
			src := randBytes(r, n)
			var cs [4]byte
			for i := range cs {
				cs[i] = byte(r.Intn(256))
			}
			want := make([][]byte, 4)
			got := make([][]byte, 4)
			for x := range want {
				init := randBytes(r, n)
				want[x] = append([]byte(nil), init...)
				got[x] = append([]byte(nil), init...)
				refMulSliceAdd(cs[x], want[x], src)
			}
			MulAdd4(cs[0], cs[1], cs[2], cs[3], got[0], got[1], got[2], got[3], src)
			for x := range got {
				if !bytes.Equal(got[x], want[x]) {
					t.Fatalf("%s MulAdd4 n=%d row %d differs", body, n, x)
				}
			}
		}
	})
}

func TestKernelPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	qt := MakeQuadTables(1, 2, 3, 4)
	expectPanic("MulAddQuad short acc", func() { qt.MulAddQuad(make([]byte, 8), make([]byte, 8)) })
	pt := MakePairTables(1, 2)
	expectPanic("MulAddPair short acc", func() { pt.MulAddPair(make([]byte, 8), make([]byte, 8)) })
	expectPanic("Deinterleave4 ragged", func() {
		Deinterleave4(make([]byte, 32), make([]byte, 8), make([]byte, 8), make([]byte, 8), make([]byte, 7))
	})
	expectPanic("Deinterleave4 short acc", func() {
		Deinterleave4(make([]byte, 31), make([]byte, 8), make([]byte, 8), make([]byte, 8), make([]byte, 8))
	})
	expectPanic("MulAdd4 ragged", func() {
		MulAdd4(1, 2, 3, 4, make([]byte, 8), make([]byte, 8), make([]byte, 8), make([]byte, 7), make([]byte, 8))
	})
}

// FuzzMulSliceAdd pins both bodies of the single-coefficient kernels
// byte-for-byte against the scalar reference on arbitrary (coefficient,
// destination, source) inputs, including lengths off the 8- and
// 32-byte steps and MulSlice in place.
func FuzzMulSliceAdd(f *testing.F) {
	f.Add(uint8(0x57), []byte("hello world, this is 21b"), []byte{1})
	f.Add(uint8(0), []byte{}, []byte{})
	f.Add(uint8(1), bytes.Repeat([]byte{0xff}, 65), []byte{9})
	f.Add(uint8(0x8e), bytes.Repeat([]byte{0xa5}, 63), bytes.Repeat([]byte{0x5a}, 9))
	f.Fuzz(func(t *testing.T, c uint8, src, dstSeed []byte) {
		dst := make([]byte, len(src))
		for i := range dst {
			if len(dstSeed) > 0 {
				dst[i] = dstSeed[i%len(dstSeed)]
			}
		}
		want := append([]byte(nil), dst...)
		refMulSliceAdd(c, want, src)
		wantMul := make([]byte, len(src))
		RefMulSlice(c, wantMul, src)

		eachBody(func(body string) {
			got := append([]byte(nil), dst...)
			MulSliceAdd(c, got, src)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s MulSliceAdd c=%d len=%d diverges from scalar reference", body, c, len(src))
			}
			gotMul := append([]byte(nil), dst...)
			MulSlice(c, gotMul, src)
			if !bytes.Equal(gotMul, wantMul) {
				t.Fatalf("%s MulSlice c=%d len=%d diverges from scalar reference", body, c, len(src))
			}
			inPlace := append([]byte(nil), src...)
			MulSlice(c, inPlace, inPlace)
			if !bytes.Equal(inPlace, wantMul) {
				t.Fatalf("%s MulSlice in place c=%d len=%d diverges from scalar reference", body, c, len(src))
			}
		})
	})
}

// FuzzMulAddFused pins the packed pair/quad interleaved kernels and both
// bodies of the direct MulAdd4 kernel against the scalar reference.
func FuzzMulAddFused(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(3), uint8(4), []byte("fused kernel seed data .."), []byte{7})
	f.Add(uint8(0), uint8(0xff), uint8(0x80), uint8(0x01), []byte{}, []byte{})
	f.Add(uint8(0x1d), uint8(0x57), uint8(0x8e), uint8(0xc3), bytes.Repeat([]byte{3}, 65), []byte{0xee, 2})
	f.Fuzz(func(t *testing.T, c0, c1, c2, c3 uint8, src, seed []byte) {
		n := len(src)
		mkInit := func(mult int) []byte {
			b := make([]byte, mult*n)
			for i := range b {
				if len(seed) > 0 {
					b[i] = seed[i%len(seed)]
				}
			}
			return b
		}
		cs := [4]byte{c0, c1, c2, c3}

		// Quad interleaved vs reference.
		qt := MakeQuadTables(c0, c1, c2, c3)
		acc := mkInit(4)
		wantAcc := append([]byte(nil), acc...)
		for p := 0; p < n; p++ {
			for x := 0; x < 4; x++ {
				wantAcc[4*p+x] ^= Mul(cs[x], src[p])
			}
		}
		qt.MulAddQuad(acc, src)
		if !bytes.Equal(acc, wantAcc) {
			t.Fatalf("MulAddQuad diverges, n=%d cs=%v", n, cs)
		}

		// Pair interleaved vs reference.
		pt := MakePairTables(c0, c1)
		acc2 := mkInit(2)
		wantAcc2 := append([]byte(nil), acc2...)
		for p := 0; p < n; p++ {
			wantAcc2[2*p] ^= Mul(c0, src[p])
			wantAcc2[2*p+1] ^= Mul(c1, src[p])
		}
		pt.MulAddPair(acc2, src)
		if !bytes.Equal(acc2, wantAcc2) {
			t.Fatalf("MulAddPair diverges, n=%d", n)
		}

		// Direct fused vs reference.
		want := make([][]byte, 4)
		for x := range want {
			want[x] = mkInit(1)
			refMulSliceAdd(cs[x], want[x], src)
		}
		eachBody(func(body string) {
			got := make([][]byte, 4)
			for x := range got {
				got[x] = mkInit(1)
			}
			MulAdd4(c0, c1, c2, c3, got[0], got[1], got[2], got[3], src)
			for x := range got {
				if !bytes.Equal(got[x], want[x]) {
					t.Fatalf("%s MulAdd4 row %d diverges, n=%d", body, x, n)
				}
			}
		})

		// Deinterleave4 must invert the interleaving.
		rows := make([][]byte, 4)
		for x := range rows {
			rows[x] = make([]byte, n)
		}
		Deinterleave4(wantAcc, rows[0], rows[1], rows[2], rows[3])
		for p := 0; p < n; p++ {
			for x := 0; x < 4; x++ {
				if rows[x][p] != wantAcc[4*p+x] {
					t.Fatalf("Deinterleave4 wrong at row %d pos %d", x, p)
				}
			}
		}
	})
}

func BenchmarkMulSliceAdd64K(b *testing.B) {
	src := make([]byte, 64<<10)
	dst := make([]byte, 64<<10)
	rand.New(rand.NewSource(7)).Read(src)
	b.SetBytes(64 << 10)
	for i := 0; i < b.N; i++ {
		MulSliceAdd(0x57, dst, src)
	}
}

func BenchmarkRefMulSliceAdd64K(b *testing.B) {
	src := make([]byte, 64<<10)
	dst := make([]byte, 64<<10)
	rand.New(rand.NewSource(7)).Read(src)
	b.SetBytes(64 << 10)
	for i := 0; i < b.N; i++ {
		refMulSliceAdd(0x57, dst, src)
	}
}

// BenchmarkMulAddQuad64K reports bytes/op as 4*n: one op updates four
// parity rows, so MB/s is directly comparable with the single-row
// kernels above.
func BenchmarkMulAddQuad64K(b *testing.B) {
	const n = 64 << 10
	src := make([]byte, n)
	rand.New(rand.NewSource(7)).Read(src)
	acc := make([]byte, 4*n)
	qt := MakeQuadTables(0x57, 0x8e, 0x3b, 0xc3)
	b.SetBytes(4 * n)
	for i := 0; i < b.N; i++ {
		qt.MulAddQuad(acc, src)
	}
}

func BenchmarkMulAdd4_64K(b *testing.B) {
	const n = 64 << 10
	src := make([]byte, n)
	rand.New(rand.NewSource(7)).Read(src)
	d := make([][]byte, 4)
	for i := range d {
		d[i] = make([]byte, n)
	}
	b.SetBytes(4 * n)
	for i := 0; i < b.N; i++ {
		MulAdd4(0x57, 0x8e, 0x3b, 0xc3, d[0], d[1], d[2], d[3], src)
	}
}

func BenchmarkDeinterleave4_64K(b *testing.B) {
	const n = 64 << 10
	acc := make([]byte, 4*n)
	rand.New(rand.NewSource(7)).Read(acc)
	d := make([][]byte, 4)
	for i := range d {
		d[i] = make([]byte, n)
	}
	b.SetBytes(4 * n)
	for i := 0; i < b.N; i++ {
		Deinterleave4(acc, d[0], d[1], d[2], d[3])
	}
}
