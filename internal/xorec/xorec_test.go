package xorec

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBlocks(r *rand.Rand, n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		r.Read(out[i])
	}
	return out
}

// refBitEncode computes the expected parity blocks in the Jerasure packet
// layout directly from GF(2^8) arithmetic: a block of size s is a w x
// (s) bit matrix whose rows are the w packets; each bit column is one
// GF symbol, multiplied through the parity matrix.
func refBitEncode(t *testing.T, enc *Encoder, data [][]byte) [][]byte {
	t.Helper()
	size := len(data[0])
	ps := size / W
	k, m := enc.K(), enc.M()
	out := make([][]byte, m)
	for i := range out {
		out[i] = make([]byte, size)
	}
	bm := enc.ParityBitMatrix()
	for col := 0; col < ps*8; col++ {
		bytePos, bitPos := col/8, uint(col%8)
		// Gather the input bit vector: bit (j*W + b) = bit bitPos of
		// data[j]'s packet b at bytePos.
		x := make([]bool, k*W)
		for j := 0; j < k; j++ {
			for b := 0; b < W; b++ {
				x[j*W+b] = data[j][b*ps+bytePos]&(1<<bitPos) != 0
			}
		}
		y := bm.BitMatrixVecMul(x)
		for i := 0; i < m; i++ {
			for b := 0; b < W; b++ {
				if y[i*W+b] {
					out[i][b*ps+bytePos] |= 1 << bitPos
				}
			}
		}
	}
	return out
}

// XOR encoding must agree with the direct bitmatrix-on-symbol-columns
// reference computation.
func TestEncodeMatchesBitReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, p := range []struct{ k, m int }{{2, 2}, {4, 2}, {8, 4}, {24, 4}} {
		enc, err := NewEncoder(p.k, p.m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		data := randBlocks(r, p.k, 512)
		want := refBitEncode(t, enc, data)
		got, err := enc.EncodeAppend(data)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("k=%d m=%d parity %d differs from bit-level reference", p.k, p.m, i)
			}
		}
	}
}

func TestSmartScheduleSameParity(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, p := range []struct{ k, m int }{{4, 2}, {8, 4}, {12, 3}} {
		naive, err := NewEncoder(p.k, p.m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		smart, err := NewEncoder(p.k, p.m, Options{SmartSchedule: true})
		if err != nil {
			t.Fatal(err)
		}
		data := randBlocks(r, p.k, 256)
		a, _ := naive.EncodeAppend(data)
		b, _ := smart.EncodeAppend(data)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("smart schedule parity differs for k=%d m=%d", p.k, p.m)
			}
		}
		if len(smart.Schedule()) > len(naive.Schedule()) {
			t.Errorf("smart schedule (%d ops) worse than naive (%d ops) for k=%d m=%d",
				len(smart.Schedule()), len(naive.Schedule()), p.k, p.m)
		}
	}
}

func TestEncodeValidation(t *testing.T) {
	enc, _ := NewEncoder(4, 2, Options{})
	r := rand.New(rand.NewSource(3))
	data := randBlocks(r, 4, 64)
	if err := enc.Encode(data[:3], randBlocks(r, 2, 64)); err == nil {
		t.Fatal("short data accepted")
	}
	if err := enc.Encode(data, randBlocks(r, 1, 64)); err == nil {
		t.Fatal("short parity accepted")
	}
	bad := randBlocks(r, 4, 60) // not a multiple of 8... 60 % 8 == 4
	if err := enc.Encode(bad, randBlocks(r, 2, 60)); err == nil {
		t.Fatal("unaligned block size accepted")
	}
	if _, err := NewEncoder(0, 2, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewEncoder(300, 2, Options{}); err == nil {
		t.Fatal("k+m>256 accepted")
	}
}

func TestDecoderAllPatterns(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	enc, err := NewEncoder(6, 3, Options{SmartSchedule: true})
	if err != nil {
		t.Fatal(err)
	}
	data := randBlocks(r, 6, 128)
	parity, err := enc.EncodeAppend(data)
	if err != nil {
		t.Fatal(err)
	}
	full := append(append([][]byte{}, data...), parity...)
	n := len(full)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := b + 1; c < n; c++ {
				missing := []int{a, b, c}
				dec, err := enc.NewDecoder(missing)
				if err != nil {
					t.Fatalf("decoder for %v: %v", missing, err)
				}
				work := make([][]byte, n)
				copy(work, full)
				for _, e := range missing {
					work[e] = nil
				}
				if err := dec.Decode(work); err != nil {
					t.Fatalf("decode %v: %v", missing, err)
				}
				for i := range full {
					if !bytes.Equal(work[i], full[i]) {
						t.Fatalf("block %d wrong after decoding %v", i, missing)
					}
				}
			}
		}
	}
}

func TestDecoderValidation(t *testing.T) {
	enc, _ := NewEncoder(4, 2, Options{})
	if _, err := enc.NewDecoder(nil); err == nil {
		t.Fatal("empty erasure list accepted")
	}
	if _, err := enc.NewDecoder([]int{0, 1, 2}); err == nil {
		t.Fatal("too many erasures accepted")
	}
	if _, err := enc.NewDecoder([]int{9}); err == nil {
		t.Fatal("out-of-range erasure accepted")
	}
	dec, err := enc.NewDecoder([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(make([][]byte, 3)); err == nil {
		t.Fatal("wrong stripe width accepted")
	}
}

func TestZerasure(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	enc, err := NewZerasure(8, 4, ZerasureOptions{Seed: 1, Iterations: 400})
	if err != nil {
		t.Fatal(err)
	}
	// The annealed code must still be a working MDS code.
	data := randBlocks(r, 8, 256)
	parity, err := enc.EncodeAppend(data)
	if err != nil {
		t.Fatal(err)
	}
	full := append(append([][]byte{}, data...), parity...)
	missing := []int{0, 3, 9, 11}
	dec, err := enc.NewDecoder(missing)
	if err != nil {
		t.Fatal(err)
	}
	work := make([][]byte, len(full))
	copy(work, full)
	for _, e := range missing {
		work[e] = nil
	}
	if err := dec.Decode(work); err != nil {
		t.Fatal(err)
	}
	for i := range full {
		if !bytes.Equal(work[i], full[i]) {
			t.Fatalf("zerasure decode wrong at block %d", i)
		}
	}

	// Annealing must not be worse than the plain Cauchy code.
	plain, _ := NewEncoder(8, 4, Options{SmartSchedule: true})
	if enc.XORCount() > plain.XORCount() {
		t.Errorf("zerasure XOR count %d worse than plain %d", enc.XORCount(), plain.XORCount())
	}
}

func TestZerasureWideStripeRefusal(t *testing.T) {
	if _, err := NewZerasure(48, 4, ZerasureOptions{Seed: 1}); err == nil {
		t.Fatal("zerasure should refuse k=48 (search space too large, per paper §5.2.1)")
	}
	var e ErrSearchSpace
	_, err := NewZerasure(48, 4, ZerasureOptions{Seed: 1})
	if !errorsAs(err, &e) || e.K != 48 {
		t.Fatalf("expected ErrSearchSpace{K:48}, got %v", err)
	}
}

func errorsAs(err error, target *ErrSearchSpace) bool {
	if e, ok := err.(ErrSearchSpace); ok {
		*target = e
		return true
	}
	return false
}

func TestCerasure(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, p := range []struct{ k, m int }{{8, 4}, {24, 4}, {48, 4}} {
		enc, err := NewCerasure(p.k, p.m)
		if err != nil {
			t.Fatal(err)
		}
		data := randBlocks(r, p.k, 128)
		parity, err := enc.EncodeAppend(data)
		if err != nil {
			t.Fatal(err)
		}
		full := append(append([][]byte{}, data...), parity...)
		missing := []int{1, p.k} // one data, one parity
		dec, err := enc.NewDecoder(missing)
		if err != nil {
			t.Fatal(err)
		}
		work := make([][]byte, len(full))
		copy(work, full)
		for _, e := range missing {
			work[e] = nil
		}
		if err := dec.Decode(work); err != nil {
			t.Fatal(err)
		}
		for i := range full {
			if !bytes.Equal(work[i], full[i]) {
				t.Fatalf("cerasure decode wrong at block %d (k=%d)", i, p.k)
			}
		}
		plain, _ := NewEncoder(p.k, p.m, Options{SmartSchedule: true})
		if enc.XORCount() > plain.XORCount() {
			t.Errorf("cerasure k=%d XOR count %d worse than plain %d", p.k, enc.XORCount(), plain.XORCount())
		}
	}
}

func TestDecomposedMatchesFullCode(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, p := range []struct{ k, m, w int }{{24, 4, 16}, {48, 4, 16}, {48, 4, 0}, {20, 2, 7}} {
		dec, err := NewDecomposed(p.k, p.m, p.w, nil)
		if err != nil {
			t.Fatal(err)
		}
		full, err := NewEncoder(p.k, p.m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		data := randBlocks(r, p.k, 256)
		want, _ := full.EncodeAppend(data)
		got := randBlocks(r, p.m, 256) // pre-filled garbage: Encode must overwrite
		if err := dec.Encode(data, got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("decomposed parity %d differs from full code (k=%d width=%d)", i, p.k, p.w)
			}
		}
		wantGroups := (p.k + max(p.w, 1) - 1) / max(p.w, 1)
		if p.w == 0 {
			wantGroups = (p.k + DefaultDecomposeWidth - 1) / DefaultDecomposeWidth
		}
		if dec.Groups() != wantGroups {
			t.Fatalf("groups = %d, want %d", dec.Groups(), wantGroups)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestScheduleStats(t *testing.T) {
	enc, _ := NewEncoder(4, 2, Options{})
	st := enc.Schedule().Stats(4)
	if st.Ops != len(enc.Schedule()) {
		t.Fatal("Ops mismatch")
	}
	if st.Copies != 2*W {
		t.Fatalf("naive schedule should have one copy per parity packet: got %d want %d", st.Copies, 2*W)
	}
	if st.Copies+st.XORs != st.Ops {
		t.Fatal("copies + xors != ops")
	}
	if st.DataReads+st.ParityRead != st.Ops {
		t.Fatal("reads don't sum to ops")
	}
	if st.ParityRead != 0 {
		t.Fatal("naive schedule should not read parity packets")
	}
}

// Property: encode then decode roundtrips for random parameters and
// random erasure patterns, for both scheduling modes.
func TestQuickEncodeDecodeRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(12)
		m := 1 + r.Intn(4)
		enc, err := NewEncoder(k, m, Options{SmartSchedule: seed%2 == 0})
		if err != nil {
			return false
		}
		size := 8 * (1 + r.Intn(64))
		data := randBlocks(r, k, size)
		parity, err := enc.EncodeAppend(data)
		if err != nil {
			return false
		}
		full := append(append([][]byte{}, data...), parity...)
		nMiss := 1 + r.Intn(m)
		missing := r.Perm(k + m)[:nMiss]
		dec, err := enc.NewDecoder(missing)
		if err != nil {
			return false
		}
		work := make([][]byte, len(full))
		copy(work, full)
		for _, e := range missing {
			work[e] = nil
		}
		if err := dec.Decode(work); err != nil {
			return false
		}
		for i := range full {
			if !bytes.Equal(work[i], full[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkXOREncode_8_4_1K(b *testing.B) {
	enc, err := NewEncoder(8, 4, Options{SmartSchedule: true})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(8))
	data := randBlocks(r, 8, 1024)
	parity := randBlocks(r, 4, 1024)
	b.SetBytes(8 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc.Encode(data, parity); err != nil {
			b.Fatal(err)
		}
	}
}

func TestLRCSchedule(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	enc, err := NewEncoder(8, 4, Options{SmartSchedule: true})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := enc.LRCSchedule(2)
	if err != nil {
		t.Fatal(err)
	}
	data := randBlocks(r, 8, 256)
	// Execute: outputs are 4 global + 2 local parities.
	out := make([][]byte, 6)
	for i := range out {
		out[i] = make([]byte, 256)
	}
	if err := executeSchedule(sched, data, out, 256); err != nil {
		t.Fatal(err)
	}
	// Globals match the plain encoder.
	want, _ := enc.EncodeAppend(data)
	for i := 0; i < 4; i++ {
		if !bytes.Equal(out[i], want[i]) {
			t.Fatalf("LRC global parity %d differs", i)
		}
	}
	// Locals are group XORs.
	for g := 0; g < 2; g++ {
		for j := 0; j < 256; j++ {
			var x byte
			for b := g * 4; b < (g+1)*4; b++ {
				x ^= data[b][j]
			}
			if out[4+g][j] != x {
				t.Fatalf("LRC local parity %d wrong at %d", g, j)
			}
		}
	}
	if _, err := enc.LRCSchedule(3); err == nil {
		t.Fatal("l not dividing k accepted")
	}
}
