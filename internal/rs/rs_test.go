package rs

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

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := New(4, -1); err == nil {
		t.Fatal("m<0 accepted")
	}
	if _, err := New(200, 100); err == nil {
		t.Fatal("k+m>256 accepted")
	}
	if _, err := New(252, 4); err != nil {
		t.Fatal("k+m=256 rejected")
	}
}

func TestEncodeVerify(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, p := range []struct{ k, m int }{{2, 1}, {4, 2}, {8, 4}, {24, 4}, {48, 4}} {
		c, err := New(p.k, p.m)
		if err != nil {
			t.Fatal(err)
		}
		data := randBlocks(r, p.k, 257)
		parity, err := c.EncodeAppend(data)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := c.Verify(data, parity)
		if err != nil || !ok {
			t.Fatalf("verify failed for k=%d m=%d: %v", p.k, p.m, err)
		}
		// Corrupt one byte: must fail verification.
		parity[0][13] ^= 1
		ok, err = c.Verify(data, parity)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatal("verify passed on corrupted parity")
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	c, _ := New(4, 2)
	r := rand.New(rand.NewSource(2))
	data := randBlocks(r, 4, 64)
	if err := c.Encode(data[:3], randBlocks(r, 2, 64)); err == nil {
		t.Fatal("wrong data count accepted")
	}
	if err := c.Encode(data, randBlocks(r, 1, 64)); err == nil {
		t.Fatal("wrong parity count accepted")
	}
	bad := randBlocks(r, 4, 64)
	bad[2] = bad[2][:32]
	if err := c.Encode(bad, randBlocks(r, 2, 64)); err == nil {
		t.Fatal("ragged blocks accepted")
	}
	if err := c.Encode(data, randBlocks(r, 2, 32)); err == nil {
		t.Fatal("parity size mismatch accepted")
	}
}

func TestReconstructAllErasurePatterns(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	c, err := New(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	data := randBlocks(r, 6, 128)
	parity, _ := c.EncodeAppend(data)
	full := append(append([][]byte{}, data...), parity...)

	// Exhaustively erase every subset of size 1..3.
	n := len(full)
	var subsets [][]int
	for a := 0; a < n; a++ {
		subsets = append(subsets, []int{a})
		for b := a + 1; b < n; b++ {
			subsets = append(subsets, []int{a, b})
			for d := b + 1; d < n; d++ {
				subsets = append(subsets, []int{a, b, d})
			}
		}
	}
	for _, erased := range subsets {
		work := make([][]byte, n)
		copy(work, full)
		for _, e := range erased {
			work[e] = nil
		}
		if err := c.Reconstruct(work); err != nil {
			t.Fatalf("reconstruct failed for erasures %v: %v", erased, err)
		}
		for i := range full {
			if !bytes.Equal(work[i], full[i]) {
				t.Fatalf("block %d wrong after reconstructing %v", i, erased)
			}
		}
	}
}

func TestReconstructTooMany(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	c, _ := New(4, 2)
	data := randBlocks(r, 4, 64)
	parity, _ := c.EncodeAppend(data)
	full := append(append([][]byte{}, data...), parity...)
	full[0], full[1], full[2] = nil, nil, nil
	if err := c.Reconstruct(full); err == nil {
		t.Fatal("3 erasures with m=2 accepted")
	}
}

func TestReconstructNoErasures(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	c, _ := New(3, 2)
	data := randBlocks(r, 3, 32)
	parity, _ := c.EncodeAppend(data)
	full := append(append([][]byte{}, data...), parity...)
	if err := c.Reconstruct(full); err != nil {
		t.Fatal(err)
	}
}

func TestReconstructDataOnly(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	c, _ := New(6, 3)
	data := randBlocks(r, 6, 96)
	parity, _ := c.EncodeAppend(data)
	full := append(append([][]byte{}, data...), parity...)

	work := make([][]byte, len(full))
	copy(work, full)
	work[1], work[4], work[7] = nil, nil, nil // 2 data + 1 parity
	if err := c.ReconstructData(work); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if !bytes.Equal(work[i], full[i]) {
			t.Fatalf("data block %d wrong", i)
		}
	}
	if work[7] != nil {
		t.Fatal("ReconstructData must not rebuild parity")
	}

	// No missing data: no work, parity stays nil.
	work2 := make([][]byte, len(full))
	copy(work2, full)
	work2[8] = nil
	if err := c.ReconstructData(work2); err != nil {
		t.Fatal(err)
	}
	if work2[8] != nil {
		t.Fatal("parity-only erasure should be left alone")
	}

	// Beyond m: error.
	work3 := make([][]byte, len(full))
	copy(work3, full)
	work3[0], work3[1], work3[2], work3[3] = nil, nil, nil, nil
	if err := c.ReconstructData(work3); err == nil {
		t.Fatal("4 erasures with m=3 accepted")
	}
}

func TestM0Rejected(t *testing.T) {
	if _, err := New(4, 0); err == nil {
		t.Fatal("m=0 accepted; parity-less codes are not erasure codes")
	}
}

// Property: any k random survivors reconstruct random data exactly.
func TestQuickReconstruct(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(10)
		m := 1 + r.Intn(4)
		c, err := New(k, m)
		if err != nil {
			return false
		}
		size := 1 + r.Intn(300)
		data := randBlocks(r, k, size)
		parity, err := c.EncodeAppend(data)
		if err != nil {
			return false
		}
		full := append(append([][]byte{}, data...), parity...)
		work := make([][]byte, len(full))
		copy(work, full)
		for _, e := range r.Perm(k + m)[:m] {
			work[e] = nil
		}
		if err := c.Reconstruct(work); err != nil {
			return false
		}
		for i := range full {
			if !bytes.Equal(work[i], full[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: encoding is linear — parity of (a XOR b) equals parity(a) XOR parity(b).
func TestQuickEncodeLinear(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c, err := New(4, 3)
		if err != nil {
			return false
		}
		size := 64
		a := randBlocks(r, 4, size)
		b := randBlocks(r, 4, size)
		sum := make([][]byte, 4)
		for i := range sum {
			sum[i] = make([]byte, size)
			for j := 0; j < size; j++ {
				sum[i][j] = a[i][j] ^ b[i][j]
			}
		}
		pa, _ := c.EncodeAppend(a)
		pb, _ := c.EncodeAppend(b)
		ps, _ := c.EncodeAppend(sum)
		for i := 0; i < 3; i++ {
			for j := 0; j < size; j++ {
				if ps[i][j] != pa[i][j]^pb[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeRS_12_8_1K(b *testing.B) {
	benchEncode(b, 8, 4, 1024)
}

func BenchmarkEncodeRS_28_24_1K(b *testing.B) {
	benchEncode(b, 24, 4, 1024)
}

func BenchmarkEncodeRS_52_48_1K(b *testing.B) {
	benchEncode(b, 48, 4, 1024)
}

func benchEncode(b *testing.B, k, m, size int) {
	c, err := New(k, m)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	data := randBlocks(r, k, size)
	parity := randBlocks(r, m, size)
	b.SetBytes(int64(k * size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(data, parity); err != nil {
			b.Fatal(err)
		}
	}
}
