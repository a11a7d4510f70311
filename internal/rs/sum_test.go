package rs

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"
)

// twoPassSums is the reference the fused path must match: scalar encode
// via EncodeRef, then a separate stdlib CRC-32C pass over every block.
func twoPassSums(t testing.TB, c *Code, data [][]byte, size int) ([][]byte, []uint32) {
	t.Helper()
	parity := make([][]byte, c.M())
	for i := range parity {
		parity[i] = make([]byte, size)
	}
	if err := c.EncodeRef(data, parity); err != nil {
		t.Fatal(err)
	}
	table := crc32.MakeTable(crc32.Castagnoli)
	sums := make([]uint32, c.K()+c.M())
	for i, b := range data {
		sums[i] = crc32.Checksum(b, table)
	}
	for i, b := range parity {
		sums[c.K()+i] = crc32.Checksum(b, table)
	}
	return parity, sums
}

// TestEncodeSumMatchesTwoPass pins the fused encode+CRC sweep — parity
// bytes and all k+m checksums — against the two-pass scalar reference
// across all group shapes and tile-edge sizes.
func TestEncodeSumMatchesTwoPass(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for _, sh := range fusedShapes {
		c, err := New(sh.k, sh.m)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range fusedSizes {
			data, parity := makeStripe(r, sh.k, sh.m, size)
			sums, err := c.EncodeSum(data, parity)
			if err != nil {
				t.Fatal(err)
			}
			wantParity, wantSums := twoPassSums(t, c, data, size)
			for i := range wantParity {
				if !bytes.Equal(parity[i], wantParity[i]) {
					t.Fatalf("RS(%d,%d) size=%d: fused parity %d differs from reference",
						sh.k, sh.m, size, i)
				}
			}
			for i := range wantSums {
				if sums[i] != wantSums[i] {
					t.Fatalf("RS(%d,%d) size=%d: sum %d = %08x, want %08x",
						sh.k, sh.m, size, i, sums[i], wantSums[i])
				}
			}
		}
	}
}

func TestEncodeSumIntoValidatesArgs(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	data, parity := makeStripe(rand.New(rand.NewSource(52)), 4, 2, 64)
	if err := c.EncodeSumInto(make([]uint32, 5), data, parity); err == nil {
		t.Fatal("want error for wrong sums length")
	}
	if err := c.EncodeSumInto(make([]uint32, 6), data[:3], parity); err == nil {
		t.Fatal("want error for wrong data count")
	}
}

// TestReconstructSum checks the repair-path variant: rebuilt blocks get
// their fused CRC, untouched entries keep the caller's sentinel.
func TestReconstructSum(t *testing.T) {
	const k, m, size = 6, 3, 2*tileSize + 77
	c, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(53))
	data, parity := makeStripe(r, k, m, size)
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	table := crc32.MakeTable(crc32.Castagnoli)

	blocks := make([][]byte, k+m)
	copy(blocks, data)
	copy(blocks[k:], parity)
	blocks[1], blocks[4], blocks[k+2] = nil, nil, nil
	const sentinel = 0xdeadbeef
	sums := make([]uint32, k+m)
	for i := range sums {
		sums[i] = sentinel
	}
	if err := c.ReconstructSum(blocks, sums); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 4, k + 2} {
		if want := crc32.Checksum(blocks[i], table); sums[i] != want {
			t.Fatalf("rebuilt block %d: sum %08x, want %08x", i, sums[i], want)
		}
	}
	for _, i := range []int{0, 2, 3, 5, k, k + 1} {
		if sums[i] != sentinel {
			t.Fatalf("present block %d: sum overwritten to %08x", i, sums[i])
		}
	}
	if !bytes.Equal(blocks[1], data[1]) || !bytes.Equal(blocks[4], data[4]) ||
		!bytes.Equal(blocks[k+2], parity[2]) {
		t.Fatal("reconstruction produced wrong content")
	}

	if err := c.ReconstructSum(blocks, make([]uint32, k)); err == nil {
		t.Fatal("want error for wrong sums length")
	}
}

// TestEncodeSumAllocs extends the steady-state allocation budget to the
// fused paths: EncodeSumInto and cached-pattern ReconstructSum with
// caller-supplied buffers must allocate nothing.
func TestEncodeSumAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const k, m, size = 10, 4, 64 << 10
	c, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(54))
	data, parity := makeStripe(r, k, m, size)
	sums := make([]uint32, k+m)
	if err := c.EncodeSumInto(sums, data, parity); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := c.EncodeSumInto(sums, data, parity); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("EncodeSumInto allocates %.1f per op, want 0", n)
	}

	blocks := make([][]byte, k+m)
	spare0 := make([]byte, 0, size)
	spare1 := make([]byte, 0, size)
	reset := func() {
		copy(blocks, data)
		copy(blocks[k:], parity)
		blocks[1] = spare0
		blocks[k+2] = spare1
	}
	reset()
	if err := c.ReconstructSum(blocks, sums); err != nil { // warm the decode cache
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		reset()
		if err := c.ReconstructSum(blocks, sums); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ReconstructSum with supplied buffers allocates %.1f per op, want 0", n)
	}
}

// FuzzFusedEncodeSum is the differential fuzz target pinning the fused
// single-pass encode+CRC of both kernel families (and whatever schedule
// the plan compiler chose, CSE or plain) byte-for-byte against the
// two-pass scalar reference.
func FuzzFusedEncodeSum(f *testing.F) {
	f.Add(uint8(10), uint8(4), uint16(200), int64(1))
	f.Add(uint8(1), uint8(1), uint16(1), int64(2))
	f.Add(uint8(8), uint8(8), uint16(4096), int64(3))
	f.Add(uint8(5), uint8(3), uint16(4105), int64(4))
	f.Fuzz(func(t *testing.T, k8, m8 uint8, size16 uint16, seed int64) {
		k := int(k8%24) + 1
		m := int(m8%8) + 1
		size := int(size16%(2*tileSize+129)) + 1
		packed, vector := familyCodes(t, k, m)
		r := rand.New(rand.NewSource(seed))
		data, _ := makeStripe(r, k, m, size)
		wantParity, wantSums := twoPassSums(t, packed, data, size)
		for _, c := range []*Code{packed, vector} {
			_, parity := makeStripe(r, k, m, size)
			sums, err := c.EncodeSum(data, parity)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantParity {
				if !bytes.Equal(parity[i], wantParity[i]) {
					t.Fatalf("RS(%d,%d) fam=%d size=%d: fused parity %d differs from two-pass reference",
						k, m, c.fam, size, i)
				}
			}
			for i := range wantSums {
				if sums[i] != wantSums[i] {
					t.Fatalf("RS(%d,%d) fam=%d size=%d: sum %d = %08x, want %08x",
						k, m, c.fam, size, i, sums[i], wantSums[i])
				}
			}
		}
	})
}
