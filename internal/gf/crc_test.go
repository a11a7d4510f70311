package gf

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"
)

func TestCRC32CMatchesStdlib(t *testing.T) {
	table := crc32.MakeTable(crc32.Castagnoli)
	r := rand.New(rand.NewSource(31))
	for _, n := range kernelLengths {
		p := randBytes(r, n)
		if got, want := CRC32C(p), crc32.Checksum(p, table); got != want {
			t.Fatalf("CRC32C n=%d: got %08x want %08x", n, got, want)
		}
	}
}

// The encode plan checksums each block tile-by-tile; folding the tiles
// through CRC32CUpdate must equal one Checksum over the whole block.
func TestCRC32CUpdateFoldsTiles(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for _, n := range []int{0, 1, 100, 4096, 4097, 3*4096 + 65} {
		p := randBytes(r, n)
		for _, tile := range []int{1, 7, 4096} {
			var crc uint32
			for off := 0; off < n; off += tile {
				end := off + tile
				if end > n {
					end = n
				}
				crc = CRC32CUpdate(crc, p[off:end])
			}
			if want := CRC32C(p); crc != want {
				t.Fatalf("n=%d tile=%d: folded %08x want %08x", n, tile, crc, want)
			}
		}
	}
}

func TestMulSliceXorMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	eachBody(func(body string) {
		for n := 0; n <= maxSweepLen; n++ {
			a := randBytes(r, n)
			b := randBytes(r, n+1)[1:] // off a word boundary
			want := make([]byte, n)
			got := make([]byte, n)
			for c := 0; c < 256; c++ {
				RefMulSliceXor(byte(c), want, a, b)
				MulSliceXor(byte(c), got, a, b)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s MulSliceXor c=%d n=%d differs from reference", body, c, n)
				}
				// In-place form: dst aliases a.
				copy(got, a)
				MulSliceXor(byte(c), got, got, b)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s MulSliceXor in-place c=%d n=%d differs from reference", body, c, n)
				}
			}
		}
	})
}

func TestMulSliceXorLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	MulSliceXor(3, make([]byte, 4), make([]byte, 4), make([]byte, 5))
}

func FuzzMulSliceXor(f *testing.F) {
	f.Add(uint8(2), []byte("hello world, this is a tile"), []byte("another source block here!!"))
	f.Fuzz(func(t *testing.T, c uint8, a, b []byte) {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		want := make([]byte, n)
		RefMulSliceXor(c, want, a, b)
		got := make([]byte, n)
		MulSliceXor(c, got, a, b)
		if !bytes.Equal(got, want) {
			t.Fatalf("MulSliceXor c=%d n=%d differs from reference", c, n)
		}
	})
}
