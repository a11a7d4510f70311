package gf

import (
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
