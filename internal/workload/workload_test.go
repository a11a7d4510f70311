package workload

import (
	"testing"

	"dialga/internal/mem"
)

func TestValidation(t *testing.T) {
	bad := []Config{
		{K: 0, M: 4, BlockSize: 1024, TotalDataBytes: 1 << 20},
		{K: 8, M: -1, BlockSize: 1024, TotalDataBytes: 1 << 20},
		{K: 8, M: 4, BlockSize: 100, TotalDataBytes: 1 << 20}, // unaligned
		{K: 8, M: 4, BlockSize: 1024, TotalDataBytes: 1024},   // < one stripe
	}
	for i, cfg := range bad {
		if _, err := New(cfg, 0); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
}

func TestScatteredLayout(t *testing.T) {
	cfg := Config{K: 8, M: 4, BlockSize: 1024, TotalDataBytes: 1 << 20, Seed: 1}
	l, err := New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.Stripes != (1<<20)/(8*1024) {
		t.Fatalf("stripes = %d", l.Stripes)
	}
	if l.DataBytes() != 1<<20 {
		t.Fatalf("DataBytes = %d", l.DataBytes())
	}
	// All data blocks are block-aligned, unique, and inside the data
	// region.
	seen := map[mem.Addr]bool{}
	for s := 0; s < l.Stripes; s++ {
		if len(l.Data[s]) != 8 || len(l.Parity[s]) != 4 {
			t.Fatal("wrong stripe width")
		}
		for _, a := range l.Data[s] {
			if uint64(a)%1024 != 0 {
				t.Fatalf("block %x not aligned", uint64(a))
			}
			if seen[a] {
				t.Fatalf("block %x reused", uint64(a))
			}
			seen[a] = true
			if a >= threadRegion(0)+parityRegionOffset {
				t.Fatal("data block in parity region")
			}
		}
	}
}

func TestScatteredIsShuffled(t *testing.T) {
	cfg := Config{K: 4, M: 2, BlockSize: 1024, TotalDataBytes: 1 << 20, Seed: 7}
	l, _ := New(cfg, 0)
	sequentialPairs := 0
	total := 0
	var prev mem.Addr
	for s := 0; s < l.Stripes; s++ {
		for _, a := range l.Data[s] {
			if total > 0 && a == prev+1024 {
				sequentialPairs++
			}
			prev = a
			total++
		}
	}
	if sequentialPairs > total/10 {
		t.Fatalf("scattered layout looks sequential: %d/%d consecutive pairs", sequentialPairs, total)
	}
}

func TestThreadRegionsDisjoint(t *testing.T) {
	cfg := Config{K: 8, M: 4, BlockSize: 4096, TotalDataBytes: 4 << 20, Seed: 3}
	l0, _ := New(cfg, 0)
	l1, _ := New(cfg, 1)
	if threadRegion(1)-threadRegion(0) < mem.Addr(cfg.TotalDataBytes)*4 {
		t.Fatal("thread regions too close")
	}
	max0 := mem.Addr(0)
	for s := range l0.Parity {
		for _, a := range l0.Parity[s] {
			if a > max0 {
				max0 = a
			}
		}
	}
	if max0 >= threadRegion(1) {
		t.Fatal("thread 0 layout spills into thread 1's region")
	}
	if l1.Data[0][0] < threadRegion(1) {
		t.Fatal("thread 1 layout below its region")
	}
}

func TestParityDistinctFromData(t *testing.T) {
	cfg := Config{K: 4, M: 2, BlockSize: 1024, TotalDataBytes: 1 << 20, Seed: 5}
	l, _ := New(cfg, 0)
	for s := range l.Parity {
		for i, a := range l.Parity[s] {
			if uint64(a)%64 != 0 {
				t.Fatal("parity unaligned")
			}
			if i > 0 && l.Parity[s][i] == l.Parity[s][i-1] {
				t.Fatal("duplicate parity address")
			}
		}
	}
}

func TestLinesPerBlock(t *testing.T) {
	cfg := Config{K: 2, M: 1, BlockSize: 5120, TotalDataBytes: 1 << 20}
	l, _ := New(cfg, 0)
	if l.LinesPerBlock() != 80 {
		t.Fatalf("5 KB block = %d lines, want 80", l.LinesPerBlock())
	}
}

// Parity columns must not alias onto a single interleave channel
// (stride multiples of the channel count would serialize all parity
// writes; the columns are page-staggered to prevent it).
func TestParityColumnsSpreadAcrossChannels(t *testing.T) {
	cfg := Config{K: 8, M: 4, BlockSize: 1024, TotalDataBytes: 8 << 20, Seed: 1}
	l, _ := New(cfg, 0)
	const channels = 6
	seen := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		seen[uint64(l.Parity[0][i].Page())%channels] = true
	}
	if len(seen) < 2 {
		t.Fatalf("all parity columns alias to %d channel(s)", len(seen))
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{K: 8, M: 4, BlockSize: 1024, TotalDataBytes: 1 << 20, Seed: 11}
	a, _ := New(cfg, 0)
	b, _ := New(cfg, 0)
	for s := range a.Data {
		for j := range a.Data[s] {
			if a.Data[s][j] != b.Data[s][j] {
				t.Fatal("layout not deterministic")
			}
		}
	}
}
