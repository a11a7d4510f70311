// Package workload builds the simulated address layouts the encode
// programs run over, mirroring the paper's benchmark setup: RS(k+m, k)
// random encoding over a large pre-filled region (§5.1).
//
// Each data block sits in an independent block-size-aligned slot of a
// shuffled region, matching "random stripes": the memory after a block
// within its 4 KiB page belongs to unrelated stripes, so
// hardware-prefetch overrun is wasted — the mechanism behind Obs. 4's
// read amplification.
package workload

import (
	"fmt"
	"math/rand"

	"dialga/internal/mem"
)

// Layout is the address map of one thread's encoding workload.
type Layout struct {
	K, M      int
	BlockSize int
	Stripes   int

	// Data[s][j] is the base address of data block j of stripe s.
	Data [][]mem.Addr
	// Parity[s][i] is the base address of parity block i of stripe s.
	Parity [][]mem.Addr
}

// threadRegion returns the base address of a thread's private address
// region; regions are 16 GiB apart so layouts never collide while still
// interleaving over the same device channels.
func threadRegion(threadID int) mem.Addr {
	return mem.Addr(uint64(threadID) << 34)
}

// parityRegionOffset separates the parity area from the data area
// within a thread region.
const parityRegionOffset = 8 << 30

// Config describes a workload layout.
type Config struct {
	K, M      int
	BlockSize int
	// TotalDataBytes is the amount of data encoded (the paper uses
	// 1 GiB; the simulator defaults to less since behaviour is
	// steady-state once the working set exceeds the LLC).
	TotalDataBytes int
	Seed           int64
}

// New builds a layout for one thread.
func New(cfg Config, threadID int) (*Layout, error) {
	if cfg.K <= 0 || cfg.M < 0 {
		return nil, fmt.Errorf("workload: invalid k=%d m=%d", cfg.K, cfg.M)
	}
	if cfg.BlockSize <= 0 || cfg.BlockSize%mem.CachelineSize != 0 {
		return nil, fmt.Errorf("workload: block size %d must be a positive multiple of %d", cfg.BlockSize, mem.CachelineSize)
	}
	stripes := cfg.TotalDataBytes / (cfg.K * cfg.BlockSize)
	if stripes <= 0 {
		return nil, fmt.Errorf("workload: total %d B too small for one stripe of %d x %d B",
			cfg.TotalDataBytes, cfg.K, cfg.BlockSize)
	}
	l := &Layout{
		K: cfg.K, M: cfg.M, BlockSize: cfg.BlockSize,
		Stripes: stripes,
		Data:    make([][]mem.Addr, stripes),
		Parity:  make([][]mem.Addr, stripes),
	}
	base := threadRegion(threadID)
	parityBase := base + parityRegionOffset

	// Shuffled block-aligned slots.
	r := rand.New(rand.NewSource(cfg.Seed + int64(threadID)*7919))
	perm := r.Perm(stripes * cfg.K)
	slot := 0
	for s := 0; s < stripes; s++ {
		l.Data[s] = make([]mem.Addr, cfg.K)
		for j := 0; j < cfg.K; j++ {
			l.Data[s][j] = base + mem.Addr(perm[slot]*cfg.BlockSize)
			slot++
		}
	}

	// Parity always sequential per column in its own region: parity is
	// freshly written, placement does not affect the read path. Columns
	// are staggered by one page each so they do not alias onto the
	// same interleave channel.
	parityStride := mem.Addr(stripes*cfg.BlockSize) + mem.PageSize
	for s := 0; s < stripes; s++ {
		l.Parity[s] = make([]mem.Addr, cfg.M)
		for i := 0; i < cfg.M; i++ {
			l.Parity[s][i] = parityBase + mem.Addr(i)*parityStride + mem.Addr(s*cfg.BlockSize)
		}
	}
	return l, nil
}

// DataBytes returns the total data bytes the layout encodes.
func (l *Layout) DataBytes() uint64 {
	return uint64(l.Stripes) * uint64(l.K) * uint64(l.BlockSize)
}

// LinesPerBlock returns the number of 64 B cachelines per block.
func (l *Layout) LinesPerBlock() int {
	return (l.BlockSize + mem.CachelineSize - 1) / mem.CachelineSize
}
