package isal

import (
	"testing"

	"dialga/internal/engine"
	"dialga/internal/mem"
	"dialga/internal/workload"
)

func testLayout(t *testing.T, k, m, block, totalKB int) *workload.Layout {
	t.Helper()
	l, err := workload.New(workload.Config{
		K: k, M: m, BlockSize: block,
		TotalDataBytes: totalKB << 10,
		Seed:           7,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// drain consumes the whole program, returning op-level aggregates.
func drain(t *testing.T, p engine.Program) (loads, stores, prefetches int, compute float64) {
	t.Helper()
	var op engine.Op
	for {
		op.Reset()
		if !p.Next(&op) {
			return
		}
		loads += len(op.Loads)
		stores += len(op.Stores)
		prefetches += len(op.SWPrefetches)
		compute += op.ComputeCycles
	}
}

func TestProgramLoadStoreCounts(t *testing.T) {
	cfg := mem.DefaultConfig()
	l := testLayout(t, 8, 4, 1024, 256)
	p := NewProgram(l, &cfg, KernelParams{})
	loads, stores, prefetches, compute := drain(t, p)
	wantLoads := l.Stripes * 8 * 16 // k blocks x 16 lines
	if loads != wantLoads {
		t.Fatalf("loads = %d, want %d", loads, wantLoads)
	}
	wantStores := l.Stripes * 4 * 16
	if stores != wantStores {
		t.Fatalf("stores = %d, want %d", stores, wantStores)
	}
	if prefetches != 0 {
		t.Fatal("plain kernel issued prefetches")
	}
	if compute <= 0 {
		t.Fatal("no compute charged")
	}
	if p.DataBytes() != l.DataBytes() {
		t.Fatal("DataBytes mismatch")
	}
}

func TestProgramLoadsCoverEveryLineOnce(t *testing.T) {
	cfg := mem.DefaultConfig()
	for _, params := range []KernelParams{
		{},
		{Shuffle: true},
		{XPLineLoop: true},
		{Shuffle: true, XPLineLoop: true},
	} {
		l := testLayout(t, 4, 2, 1024, 64)
		p := NewProgram(l, &cfg, params)
		seen := map[mem.Addr]int{}
		var op engine.Op
		for {
			op.Reset()
			if !p.Next(&op) {
				break
			}
			for _, a := range op.Loads {
				seen[a.LineAddr()]++
			}
		}
		want := l.Stripes * 4 * 16
		if len(seen) != want {
			t.Fatalf("params %+v: %d distinct lines, want %d", params, len(seen), want)
		}
		for a, n := range seen {
			if n != 1 {
				t.Fatalf("params %+v: line %x loaded %d times", params, uint64(a), n)
			}
		}
	}
}

func TestShuffleAvoidsSequentialRuns(t *testing.T) {
	for _, n := range []int{4, 8, 16, 64, 80} {
		perm := staticShuffle(n)
		seen := make([]bool, n)
		for i, v := range perm {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("n=%d: not a permutation", n)
			}
			seen[v] = true
			if i > 0 && v == perm[i-1]+1 {
				t.Fatalf("n=%d: sequential pair at %d", n, i)
			}
		}
	}
}

func TestSWPrefetchTargetsLeadLoads(t *testing.T) {
	cfg := mem.DefaultConfig()
	l := testLayout(t, 4, 2, 1024, 64)
	d := 8
	p := NewProgram(l, &cfg, KernelParams{SWPrefetch: true, PrefetchDistance: d})
	var loadSeq, pfSeq []mem.Addr
	var op engine.Op
	for {
		op.Reset()
		if !p.Next(&op) {
			break
		}
		loadSeq = append(loadSeq, op.Loads...)
		pfSeq = append(pfSeq, op.SWPrefetches...)
	}
	if len(pfSeq) == 0 {
		t.Fatal("no prefetches")
	}
	// Prefetch i must equal load i+d (pipelined, distance d), except
	// for the tail where prefetching reverts to the standard kernel.
	if len(pfSeq) != len(loadSeq)-d {
		t.Fatalf("prefetch count %d, want %d", len(pfSeq), len(loadSeq)-d)
	}
	for i, a := range pfSeq {
		if a != loadSeq[i+d] {
			t.Fatalf("prefetch %d targets %x, want load[%d]=%x", i, uint64(a), i+d, uint64(loadSeq[i+d]))
		}
	}
}

func TestBufferFriendlyCoverage(t *testing.T) {
	cfg := mem.DefaultConfig()
	l := testLayout(t, 4, 2, 1024, 64)
	p := NewProgram(l, &cfg, KernelParams{
		SWPrefetch: true, PrefetchDistance: 8,
		BufferFriendly: true,
	})
	loads := map[mem.Addr]bool{}
	pf := map[mem.Addr]int{}
	var op engine.Op
	for {
		op.Reset()
		if !p.Next(&op) {
			break
		}
		for _, a := range op.Loads {
			loads[a] = true
		}
		for _, a := range op.SWPrefetches {
			pf[a]++
		}
	}
	// Every prefetched address is a real load target and no address is
	// prefetched twice (exact coverage of the classify-by-target
	// scheme).
	for a, n := range pf {
		if !loads[a] {
			t.Fatalf("prefetched non-load address %x", uint64(a))
		}
		if n != 1 {
			t.Fatalf("address %x prefetched %d times", uint64(a), n)
		}
	}
	// Coverage is near-complete (tail and boundary windows excepted).
	if len(pf) < len(loads)*9/10 {
		t.Fatalf("buffer-friendly prefetch covers only %d of %d loads", len(pf), len(loads))
	}
}

func TestXPLineLoopGroupsBlockLines(t *testing.T) {
	cfg := mem.DefaultConfig()
	l := testLayout(t, 4, 2, 1024, 64)
	p := NewProgram(l, &cfg, KernelParams{XPLineLoop: true})
	var op engine.Op
	op.Reset()
	if !p.Next(&op) {
		t.Fatal("empty program")
	}
	// One op covers 4 rows x k blocks, block-major: the first four
	// loads are consecutive lines of one block (a full XPLine).
	if len(op.Loads) != 4*4 {
		t.Fatalf("XPLine op has %d loads, want 16", len(op.Loads))
	}
	for i := 1; i < 4; i++ {
		if op.Loads[i] != op.Loads[i-1]+mem.CachelineSize {
			t.Fatal("XPLine group is not block-contiguous")
		}
	}
	if op.Loads[0].PageOffset()%mem.XPLineSize != 0 {
		t.Fatal("XPLine group not aligned to an XPLine")
	}
}

func TestOnStripeHookSwitchesParams(t *testing.T) {
	cfg := mem.DefaultConfig()
	l := testLayout(t, 4, 2, 1024, 64)
	p := NewProgram(l, &cfg, KernelParams{})
	var calls int
	p.OnStripe = func(stripe int, kp *KernelParams) {
		calls++
		kp.Shuffle = stripe%2 == 1 // flip per stripe
	}
	var op engine.Op
	total := 0
	for {
		op.Reset()
		if !p.Next(&op) {
			break
		}
		total += len(op.Loads)
	}
	if calls != l.Stripes {
		t.Fatalf("OnStripe called %d times, want %d", calls, l.Stripes)
	}
	if total != l.Stripes*4*16 {
		t.Fatal("switching params mid-run lost loads")
	}
}

func TestLRCComputeAndStores(t *testing.T) {
	cfg := mem.DefaultConfig()
	// LRC(4, 2 global, 2 local): layout M = 4.
	l := testLayout(t, 4, 4, 1024, 64)
	plain := NewProgram(l, &cfg, KernelParams{})
	lrc := NewProgram(l, &cfg, KernelParams{})
	lrc.LRCLocalGroups = 2
	_, plainStores, _, plainCompute := drain(t, plain)
	_, lrcStores, _, lrcCompute := drain(t, lrc)
	if plainStores != lrcStores {
		t.Fatal("LRC must store the same m+l parity lines")
	}
	if lrcCompute >= plainCompute {
		t.Fatal("LRC local XOR parities must be cheaper than GF parities")
	}
}

func TestDecomposedProgram(t *testing.T) {
	cfg := mem.DefaultConfig()
	l := testLayout(t, 48, 4, 1024, 96)
	p := NewDecomposedProgram(l, &cfg, 16)
	if len(p.groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(p.groups))
	}
	loads, stores, _, _ := drain(t, p)
	lines := l.LinesPerBlock()
	// Loads: all data lines once + parity reloads for groups 2 and 3.
	wantLoads := l.Stripes * (48*lines + 2*4*lines)
	if loads != wantLoads {
		t.Fatalf("loads = %d, want %d (with parity reloading)", loads, wantLoads)
	}
	// Stores: m lines per row per group.
	wantStores := l.Stripes * 3 * 4 * lines
	if stores != wantStores {
		t.Fatalf("stores = %d, want %d (amplified parity writes)", stores, wantStores)
	}
}

func TestDecomposedDefaultWidth(t *testing.T) {
	cfg := mem.DefaultConfig()
	l := testLayout(t, 20, 4, 1024, 80)
	p := NewDecomposedProgram(l, &cfg, 0)
	if p.Width != 16 || len(p.groups) != 2 {
		t.Fatalf("default width=%d groups=%d", p.Width, len(p.groups))
	}
}
