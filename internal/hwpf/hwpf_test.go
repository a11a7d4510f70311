package hwpf

import (
	"testing"

	"dialga/internal/mem"
)

func newTestPF() *Prefetcher {
	cfg := mem.DefaultConfig()
	return New(&cfg)
}

// Walk a page sequentially and collect issued prefetches.
func walkSequential(p *Prefetcher, base mem.Addr, lines int) []mem.Addr {
	var issued []mem.Addr
	for i := 0; i < lines; i++ {
		reqs := p.OnAccess(base + mem.Addr(i*mem.CachelineSize))
		issued = append(issued, reqs...)
	}
	return issued
}

func TestTriggerThreshold(t *testing.T) {
	p := newTestPF()
	// Fewer than Trigger sequential accesses: nothing issued.
	issued := walkSequential(p, 0, p.Trigger)
	if len(issued) != 0 {
		t.Fatalf("issued %d prefetches before reaching trigger", len(issued))
	}
	// One more access crosses the threshold.
	reqs := p.OnAccess(mem.Addr(p.Trigger * mem.CachelineSize))
	if len(reqs) == 0 {
		t.Fatal("no prefetch at trigger confidence")
	}
}

func TestSequentialIssuesAhead(t *testing.T) {
	p := newTestPF()
	issued := walkSequential(p, 0, 16) // a 1 KB block
	if len(issued) == 0 {
		t.Fatal("sequential walk issued nothing")
	}
	// All issued lines are ahead of the walk and within the page.
	seen := map[uint64]bool{}
	for _, a := range issued {
		if a.Page() != 0 {
			t.Fatalf("prefetch crossed page boundary: %#x", uint64(a))
		}
		if seen[a.Line()] {
			t.Fatalf("line %d prefetched twice", a.Line())
		}
		seen[a.Line()] = true
	}
}

func TestNoPageCrossing(t *testing.T) {
	p := newTestPF()
	// Walk the tail of a page; issued prefetches must stop at the edge.
	base := mem.Addr(mem.PageSize - 8*mem.CachelineSize)
	issued := walkSequential(p, base, 8)
	for _, a := range issued {
		if a.Page() != 0 {
			t.Fatalf("prefetch %#x crossed the 4 KB boundary", uint64(a))
		}
	}
}

func TestShuffleDefeatsPrefetcher(t *testing.T) {
	p := newTestPF()
	// Shuffled (non-sequential) access order within a page: a stride
	// pattern with no +1 steps.
	order := []int{0, 17, 3, 40, 9, 25, 50, 12, 33, 5, 60, 21, 44, 8, 30, 55}
	var issued int
	for _, l := range order {
		issued += len(p.OnAccess(mem.Addr(l * mem.CachelineSize)))
	}
	if issued != 0 {
		t.Fatalf("shuffled access pattern still triggered %d prefetches", issued)
	}
}

func TestDisabledStillTrains(t *testing.T) {
	p := newTestPF()
	p.Enabled = false
	issued := walkSequential(p, 0, 16)
	if len(issued) != 0 {
		t.Fatal("disabled prefetcher issued requests")
	}
	// Re-enabling mid-stream resumes issue immediately (state retained).
	p.Enabled = true
	reqs := p.OnAccess(mem.Addr(16 * mem.CachelineSize))
	if len(reqs) == 0 {
		t.Fatal("re-enabled prefetcher did not resume")
	}
}

// Obs. 3: more concurrent streams than table slots thrash the table and
// stop all prefetching.
func TestStreamTableOverflow(t *testing.T) {
	p := newTestPF()
	nStreams := p.TableSize + 1
	var issued int
	// Round-robin over nStreams pages, sequential within each page —
	// the wide-stripe encode pattern.
	for line := 0; line < 32; line++ {
		for s := 0; s < nStreams; s++ {
			addr := mem.Addr(s*mem.PageSize + line*mem.CachelineSize)
			issued += len(p.OnAccess(addr))
		}
	}
	if issued != 0 {
		t.Fatalf("k > table size should disable prefetching, issued %d", issued)
	}
	if p.Stats().StreamEvicts == 0 {
		t.Fatal("expected stream table thrash")
	}

	// Exactly at capacity all streams train and issue.
	p = newTestPF()
	issued = 0
	for line := 0; line < 32; line++ {
		for s := 0; s < p.TableSize; s++ {
			addr := mem.Addr(s*mem.PageSize + line*mem.CachelineSize)
			issued += len(p.OnAccess(addr))
		}
	}
	if issued == 0 {
		t.Fatal("k == table size should prefetch")
	}
}

func TestDegreeRamp(t *testing.T) {
	p := newTestPF()
	var perAccess []int
	for i := 0; i < 20; i++ {
		reqs := p.OnAccess(mem.Addr(i * mem.CachelineSize))
		perAccess = append(perAccess, len(reqs))
	}
	// Issues begin small and the frontier advances by at most MaxDegree.
	maxBurst := 0
	for _, n := range perAccess {
		if n > maxBurst {
			maxBurst = n
		}
	}
	if maxBurst > p.MaxDegree {
		t.Fatalf("burst %d exceeds MaxDegree %d", maxBurst, p.MaxDegree)
	}
}

func TestSameLineAccessNeutral(t *testing.T) {
	p := newTestPF()
	walkSequential(p, 0, p.Trigger+1) // build confidence
	before := p.Stats().Issued
	// Re-access the same line repeatedly: confidence must not collapse.
	for i := 0; i < 4; i++ {
		p.OnAccess(mem.Addr(p.Trigger * mem.CachelineSize))
	}
	reqs := p.OnAccess(mem.Addr((p.Trigger + 1) * mem.CachelineSize))
	if p.Stats().Issued == before && len(reqs) == 0 {
		t.Fatal("same-line accesses destroyed the stream")
	}
}

func TestActiveStreams(t *testing.T) {
	p := newTestPF()
	if p.Stats().StreamAllocs != 0 {
		t.Fatal("fresh table not empty")
	}
	p.OnAccess(0)
	p.OnAccess(mem.PageSize)
	if got := p.Stats().StreamAllocs; got != 2 {
		t.Fatalf("StreamAllocs = %d, want 2", got)
	}
}

// Frontier semantics: accesses behind the stream frontier are ignored
// (a demand trailing a prefetch frontier must not kill the stream).
func TestBackwardAccessIgnored(t *testing.T) {
	p := newTestPF()
	walkSequential(p, 0, p.Trigger+2) // trained, frontier ahead
	before := p.Stats().Issued
	// Replay earlier lines: no decay, no issue anchored backwards.
	for i := 0; i < 4; i++ {
		if got := len(p.OnAccess(mem.Addr(i * mem.CachelineSize))); got != 0 {
			t.Fatalf("backward access issued %d prefetches", got)
		}
	}
	// The stream continues from its frontier.
	reqs := p.OnAccess(mem.Addr((p.Trigger + 2) * mem.CachelineSize))
	if p.Stats().Issued == before && len(reqs) == 0 {
		t.Fatal("backward accesses destroyed the stream")
	}
}

// Forward jumps are neutral: the frontier stays so the trailing
// sequential accesses keep training (the buffer-friendly prefetch
// pattern relies on this).
func TestForwardJumpNeutral(t *testing.T) {
	p := newTestPF()
	// Pattern: 0,1,[far 5],2,3,4,... confidence must still build.
	p.OnAccess(0)
	p.OnAccess(mem.Addr(1 * mem.CachelineSize))
	p.OnAccess(mem.Addr(5 * mem.CachelineSize)) // far prefetch-like jump
	issued := 0
	for l := 2; l < 12; l++ {
		issued += len(p.OnAccess(mem.Addr(l * mem.CachelineSize)))
	}
	if issued == 0 {
		t.Fatal("forward jump blocked stream training")
	}
}
