package rs

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// fusedShapes covers every row-group decomposition the planner can
// produce: 1, 2, 2+1, 4, 4+1, 4+2, 4+2+1, 4+4.
var fusedShapes = []struct{ k, m int }{
	{1, 1}, {3, 2}, {5, 3}, {10, 4}, {4, 5}, {10, 6}, {6, 7}, {8, 8},
}

// fusedSizes exercises tiles: sub-tile, sub-word, exact tile, tile+tail,
// multi-tile with unaligned tail.
var fusedSizes = []int{1, 7, 200, tileSize, tileSize + 9, 3*tileSize + 65}

func makeStripe(r *rand.Rand, k, m, size int) (data, parity [][]byte) {
	data = make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, size)
		r.Read(data[i])
	}
	parity = make([][]byte, m)
	for i := range parity {
		parity[i] = make([]byte, size)
	}
	return data, parity
}

// TestEncodeMatchesRef pins the fused tiled encoder byte-for-byte
// against the scalar reference across all group shapes and tile-edge
// sizes.
func TestEncodeMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, sh := range fusedShapes {
		c, err := New(sh.k, sh.m)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range fusedSizes {
			data, parity := makeStripe(r, sh.k, sh.m, size)
			if err := c.Encode(data, parity); err != nil {
				t.Fatal(err)
			}
			want := make([][]byte, sh.m)
			for i := range want {
				want[i] = make([]byte, size)
			}
			if err := c.EncodeRef(data, want); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !bytes.Equal(parity[i], want[i]) {
					t.Fatalf("RS(%d,%d) size=%d: fused parity %d differs from reference",
						sh.k, sh.m, size, i)
				}
			}
		}
	}
}

// TestReconstructReusesBuffers checks the zero-length-with-capacity
// convention: supplied backing arrays are reused rather than
// reallocated.
func TestReconstructReusesBuffers(t *testing.T) {
	const k, m, size = 6, 3, 1000
	c, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	data, parity := makeStripe(r, k, m, size)
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	blocks := make([][]byte, k+m)
	copy(blocks, data)
	copy(blocks[k:], parity)

	orig := append([]byte(nil), blocks[2]...)
	reuse := make([]byte, 0, size)
	blocks[2] = reuse
	blocks[k+1] = nil // nil stays supported and gets allocated
	if err := c.Reconstruct(blocks); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blocks[2], orig) {
		t.Fatal("reconstructed data block content wrong")
	}
	if &blocks[2][0] != &reuse[:1][0] {
		t.Fatal("caller-supplied capacity was not reused")
	}
	if !bytes.Equal(blocks[k+1], parity[1]) {
		t.Fatal("reconstructed parity block content wrong")
	}
}

// TestReconstructDecodeCache exercises repeated repairs of the same and
// different erasure patterns so cache hits and eviction paths both run.
func TestReconstructDecodeCache(t *testing.T) {
	const k, m, size = 4, 2, 333
	c, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(43))
	data, parity := makeStripe(r, k, m, size)
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for a := 0; a < k+m; a++ {
			for b := a + 1; b < k+m; b++ {
				blocks := make([][]byte, k+m)
				copy(blocks, data)
				copy(blocks[k:], parity)
				blocks[a], blocks[b] = nil, nil
				if err := c.Reconstruct(blocks); err != nil {
					t.Fatalf("erase {%d,%d}: %v", a, b, err)
				}
				for i := 0; i < k; i++ {
					if !bytes.Equal(blocks[i], data[i]) {
						t.Fatalf("erase {%d,%d}: data %d wrong", a, b, i)
					}
				}
				for i := 0; i < m; i++ {
					if !bytes.Equal(blocks[k+i], parity[i]) {
						t.Fatalf("erase {%d,%d}: parity %d wrong", a, b, i)
					}
				}
			}
		}
	}
	c.mu.RLock()
	entries := len(c.decode)
	c.mu.RUnlock()
	if want := (k + m) * (k + m - 1) / 2; entries != want {
		t.Fatalf("decode cache holds %d entries, want %d", entries, want)
	}
}

func TestDecodeCacheEviction(t *testing.T) {
	// k+m = 20 gives 190 two-erasure patterns, well past the cache cap.
	const k, m, size = 16, 4, 64
	c, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(44))
	data, parity := makeStripe(r, k, m, size)
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < k+m; a++ {
		for b := a + 1; b < k+m; b++ {
			blocks := make([][]byte, k+m)
			copy(blocks, data)
			copy(blocks[k:], parity)
			blocks[a], blocks[b] = nil, nil
			if err := c.Reconstruct(blocks); err != nil {
				t.Fatalf("erase {%d,%d}: %v", a, b, err)
			}
			if !bytes.Equal(blocks[a], append(append([][]byte{}, data...), parity...)[a]) {
				t.Fatalf("erase {%d,%d}: block %d wrong", a, b, a)
			}
		}
	}
	c.mu.RLock()
	entries := len(c.decode)
	c.mu.RUnlock()
	if entries > maxDecodeEntries {
		t.Fatalf("decode cache grew to %d entries, cap %d", entries, maxDecodeEntries)
	}
}

// TestDecodeCacheLRU pins the eviction policy: a hot erasure pattern —
// touched between every batch of one-off patterns, the way a failed
// device's pattern recurs on every stripe — must survive arbitrary
// churn, and its compiled entry must never be rebuilt.
func TestDecodeCacheLRU(t *testing.T) {
	const k, m, size = 16, 4, 64
	c, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(49))
	data, parity := makeStripe(r, k, m, size)
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	repair := func(a, b int) {
		blocks := make([][]byte, k+m)
		copy(blocks, data)
		copy(blocks[k:], parity)
		blocks[a] = nil
		if b >= 0 {
			blocks[b] = nil
		}
		if err := c.Reconstruct(blocks); err != nil {
			t.Fatalf("erase {%d,%d}: %v", a, b, err)
		}
	}

	repair(0, -1) // the hot pattern: block 0 missing
	hotKey, _ := erasureKeyOf(append(append([][]byte{nil}, data[1:]...), parity...))
	c.mu.RLock()
	hotEntry := c.decode[hotKey]
	c.mu.RUnlock()
	if hotEntry == nil {
		t.Fatal("hot pattern not cached after first repair")
	}

	// Churn through 190 one-off two-erasure patterns (~3x the cache
	// cap), re-touching the hot pattern after every few, the way real
	// repair traffic interleaves.
	n := 0
	for a := 0; a < k+m; a++ {
		for b := a + 1; b < k+m; b++ {
			repair(a, b)
			if n++; n%5 == 0 {
				repair(0, -1)
			}
		}
	}

	c.mu.RLock()
	got := c.decode[hotKey]
	entries := len(c.decode)
	c.mu.RUnlock()
	if got == nil {
		t.Fatal("hot pattern evicted by one-off churn")
	}
	if got != hotEntry {
		t.Fatal("hot pattern was evicted and rebuilt")
	}
	if entries > maxDecodeEntries {
		t.Fatalf("cache grew to %d entries, cap %d", entries, maxDecodeEntries)
	}
}

// Steady-state allocation budgets: encode and verify must not
// allocate at all; reconstruction with caller-supplied buffers must not
// either once its decode plan is cached.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	const k, m, size = 10, 4, 64 << 10
	c, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(45))
	data, parity := makeStripe(r, k, m, size)
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}

	if n := testing.AllocsPerRun(20, func() {
		if err := c.Encode(data, parity); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Encode allocates %.1f per op, want 0", n)
	}

	if n := testing.AllocsPerRun(20, func() {
		ok, err := c.Verify(data, parity)
		if err != nil || !ok {
			t.Fatal("verify failed")
		}
	}); n != 0 {
		t.Errorf("Verify allocates %.1f per op, want 0", n)
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
	if err := c.Reconstruct(blocks); err != nil { // warm the decode cache
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		reset()
		if err := c.Reconstruct(blocks); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Reconstruct with supplied buffers allocates %.1f per op, want 0", n)
	}
	if !bytes.Equal(blocks[1], data[1]) || !bytes.Equal(blocks[k+2], parity[2]) {
		t.Fatal("alloc-free reconstruction produced wrong content")
	}
}

// TestConcurrentCodecUse hammers one Code from many goroutines mixing
// encode, verify, and reconstruction of rotating erasure patterns, so
// the decode-plan cache and scratch pools run under the race detector.
func TestConcurrentCodecUse(t *testing.T) {
	const k, m, size, workers = 6, 3, 4*tileSize + 33, 8
	c, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(48))
	data, parity := makeStripe(r, k, m, size)
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			myParity := make([][]byte, m)
			for i := range myParity {
				myParity[i] = make([]byte, size)
			}
			blocks := make([][]byte, k+m)
			for iter := 0; iter < 30; iter++ {
				if err := c.Encode(data, myParity); err != nil {
					errc <- err
					return
				}
				if ok, err := c.Verify(data, myParity); err != nil || !ok {
					errc <- fmt.Errorf("worker %d iter %d: verify ok=%v err=%v", w, iter, ok, err)
					return
				}
				copy(blocks, data)
				copy(blocks[k:], parity)
				a := (w + iter) % (k + m)
				b := (w + iter + 1 + iter%(k+m-1)) % (k + m)
				blocks[a] = nil
				if a != b {
					blocks[b] = nil
				}
				if err := c.Reconstruct(blocks); err != nil {
					errc <- err
					return
				}
				if a < k && !bytes.Equal(blocks[a], data[a]) {
					errc <- fmt.Errorf("worker %d iter %d: block %d wrong", w, iter, a)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestVerifyDetectsCorruption flips single bytes at tile-relevant
// offsets in every parity row and expects Verify to notice each one.
func TestVerifyDetectsCorruption(t *testing.T) {
	const k, m, size = 5, 3, 2*tileSize + 100
	c, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(46))
	data, parity := makeStripe(r, k, m, size)
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	ok, err := c.Verify(data, parity)
	if err != nil || !ok {
		t.Fatalf("clean stripe failed verification: ok=%v err=%v", ok, err)
	}
	for i := 0; i < m; i++ {
		for _, off := range []int{0, tileSize - 1, tileSize, size - 1} {
			parity[i][off] ^= 0x40
			ok, err := c.Verify(data, parity)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Fatalf("corruption in parity %d at %d not detected", i, off)
			}
			parity[i][off] ^= 0x40
		}
	}
}

func BenchmarkEncodeFused(b *testing.B) {
	benchEncodeWith(b, func(c *Code, d, p [][]byte) error { return c.Encode(d, p) })
}

func BenchmarkEncodeScalarRef(b *testing.B) {
	benchEncodeWith(b, func(c *Code, d, p [][]byte) error { return c.EncodeRef(d, p) })
}

func benchEncodeWith(b *testing.B, enc func(*Code, [][]byte, [][]byte) error) {
	const k, m, size = 10, 4, 64 << 10
	c, err := New(k, m)
	if err != nil {
		b.Fatal(err)
	}
	data, parity := makeStripe(rand.New(rand.NewSource(47)), k, m, size)
	b.SetBytes(int64(k * size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := enc(c, data, parity); err != nil {
			b.Fatal(err)
		}
	}
}
