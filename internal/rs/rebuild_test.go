package rs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"dialga/internal/gf"
)

// encodedStripe returns a random encoded stripe as k+m blocks.
func encodedStripe(t testing.TB, r *rand.Rand, c *Code, size int) [][]byte {
	t.Helper()
	data, parity := makeStripe(r, c.K(), c.M(), size)
	if err := c.Encode(data, parity); err != nil {
		t.Fatal(err)
	}
	return append(data, parity...)
}

// checkRebuild rebuilds block want from the blocks in survivors and
// holds the result against three references: the encoded stripe,
// Reconstruct over the same survivor set, and gf.CRC32C of the block.
// It also checks nothing but dst was written.
func checkRebuild(t *testing.T, c *Code, stripe [][]byte, survivors []int, want int) {
	t.Helper()
	n, size := len(stripe), len(stripe[0])
	blocks := make([][]byte, n)
	ref := make([][]byte, n)
	for _, i := range survivors {
		blocks[i] = stripe[i]
		ref[i] = stripe[i]
	}
	dst := make([]byte, size)
	sum, err := c.RebuildSum(blocks, want, dst)
	if err != nil {
		t.Fatalf("want=%d survivors=%v: %v", want, survivors, err)
	}
	if err := c.Reconstruct(ref); err != nil {
		t.Fatalf("want=%d survivors=%v: reference: %v", want, survivors, err)
	}
	if !bytes.Equal(dst, ref[want]) || !bytes.Equal(dst, stripe[want]) {
		t.Fatalf("want=%d survivors=%v: rebuilt block differs from Reconstruct / the encoded stripe", want, survivors)
	}
	if sum != gf.CRC32C(dst) {
		t.Fatalf("want=%d survivors=%v: sum %08x, want %08x", want, survivors, sum, gf.CRC32C(dst))
	}
	present := make(map[int]bool, len(survivors))
	for _, i := range survivors {
		present[i] = true
	}
	for i, b := range blocks {
		if !present[i] && b != nil {
			t.Fatalf("want=%d survivors=%v: absent block %d was rebuilt", want, survivors, i)
		}
	}
}

// TestRebuildSumExhaustive is the differential test of the
// single-target rebuild: every (target, survivor set) of RS(4,2) and a
// seeded sample of RS(10,4), at a size that crosses a tile edge.
func TestRebuildSumExhaustive(t *testing.T) {
	const size = tileSize + 77
	r := rand.New(rand.NewSource(61))

	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	stripe := encodedStripe(t, r, c, size)
	cases := 0
	for want := 0; want < 6; want++ {
		for mask := 0; mask < 1<<6; mask++ {
			if mask&(1<<want) != 0 {
				continue
			}
			var survivors []int
			for i := 0; i < 6; i++ {
				if mask&(1<<i) != 0 {
					survivors = append(survivors, i)
				}
			}
			if len(survivors) < 4 {
				continue
			}
			checkRebuild(t, c, stripe, survivors, want)
			cases++
		}
	}
	if cases != 6*(5+1) { // per target: C(5,4) four-survivor sets + the one of five
		t.Fatalf("covered %d (target, survivor set) pairs, want 36", cases)
	}

	c, err = New(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	stripe = encodedStripe(t, r, c, size)
	for i := 0; i < 200; i++ {
		want := r.Intn(14)
		var others []int
		for _, j := range r.Perm(14) {
			if j != want {
				others = append(others, j)
			}
		}
		checkRebuild(t, c, stripe, others[:10+r.Intn(4)], want)
	}
}

// TestRebuildSumArgs: the target's own slot is ignored, too few
// survivors and mismatched sizes are typed errors.
func TestRebuildSumArgs(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	const size = 512
	stripe := encodedStripe(t, rand.New(rand.NewSource(62)), c, size)
	dst := make([]byte, size)

	blocks := append([][]byte(nil), stripe...)
	blocks[2] = bytes.Repeat([]byte{0xee}, size) // stale bytes in the wanted slot
	if _, err := c.RebuildSum(blocks, 2, dst); err != nil || !bytes.Equal(dst, stripe[2]) {
		t.Fatalf("wanted slot was not ignored: err=%v", err)
	}

	blocks = append([][]byte(nil), stripe...)
	blocks[0], blocks[5] = nil, nil
	if _, err := c.RebuildSum(blocks, 1, dst); !errors.Is(err, ErrTooManyErasures) {
		t.Fatalf("3 survivors: err = %v, want ErrTooManyErasures", err)
	}
	if _, err := c.RebuildSum(stripe, 1, dst[:size-1]); !errors.Is(err, ErrBlockSize) {
		t.Fatalf("short dst: err = %v, want ErrBlockSize", err)
	}
	if _, err := c.RebuildSum(stripe, 1, nil); !errors.Is(err, ErrBlockSize) {
		t.Fatalf("empty dst: err = %v, want ErrBlockSize", err)
	}
	if _, err := c.RebuildSum(stripe[:5], 1, dst); !errors.Is(err, ErrBlockCount) {
		t.Fatalf("5 blocks: err = %v, want ErrBlockCount", err)
	}
	if _, err := c.RebuildSum(stripe, 6, dst); err == nil {
		t.Fatal("want 6 of 6 blocks: no error")
	}
}

// TestRebuildSumPlanCache: one plan per (survivor set, target), shared
// with the whole-stripe decode plans' LRU, and no allocation per call
// once it is cached.
func TestRebuildSumPlanCache(t *testing.T) {
	const k, m, size = 10, 4, 64 << 10
	c, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	stripe := encodedStripe(t, rand.New(rand.NewSource(63)), c, size)
	dst := make([]byte, size)
	plans := func() int {
		c.mu.RLock()
		defer c.mu.RUnlock()
		return len(c.decode)
	}

	blocks := append([][]byte(nil), stripe...)
	blocks[3] = nil
	rebuild := func(want int) {
		t.Helper()
		if _, err := c.RebuildSum(blocks, want, dst); err != nil {
			t.Fatal(err)
		}
	}
	rebuild(3)
	rebuild(3)
	if got := plans(); got != 1 {
		t.Fatalf("%d plans after rebuilding one target twice, want 1", got)
	}
	// A present block past the first k survivors does not change the
	// survivor set, so it does not compile a new plan.
	blocks[k+m-1] = nil
	rebuild(3)
	if got := plans(); got != 1 {
		t.Fatalf("%d plans after dropping an unused survivor, want 1", got)
	}
	rebuild(k + 1) // other target, other survivor set (3 is absent, k+1 excluded)
	if got := plans(); got != 2 {
		t.Fatalf("%d plans after a second target, want 2", got)
	}

	if raceEnabled {
		return // race-detector instrumentation allocates
	}
	if n := testing.AllocsPerRun(20, func() { rebuild(3) }); n != 0 {
		t.Errorf("RebuildSum with a cached plan allocates %.1f per op, want 0", n)
	}
}

// FuzzRebuildSum pins the single-target rebuild of both kernel families
// against Reconstruct and gf.CRC32C over arbitrary geometries, sizes,
// targets and survivor sets.
func FuzzRebuildSum(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint16(300), uint8(0), uint8(0), int64(1))
	f.Add(uint8(10), uint8(4), uint16(4096), uint8(12), uint8(3), int64(2))
	f.Add(uint8(1), uint8(1), uint16(1), uint8(1), uint8(0), int64(3))
	f.Add(uint8(7), uint8(5), uint16(4105), uint8(6), uint8(2), int64(4))
	f.Fuzz(func(t *testing.T, k8, m8 uint8, size16 uint16, want8, extra8 uint8, seed int64) {
		k := int(k8%24) + 1
		m := int(m8%8) + 1
		size := int(size16%(2*tileSize+129)) + 1
		packed, vector := familyCodes(t, k, m, CauchyMatrix)
		r := rand.New(rand.NewSource(seed))
		stripe := encodedStripe(t, r, packed, size)
		want := int(want8) % (k + m)
		var others []int
		for _, j := range r.Perm(k + m) {
			if j != want {
				others = append(others, j)
			}
		}
		checkRebuild(t, packed, stripe, others[:k+int(extra8)%m], want)
		checkRebuild(t, vector, stripe, others[:k+int(extra8)%m], want)
	})
}
