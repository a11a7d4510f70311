package main

import (
	"fmt"
	"math/rand"
	"time"
)

// Object sizes. The 8 MiB objects span eight of the gateway's default
// 1 MiB stripes; the 64 KiB objects fill a sixteenth of one.
const (
	bigSize   = 8 << 20
	smallSize = 64 << 10
)

// The payload pool is one buffer of seeded random (incompressible)
// bytes, built before any clock starts. Every payload is a window of
// it starting at slot*slotStep, so distinct slots give distinct
// contents, a key's expected bytes are computable from its slot alone
// (nothing read is ever stored for comparison), and no payload is
// generated or copied inside a timed region.
const (
	slotStep = 64
	slots    = 1 << 13
	// Slots below versionBase belong to preloaded keys; overwrites take
	// slots from versionBase up, so a stale read never matches.
	versionBase = 1 << 10
)

type payloads struct{ pool []byte }

// Seed streams: one rand.Rand per purpose, so adding a draw to one
// never shifts another.
const (
	streamPool = iota
	streamNodes
	streamMixed
)

func rng(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(stream)))
}

func newPayloads(seed int64) *payloads {
	p := &payloads{pool: make([]byte, bigSize+slots*slotStep)}
	rng(seed, streamPool).Read(p.pool) // never fails
	return p
}

// window returns the size-byte payload of a slot.
func (p *payloads) window(slot, size int) []byte {
	off := (slot % slots) * slotStep
	return p.pool[off : off+size]
}

// versionSlot is the slot the n-th overwrite of a run carries.
func versionSlot(n int) int { return versionBase + n%(slots-versionBase) }

// Key names and the slot each key is preloaded with. The three ranges
// of preloaded slots are disjoint and below versionBase.
func bigKey(i int) string   { return fmt.Sprintf("big-%03d", i) }
func readKey(i int) string  { return fmt.Sprintf("sr-%03d", i) }
func writeKey(i int) string { return fmt.Sprintf("sw-%03d", i) }
func bigSlot(i int) int     { return i }
func readSlot(i int) int    { return 64 + i }

// The small_mixed key space and traffic mix.
const (
	mixedReadKeys  = 256
	mixedWriteKeys = 128
	mixedBigKeys   = 8
	// mixedRate is about a quarter of what two closed-loop clients
	// reach. At 200 ops/s (half) a neighbour that slowed the box by a
	// third quadrupled the queueing, and the latencies measured the
	// neighbour; at 100 they measure the request path.
	mixedRate     = 100.0 // ops/s
	mixedGetShare = 0.5
	mixedPutShare = 0.2 // the rest, 0.3, are range gets
)

// schedOp is one pre-drawn open-loop operation.
type schedOp struct {
	due   time.Duration
	class opClass
	key   int   // index into the class's key set
	off   int64 // opRange: offset inside the 8 MiB object
	slot  int   // opPut: the payload version written
}

// mixedSchedule draws the small_mixed arrival schedule for the first
// total of a run: Poisson arrivals at mixedRate, each op's class, key
// and range offset. Keys cycle through their set (reads through a
// seeded permutation), so with far fewer ops in flight than keys in
// any set no two in-flight ops touch one key.
func mixedSchedule(seed int64, total time.Duration) []schedOp {
	r := rng(seed, streamMixed)
	perm := r.Perm(mixedReadKeys)
	var ops []schedOp
	var gets, puts, ranges int
	for t := time.Duration(0); ; {
		t += time.Duration(r.ExpFloat64() / mixedRate * float64(time.Second))
		if t >= total {
			return ops
		}
		op := schedOp{due: t}
		switch u := r.Float64(); {
		case u < mixedGetShare:
			op.class, op.key = opGet, perm[gets%mixedReadKeys]
			gets++
		case u < mixedGetShare+mixedPutShare:
			op.class, op.key, op.slot = opPut, puts%mixedWriteKeys, versionSlot(puts)
			puts++
		default:
			op.class, op.key = opRange, ranges%mixedBigKeys
			op.off = r.Int63n(bigSize - smallSize + 1)
			ranges++
		}
		ops = append(ops, op)
	}
}
