package stream

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"testing"

	"dialga/internal/fault"
)

// chaosTrial is one randomized round trip: encode a random payload
// under a random geometry, push every shard stream through a seeded
// fault.Reader plan, and check the decode outcome against exactly
// what the plan injected.
type chaosTrial struct {
	k, m      int
	shardSize int
	payload   []byte
	shards    [][]byte // pristine encoded shard streams (with trailers)
	stripes   int
	blockSize int
	plans     []fault.Plan
	missing   map[int]bool
	// expectations derived from the plan
	wantCorrupt uint64 // blocks whose CRC must fail
	wantHealed  uint64 // distinct stripes with >= 1 corrupt block
	wantDeaths  uint64 // shards an ErrOnce breaks
}

func newChaosTrial(t *testing.T, rng *rand.Rand) *chaosTrial {
	tr := &chaosTrial{
		k:         2 + rng.Intn(6), // 2..7
		m:         1 + rng.Intn(3), // 1..3
		shardSize: []int{16, 64, 256, 1024}[rng.Intn(4)],
		missing:   map[int]bool{},
	}
	// Payload length: include zero, sub-stripe, exact multiples, and
	// ragged tails.
	stripeSize := tr.k * tr.shardSize
	switch rng.Intn(5) {
	case 0:
		tr.payload = nil
	case 1:
		tr.payload = randBytes(t, 1+rng.Intn(stripeSize), rng.Int63())
	default:
		tr.payload = randBytes(t, rng.Intn(8*stripeSize)+1, rng.Int63())
	}
	opts := Options{Codec: mustRS(t, tr.k, tr.m), StripeSize: stripeSize,
		Workers: 1 + rng.Intn(4)}
	tr.shards = encodeAll(t, opts, tr.payload)
	tr.blockSize = tr.shardSize + crcSize
	tr.stripes = len(tr.shards[0]) / tr.blockSize
	tr.plans = make([]fault.Plan, tr.k+tr.m)
	return tr
}

// planWithinParity injects at most m faults per stripe: a random set
// of missing shards, one-shot read errors that break some live shards'
// streams, and per-stripe bit flips on the shards still serving, never
// exceeding the parity budget.
func (tr *chaosTrial) planWithinParity(rng *rand.Rand) {
	nMissing := rng.Intn(tr.m + 1)
	for len(tr.missing) < nMissing {
		tr.missing[rng.Intn(tr.k+tr.m)] = true
	}
	budget := tr.m - nMissing // unusable shards per stripe
	// A read error kills its shard, transient or not: the decoder never
	// reads a broken stream again, so each ErrOnce spends one unit of
	// the budget from the stripe it fires in onwards.
	diesAt := map[int]int{}
	if streamLen := int64(tr.stripes * tr.blockSize); streamLen > 0 {
		for i := range tr.plans {
			if tr.missing[i] || len(diesAt) == budget || rng.Intn(3) != 0 {
				continue
			}
			off := rng.Int63n(streamLen)
			tr.plans[i].Ops = append(tr.plans[i].Ops, fault.Op{Kind: fault.ErrOnce, Off: off})
			diesAt[i] = int(off / int64(tr.blockSize))
		}
	}
	tr.wantDeaths = uint64(len(diesAt))
	dead := func(i, s int) bool {
		d, ok := diesAt[i]
		return ok && d <= s
	}
	healed := map[int]bool{}
	for s := 0; s < tr.stripes; s++ {
		corruptible := budget
		for i := range diesAt {
			if dead(i, s) {
				corruptible--
			}
		}
		c := rng.Intn(corruptible + 1)
		picked := map[int]bool{}
		for len(picked) < c {
			i := rng.Intn(tr.k + tr.m)
			if tr.missing[i] || picked[i] || dead(i, s) {
				continue
			}
			picked[i] = true
			// One flip per (shard, stripe) block — anywhere in the
			// block, payload or trailer; CRC-32C catches either.
			off := int64(s*tr.blockSize) + int64(rng.Intn(tr.blockSize))
			tr.plans[i].Ops = append(tr.plans[i].Ops, fault.Op{
				Kind: fault.BitFlip, Off: off, Bit: uint8(rng.Intn(8)),
			})
			tr.wantCorrupt++
			healed[s] = true
		}
	}
	tr.wantHealed = uint64(len(healed))
}

// planBeyondParity poisons one stripe with m+1 corrupt blocks.
func (tr *chaosTrial) planBeyondParity(rng *rand.Rand) bool {
	if tr.stripes == 0 {
		return false
	}
	s := rng.Intn(tr.stripes)
	picked := map[int]bool{}
	for len(picked) < tr.m+1 {
		i := rng.Intn(tr.k + tr.m)
		if picked[i] {
			continue
		}
		picked[i] = true
		off := int64(s*tr.blockSize) + int64(rng.Intn(tr.blockSize))
		tr.plans[i].Ops = append(tr.plans[i].Ops, fault.Op{
			Kind: fault.BitFlip, Off: off, Bit: uint8(rng.Intn(8)),
		})
	}
	return true
}

func (tr *chaosTrial) decode(t *testing.T) (*Decoder, *bytes.Buffer, error) {
	t.Helper()
	dec, err := NewDecoder(Options{Codec: mustRS(t, tr.k, tr.m),
		StripeSize: tr.k * tr.shardSize})
	if err != nil {
		t.Fatal(err)
	}
	readers := make([]io.Reader, tr.k+tr.m)
	for i, s := range tr.shards {
		if tr.missing[i] {
			continue
		}
		readers[i] = fault.NewReader(bytes.NewReader(s), tr.plans[i])
	}
	var out bytes.Buffer
	err = dec.Decode(context.Background(), readers, &out, int64(len(tr.payload)))
	return dec, &out, err
}

// TestChaosRoundTrip is the property-based integrity suite: across
// many seeded random geometries and fault plans, any combination of
// missing shards, broken shard streams and corrupt blocks that leaves
// every stripe k usable shards must yield byte-identical output with
// stats matching the plan exactly,
// and anything beyond the budget must fail with ErrTooManyCorrupt
// without ever emitting a wrong byte.
func TestChaosRoundTrip(t *testing.T) {
	const trials = 60
	for seed := int64(0); seed < trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := newChaosTrial(t, rng)
		tr.planWithinParity(rng)
		dec, out, err := tr.decode(t)
		if err != nil {
			t.Fatalf("seed %d (k=%d m=%d shard=%d payload=%d): decode: %v",
				seed, tr.k, tr.m, tr.shardSize, len(tr.payload), err)
		}
		if !bytes.Equal(out.Bytes(), tr.payload) {
			t.Fatalf("seed %d: decoded bytes differ from payload", seed)
		}
		st := dec.Stats()
		if st.ShardsCorrupted != tr.wantCorrupt {
			t.Fatalf("seed %d: ShardsCorrupted = %d, plan injected %d", seed, st.ShardsCorrupted, tr.wantCorrupt)
		}
		if st.StripesHealed != tr.wantHealed {
			t.Fatalf("seed %d: StripesHealed = %d, plan poisoned %d stripes", seed, st.StripesHealed, tr.wantHealed)
		}
		if st.ShardFailures != tr.wantDeaths {
			t.Fatalf("seed %d: ShardFailures = %d, plan broke %d shards", seed, st.ShardFailures, tr.wantDeaths)
		}
	}
}

func TestChaosBeyondParityFailsCleanly(t *testing.T) {
	const trials = 40
	poisoned := 0
	for seed := int64(1000); poisoned < trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := newChaosTrial(t, rng)
		if !tr.planBeyondParity(rng) {
			continue // zero-stripe payload: nothing to poison
		}
		poisoned++
		_, out, err := tr.decode(t)
		if err == nil {
			t.Fatalf("seed %d: decode succeeded with %d corrupt blocks in one stripe (m=%d)", seed, tr.m+1, tr.m)
		}
		if !errors.Is(err, ErrTooManyCorrupt) {
			t.Fatalf("seed %d: error %v does not wrap ErrTooManyCorrupt", seed, err)
		}
		// Whatever was delivered before the poisoned stripe must be a
		// clean prefix: corruption must never surface as wrong bytes.
		if got := out.Bytes(); !bytes.Equal(got, tr.payload[:len(got)]) {
			t.Fatalf("seed %d: decoder emitted non-prefix bytes before failing", seed)
		}
	}
}
