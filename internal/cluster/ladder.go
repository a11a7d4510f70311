package cluster

import (
	"sync"

	"dialga/internal/stream"
)

// minShardSize is the ladder's floor: rs encodes and checksums in 4 KiB
// tiles, and below it a shard file is mostly header, trailer and inode.
const minShardSize = 4 << 10

// shardSizes is the ladder: every shard size a put can choose, ascending
// — the powers of two from minShardSize up to, but short of, the
// configured shard size top, then top itself (seven rungs at the
// defaults, 4 KiB … 256 KiB). A ladder and not ceil(size/k), because
// what holds state per shard size — an encoder's stripe pool, a
// decoder's block pool, a rebuilder's — is cached by it, and the caches
// are bounded by the ladder's length.
func shardSizes(top int) []int {
	var rungs []int
	for s := minShardSize; s < top; s <<= 1 {
		rungs = append(rungs, s)
	}
	return append(rungs, top)
}

// shardSizeFor picks the rung an object of size bytes is stored at: the
// smallest whose single stripe of k shards holds it, the top rung for
// everything larger. A pure function of its arguments: a key overwritten
// at the same size is encoded the same way again (sameObject relies on
// it), and an object past half a configured stripe is stored exactly as
// it was before there was a ladder.
func shardSizeFor(rungs []int, size int64, k int) int {
	need := (size + int64(k) - 1) / int64(k)
	for _, s := range rungs {
		if int64(s) >= need {
			return s
		}
	}
	return rungs[len(rungs)-1]
}

// pipelines keeps the stream pipelines (encoders, decoders, rebuilders)
// built so far, most recently used first; they outlive the request
// because their buffer pools do. max is a multiple of the ladder's
// length, so the sizes this gateway writes never evict one another: the
// bound is for shard sizes read from stored headers, which anyone may
// have written.
type pipelines[V any] struct {
	max     int
	mu      sync.Mutex
	entries []pipeline[V]
}

type pipeline[V any] struct {
	key pipelineKey
	val V
}

type pipelineKey struct {
	shardSize int
	hedged    bool // decoders only: full reads hedge, ranged ones cannot
}

// get returns key's pipeline, building it on first use and dropping the
// least recently used one when that makes more than max.
func (c *pipelines[V]) get(key pipelineKey, build func() (V, error)) (V, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.entries {
		if e.key == key {
			copy(c.entries[1:i+1], c.entries[:i])
			c.entries[0] = e
			return e.val, nil
		}
	}
	val, err := build()
	if err != nil {
		return val, err
	}
	if len(c.entries) < c.max {
		c.entries = append(c.entries, pipeline[V]{})
	}
	copy(c.entries[1:], c.entries)
	c.entries[0] = pipeline[V]{key, val}
	return val, nil
}

// encoderFor returns the put pipeline for an object of size bytes: the
// encoder of the rung shardSizeFor picks. NewGateway builds the top
// rung's, so a gateway that never sees a small object builds no other.
func (g *Gateway) encoderFor(size int64) (*stream.Encoder, error) {
	shardSize := shardSizeFor(g.rungs, size, g.k)
	return g.encoders.get(pipelineKey{shardSize: shardSize}, func() (*stream.Encoder, error) {
		return stream.NewEncoder(g.streamOptions(shardSize))
	})
}

// decoderFor returns the gateway's decoder for a shard size and hedging
// mode. Decoders outlive the request — as Repairer keeps its
// Rebuilders — because their pools do: the ~3 MiB of block buffers an
// 8 MiB GET cycles through are handed from one GET to the next instead
// of being allocated, and left to two GC cycles, per request. The cache
// holds two per rung — full reads hedge, ranged ones cannot — so reads
// of what this gateway wrote, at any mix of sizes, keep their decoders.
func (g *Gateway) decoderFor(shardSize int, hedged bool) (*stream.Decoder, error) {
	key := pipelineKey{shardSize, hedged && g.hedge > 0}
	return g.decoders.get(key, func() (*stream.Decoder, error) {
		opts := g.streamOptions(shardSize)
		opts.CloseReaders = true
		if !key.hedged {
			opts.HedgeAfter = 0
		}
		return stream.NewDecoder(opts)
	})
}
