package cluster

import (
	"cmp"

	"dialga/internal/stream"
)

// minShardSize is the ladder's floor: rs encodes and checksums in 4 KiB
// tiles, and below it a shard file is mostly header, trailer and inode.
const minShardSize = 4 << 10

// shardSizes is the ladder: every shard size a put can choose, ascending
// — the powers of two from minShardSize up to, but short of, the
// configured shard size top, then top itself (seven rungs at the
// defaults, 4 KiB … 256 KiB). A ladder and not ceil(size/k), because a
// few shard sizes make a few buffer sizes: the process's allocator
// recycles one object's stripes and blocks into the next object's of
// another size on the same rung, where every size its own shard size
// would leave each object's buffers to objects of exactly its size.
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
// at the same size is encoded the same way again, and an object past
// half a configured stripe is stored exactly as it was before there was
// a ladder.
func shardSizeFor(rungs []int, size int64, k int) int {
	need := (size + int64(k) - 1) / int64(k)
	for _, s := range rungs {
		if int64(s) >= need {
			return s
		}
	}
	return rungs[len(rungs)-1]
}

// encoderFor is the put pipeline for an object of size bytes: the
// encoder of the rung shardSizeFor picks.
func (g *Gateway) encoderFor(size int64) *stream.Encoder {
	return g.pipes[shardSizeFor(g.rungs, size, g.k)].enc
}

// pipelines are the streaming pipelines for one shard size. Each is
// safe for concurrent use and holds no buffers (they come from the
// process's allocator), so NewGateway builds one set per rung, series
// and all, and every request at that rung shares it.
type pipelines struct {
	enc *stream.Encoder
	dec *stream.Decoder
	rb  *stream.Rebuilder
}

// pipelinesFor returns the pipelines for shards of shardSize bytes: its
// rung's, or a new set — for NewGateway's rungs, and for a size off the
// ladder (an object stored under another stripe size) one per request.
func (g *Gateway) pipelinesFor(shardSize int) (*pipelines, error) {
	if p, ok := g.pipes[shardSize]; ok {
		return p, nil
	}
	opts := stream.Options{Codec: g.codec, StripeSize: shardSize * g.k, HedgeAfter: g.hedge, Metrics: g.reg}
	enc, err1 := stream.NewEncoder(opts)
	dec, err2 := stream.NewDecoder(opts)
	rb, err3 := stream.NewRebuilder(opts)
	if err := cmp.Or(err1, err2, err3); err != nil {
		return nil, err
	}
	return &pipelines{enc: enc, dec: dec, rb: rb}, nil
}
