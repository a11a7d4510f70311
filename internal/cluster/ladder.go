package cluster

import "dialga/internal/stream"

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

// encoderFor builds the put pipeline for an object of size bytes: an
// encoder at the rung shardSizeFor picks. Pipelines are per request —
// their buffers come from the process's allocator, so there is nothing
// in one worth keeping.
func (g *Gateway) encoderFor(size int64) (*stream.Encoder, error) {
	return stream.NewEncoder(g.streamOptions(shardSizeFor(g.rungs, size, g.k)))
}
