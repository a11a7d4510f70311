package rs

import "fmt"

// Split partitions data into exactly k equally sized shards, padding
// the tail shard with zeros. The shard size is ceil(len(data)/k),
// with a minimum of 1 so zero-length inputs still produce valid shards.
//
// Aliasing contract (pinned by TestSplitAliasingContract): every shard
// that fits entirely inside data is a sub-slice of data — writing to
// it writes through to the input, and vice versa. Only shards that
// need zero padding (and shards past the end of data) are freshly
// allocated. This makes Split a zero-copy view for full-length inputs
// (len(data) a multiple of k). Callers that mutate shards they don't
// own must use SplitCopy.
func Split(data []byte, k int) ([][]byte, error) {
	if k <= 0 {
		return nil, fmt.Errorf("rs: Split needs positive k, got %d", k)
	}
	shardSize := (len(data) + k - 1) / k
	if shardSize == 0 {
		shardSize = 1
	}
	shards := make([][]byte, k)
	for i := 0; i < k; i++ {
		lo := i * shardSize
		hi := lo + shardSize
		switch {
		case lo >= len(data):
			shards[i] = make([]byte, shardSize)
		case hi > len(data):
			s := make([]byte, shardSize)
			copy(s, data[lo:])
			shards[i] = s
		default:
			shards[i] = data[lo:hi:hi]
		}
	}
	return shards, nil
}

// SplitCopy is Split without the aliasing: every shard is freshly
// allocated, so mutating the returned shards never touches data and
// mutating data never changes the shards. Use it whenever the shards
// outlive or are modified independently of the input buffer.
func SplitCopy(data []byte, k int) ([][]byte, error) {
	shards, err := Split(data, k)
	if err != nil {
		return nil, err
	}
	for i, s := range shards {
		c := make([]byte, len(s))
		copy(c, s)
		shards[i] = c
	}
	return shards, nil
}

// Join reassembles the original byte stream of length size from k data
// shards produced by Split.
func Join(shards [][]byte, size int) ([]byte, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("rs: Join needs at least one shard")
	}
	total := 0
	for i, s := range shards {
		if s == nil {
			return nil, fmt.Errorf("rs: Join shard %d is missing", i)
		}
		if len(s) != len(shards[0]) {
			return nil, fmt.Errorf("rs: Join shards are ragged")
		}
		total += len(s)
	}
	if size < 0 || size > total {
		return nil, fmt.Errorf("rs: Join size %d outside [0, %d]", size, total)
	}
	out := make([]byte, 0, size)
	for _, s := range shards {
		if len(out)+len(s) > size {
			out = append(out, s[:size-len(out)]...)
			break
		}
		out = append(out, s...)
	}
	return out, nil
}
