package main

import (
	"fmt"
	"io"
	"path/filepath"

	"dialga/internal/shardfile"
)

// verifyDir scrubs every shard file in dir through the shared
// shardfile.ScrubDir walk (the per-shard checks the cluster repair
// queue runs, plus agreement with the set's encoding) and renders one
// line per shard slot plus a summary. It returns whether any slot
// needs repair: a missing shard, or corruption, truncation or header
// damage — a shard in the retired trailer-less v2 framing is a bad
// header, and so is one that belongs to another slot, another encoding
// or an older put.
func verifyDir(dir string, w io.Writer) (damaged bool, err error) {
	rep, err := shardfile.ScrubDir(dir)
	if err != nil {
		return true, err
	}
	for _, s := range rep.Shards {
		name := filepath.Base(shardfile.Path(dir, s.Index))
		switch s.Status {
		case shardfile.ShardMissing:
			fmt.Fprintf(w, "%s: missing\n", name)
		case shardfile.ShardBadHeader:
			fmt.Fprintf(w, "%s: BAD HEADER: %s\n", name, s.Detail)
		case shardfile.ShardTruncated:
			fmt.Fprintf(w, "%s: TRUNCATED: %s\n", name, s.Detail)
		case shardfile.ShardReadError:
			fmt.Fprintf(w, "%s: READ ERROR: %s\n", name, s.Detail)
		case shardfile.ShardCorrupt:
			fmt.Fprintf(w, "%s: CORRUPT: %s\n", name, s.Detail)
		default:
			fmt.Fprintf(w, "%s: ok (%d stripes, %s)\n", name, s.Result.Stripes, s.Header.Algo)
		}
	}
	ok, bad, missing := rep.Counts()
	fmt.Fprintf(w, "scrub: %d ok, %d corrupt/damaged, %d missing (geometry k=%d m=%d)\n",
		ok, bad, missing, rep.Set.K, rep.Set.M)
	return rep.Damaged(), nil
}
