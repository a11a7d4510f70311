package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"dialga/internal/gf"
	"dialga/internal/node"
	"dialga/internal/shardfile"
)

// TestPackedShardsSurviveRestartsAndCompaction: single-stripe objects,
// whose shards are records of the nodes' segment logs, and 8 MiB ones,
// whose shards are files, survive every node restarting, overwrites
// (across layouts too: a small key grown past a stripe, a large one
// shrunk into one), deletes, a compaction of every node's first segment
// and a second restart. Every live key reads back byte-exact and every
// deleted one is not found.
func TestPackedShardsSurviveRestartsAndCompaction(t *testing.T) {
	tc := startCluster(t, 6, 4, 2)
	ctx := context.Background()
	want := map[string][]byte{}
	put := func(name string, payload []byte) {
		t.Helper()
		tc.put(ctx, name, payload)
		want[name] = payload
	}
	for i := 0; i < 12; i++ {
		put(fmt.Sprintf("small-%d", i), clusterPayload(uint64(1100+i), 64<<10))
	}
	put("big-0", clusterPayload(1150, 8<<20))
	put("big-1", clusterPayload(1151, 8<<20))
	if !tc.packed("small-0", 0) || tc.packed("big-0", 0) {
		t.Fatal("want a 64 KiB object's shards to be records and an 8 MiB one's files")
	}
	restartAll := func() {
		for _, n := range tc.nodes {
			n.stop()
			n.start()
		}
	}
	restartAll()

	for i := 0; i < 4; i++ {
		put(fmt.Sprintf("small-%d", i), clusterPayload(uint64(1200+i), 64<<10))
	}
	put("small-4", clusterPayload(1204, 8<<20)) // packed → files
	put("big-0", clusterPayload(1205, 40_000))  // files → packed
	deleted := []string{"small-5", "small-6", "big-1"}
	for _, name := range deleted {
		if err := tc.gw.DeleteObject(ctx, name, node.ClassForeground); err != nil {
			t.Fatal(err)
		}
		delete(want, name)
	}

	// Fill every node's segment past its cap with a key of its own, so
	// the first segment seals full of dead records and is rewritten.
	first := func(n *testNode) int64 {
		fi, err := os.Stat(filepath.Join(n.dir, ".segments", "0000000000000001.seg"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	filler := fillerShard(256 << 10)
	for _, n := range tc.nodes {
		before := first(n)
		for i := 0; i < 40; i++ {
			if err := n.store.Put("filler", 0, bytes.NewReader(filler)); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.store.Delete("filler", 0); err != nil {
			t.Fatal(err)
		}
		if after := first(n); after >= before {
			t.Fatalf("node %s: first segment %d bytes after filling, %d before: not compacted", n.id, after, before)
		}
	}
	restartAll()

	for name, payload := range want {
		tc.mustGet(ctx, name, payload)
	}
	for _, name := range deleted {
		if err := tc.gw.GetObject(ctx, name, io.Discard, node.ClassForeground); !errors.Is(err, node.ErrNotFound) {
			t.Fatalf("deleted %s: %v, want not found", name, err)
		}
	}
}

// fillerShard is a one-stripe shard of shardSize payload bytes for slot 0.
func fillerShard(shardSize int) []byte {
	payload := clusterPayload(1300, shardSize)
	h := shardfile.Header{Version: shardfile.VersionV4, K: 4, M: 2, ShardSize: uint32(shardSize),
		StripeCount: 1, FileSize: uint64(4 * shardSize), Algo: shardfile.AlgoCRC32C, Generation: 1}
	return binary.LittleEndian.AppendUint32(append(h.Marshal(), payload...), gf.CRC32C(payload))
}
