package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dialga/internal/rs"
	"dialga/internal/shardfile"
	"dialga/internal/stream"
)

// writeShardDir encodes payload into a k+m shard directory, mirroring
// what dialga-encode writes.
func writeShardDir(t *testing.T, dir string, k, m int, payload []byte) {
	t.Helper()
	code, err := rs.New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := stream.NewEncoder(stream.Options{Codec: code, StripeSize: k * 1024})
	if err != nil {
		t.Fatal(err)
	}
	stripes := (uint64(len(payload)) + uint64(enc.StripeSize()) - 1) / uint64(enc.StripeSize())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	writers := make([]io.Writer, k+m)
	for i := range writers {
		f, err := os.Create(shardfile.Path(dir, i))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		hdr := shardfile.Header{
			Version: shardfile.VersionV3, K: uint32(k), M: uint32(m), Index: uint32(i),
			ShardSize: uint32(enc.ShardSize()), StripeCount: stripes,
			FileSize: uint64(len(payload)), Algo: shardfile.AlgoCRC32C,
		}
		if _, err := f.Write(hdr.Marshal()); err != nil {
			t.Fatal(err)
		}
		writers[i] = f
	}
	if err := enc.Encode(context.Background(), bytes.NewReader(payload), writers); err != nil {
		t.Fatal(err)
	}
}

// reframeV2 rewrites a shard file in the retired v2 framing: the first
// 40 header bytes with version 2, then the blocks without trailers.
func reframeV2(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := shardfile.Parse(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), raw[:40]...)
	binary.LittleEndian.PutUint32(out[4:], 2)
	for s := int64(0); s < int64(h.StripeCount); s++ {
		off := shardfile.HeaderSizeV3 + s*h.BlockSize()
		out = append(out, raw[off:off+int64(h.ShardSize)]...)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

func corruptFile(t *testing.T, path string, off int64, mask byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= mask
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyDir(t *testing.T) {
	payload := bytes.Repeat([]byte("scrub me"), 2000)

	t.Run("pristine v3 set is clean", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "shards")
		writeShardDir(t, dir, 4, 2, payload)
		var out strings.Builder
		corrupt, err := verifyDir(dir, &out, nil)
		if err != nil {
			t.Fatal(err)
		}
		if corrupt {
			t.Fatalf("pristine shards reported corrupt:\n%s", out.String())
		}
		if !strings.Contains(out.String(), "6 ok, 0 corrupt") {
			t.Fatalf("unexpected summary:\n%s", out.String())
		}
	})

	t.Run("flipped block bit is caught", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "shards")
		writeShardDir(t, dir, 4, 2, payload)
		corruptFile(t, shardfile.Path(dir, 2), int64(shardfile.HeaderSizeV3)+777, 0x04)
		var out strings.Builder
		corrupt, err := verifyDir(dir, &out, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !corrupt {
			t.Fatalf("flipped bit not reported:\n%s", out.String())
		}
		if !strings.Contains(out.String(), "shard.002: CORRUPT") {
			t.Fatalf("corrupt shard not named:\n%s", out.String())
		}
	})

	t.Run("corrupt header and missing shard reported", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "shards")
		writeShardDir(t, dir, 4, 2, payload)
		corruptFile(t, shardfile.Path(dir, 0), 9, 0xff) // k field: self-CRC must catch it
		if err := os.Remove(shardfile.Path(dir, 5)); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		corrupt, err := verifyDir(dir, &out, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !corrupt {
			t.Fatal("corrupt header not flagged")
		}
		if !strings.Contains(out.String(), "shard.000: BAD HEADER") ||
			!strings.Contains(out.String(), "shard.005: missing") {
			t.Fatalf("report missing expected lines:\n%s", out.String())
		}
	})

	t.Run("truncated shard reported", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "shards")
		writeShardDir(t, dir, 4, 2, payload)
		p := shardfile.Path(dir, 3)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data[:len(data)-3], 0o644); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		corrupt, err := verifyDir(dir, &out, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !corrupt || !strings.Contains(out.String(), "shard.003: TRUNCATED") {
			t.Fatalf("truncated shard not reported:\n%s", out.String())
		}
	})

	t.Run("v2 shards are bad headers", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "shards")
		writeShardDir(t, dir, 3, 2, payload)
		for _, i := range []int{0, 3} {
			reframeV2(t, shardfile.Path(dir, i))
		}
		var out strings.Builder
		corrupt, err := verifyDir(dir, &out, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !corrupt {
			t.Fatalf("v2 shards not reported damaged:\n%s", out.String())
		}
		for _, want := range []string{
			"shard.000: BAD HEADER: unsupported shard header version 2",
			"shard.003: BAD HEADER: unsupported shard header version 2",
			"scrub: 3 ok, 2 corrupt/damaged, 0 missing (geometry k=3 m=2)\n",
		} {
			if !strings.Contains(out.String(), want) {
				t.Fatalf("report lacks %q:\n%s", want, out.String())
			}
		}
		// A set that is v2 throughout has no header to learn the geometry
		// from; the error says why.
		for i := 1; i < 5; i++ {
			if i != 3 {
				reframeV2(t, shardfile.Path(dir, i))
			}
		}
		if _, err := verifyDir(dir, io.Discard, nil); err == nil || !strings.Contains(err.Error(), "version 2") {
			t.Fatalf("all-v2 set: %v, want an error naming version 2", err)
		}
	})

	t.Run("empty dir errors", func(t *testing.T) {
		if _, err := verifyDir(t.TempDir(), io.Discard, nil); err == nil {
			t.Fatal("empty directory accepted")
		}
	})
}
