package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dialga/internal/shardfile"
)

// encodeDir encodes payload into an RS(k+m, k) shard set with one
// 1 KiB block per shard per stripe and returns its directory.
func encodeDir(t *testing.T, k, m int, payload []byte) string {
	t.Helper()
	tmp := t.TempDir()
	in := filepath.Join(tmp, "in.bin")
	if err := os.WriteFile(in, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(tmp, "shards")
	if err := encode(io.Discard, k, m, in, dir, k*1024); err != nil {
		t.Fatal(err)
	}
	return dir
}

// verify runs `dialga-encode -mode verify -dir dir` plus any extra
// flags and returns its exit status and output.
func verify(dir string, extra ...string) (code int, stdout, stderr string) {
	var out, errw strings.Builder
	code = run(append([]string{"-mode", "verify", "-dir", dir}, extra...), &out, &errw)
	return code, out.String(), errw.String()
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

// wantReport fails unless verify exited with code and its stdout holds
// every line fragment in want.
func wantReport(t *testing.T, code int, out, stderr string, wantCode int, want ...string) {
	t.Helper()
	if code != wantCode {
		t.Fatalf("verify exited %d, want %d; stderr %q\n%s", code, wantCode, stderr, out)
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Fatalf("report lacks %q:\n%s", w, out)
		}
	}
}

func TestVerifyDir(t *testing.T) {
	payload := []byte(strings.Repeat("scrub me", 2000))

	t.Run("pristine v3 set is clean", func(t *testing.T) {
		code, out, stderr := verify(encodeDir(t, 4, 2, payload))
		wantReport(t, code, out, stderr, 0, "shard.005: ok (4 stripes, crc32c)", "6 ok, 0 corrupt")
	})

	t.Run("flipped block bit is caught", func(t *testing.T) {
		dir := encodeDir(t, 4, 2, payload)
		corruptFile(t, shardfile.Path(dir, 2), shardfile.HeaderSizeV3+777, 0x04) // stripe 0
		code, out, stderr := verify(dir)
		wantReport(t, code, out, stderr, 1,
			"shard.002: CORRUPT: 1 of 4 blocks failed crc32c (stripes [0])",
			"scrub: 5 ok, 1 corrupt/damaged, 0 missing")
	})

	// A lost shard alone is damage: the set has lost redundancy.
	t.Run("missing shard alone fails", func(t *testing.T) {
		dir := encodeDir(t, 4, 2, payload)
		if err := os.Remove(shardfile.Path(dir, 1)); err != nil {
			t.Fatal(err)
		}
		code, out, stderr := verify(dir)
		wantReport(t, code, out, stderr, 1, "shard.001: missing", "scrub: 5 ok, 0 corrupt/damaged, 1 missing")
	})

	t.Run("corrupt header and missing shard reported", func(t *testing.T) {
		dir := encodeDir(t, 4, 2, payload)
		corruptFile(t, shardfile.Path(dir, 0), 9, 0xff) // k field: self-CRC must catch it
		if err := os.Remove(shardfile.Path(dir, 5)); err != nil {
			t.Fatal(err)
		}
		code, out, stderr := verify(dir)
		wantReport(t, code, out, stderr, 1, "shard.000: BAD HEADER", "shard.005: missing")
	})

	t.Run("truncated shard reported", func(t *testing.T) {
		dir := encodeDir(t, 4, 2, payload)
		p := shardfile.Path(dir, 3)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data[:len(data)-3], 0o644); err != nil {
			t.Fatal(err)
		}
		code, out, stderr := verify(dir)
		wantReport(t, code, out, stderr, 1, "shard.003: TRUNCATED")
	})

	t.Run("v2 shards are bad headers", func(t *testing.T) {
		dir := encodeDir(t, 3, 2, payload)
		for _, i := range []int{0, 3} {
			reframeV2(t, shardfile.Path(dir, i))
		}
		code, out, stderr := verify(dir)
		wantReport(t, code, out, stderr, 1,
			"shard.000: BAD HEADER: unsupported shard header version 2",
			"shard.003: BAD HEADER: unsupported shard header version 2",
			"scrub: 3 ok, 2 corrupt/damaged, 0 missing (geometry k=3 m=2)\n")
		// A set that is v2 throughout has no header to learn the geometry
		// from; the error says why.
		for _, i := range []int{1, 2, 4} {
			reframeV2(t, shardfile.Path(dir, i))
		}
		if code, _, stderr := verify(dir); code != 1 || !strings.Contains(stderr, "version 2") {
			t.Fatalf("all-v2 set: exit %d, stderr %q; want 1 and an error naming version 2", code, stderr)
		}
	})

	// Both files of a swapped pair carry sound blocks; only their
	// headers say they sit in each other's slot.
	t.Run("swapped pair is caught", func(t *testing.T) {
		dir := encodeDir(t, 4, 2, payload)
		a, b := shardfile.Path(dir, 1), shardfile.Path(dir, 4)
		tmp := a + ".tmp"
		for _, mv := range [][2]string{{a, tmp}, {b, a}, {tmp, b}} {
			if err := os.Rename(mv[0], mv[1]); err != nil {
				t.Fatal(err)
			}
		}
		code, out, stderr := verify(dir)
		wantReport(t, code, out, stderr, 1,
			"shard.001: BAD HEADER: header says index 4",
			"shard.004: BAD HEADER: header says index 1",
			"scrub: 4 ok, 2 corrupt/damaged, 0 missing")
	})

	// A shard copied in from another file's encoding has the right slot
	// and sound blocks, but not this set's stripes.
	t.Run("foreign shard is caught", func(t *testing.T) {
		dir := encodeDir(t, 4, 2, payload)
		other := encodeDir(t, 4, 2, payload[:len(payload)/2])
		data, err := os.ReadFile(shardfile.Path(other, 2))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(shardfile.Path(dir, 2), data, 0o644); err != nil {
			t.Fatal(err)
		}
		code, out, stderr := verify(dir)
		wantReport(t, code, out, stderr, 1,
			"shard.002: BAD HEADER: header disagrees with shard 0",
			"scrub: 5 ok, 1 corrupt/damaged, 0 missing")
	})

	// A foreign shard in the lowest slot must not become the set's
	// reference, even when its k and m differ: the five genuine shards
	// outvote it.
	t.Run("foreign shard at slot 0 is caught", func(t *testing.T) {
		dir := encodeDir(t, 4, 2, payload)
		other := encodeDir(t, 3, 2, payload[:len(payload)/2])
		data, err := os.ReadFile(shardfile.Path(other, 0))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(shardfile.Path(dir, 0), data, 0o644); err != nil {
			t.Fatal(err)
		}
		code, out, stderr := verify(dir)
		want := []string{
			"shard.000: BAD HEADER: header disagrees with shard 1",
			"scrub: 5 ok, 1 corrupt/damaged, 0 missing (geometry k=4 m=2)",
		}
		for i := 1; i < 6; i++ {
			want = append(want, fmt.Sprintf("shard.%03d: ok", i))
		}
		wantReport(t, code, out, stderr, 1, want...)
	})

	// A shard an older put left behind has the right slot, geometry and
	// sound blocks; its generation alone says it is stale.
	t.Run("stale generation is caught", func(t *testing.T) {
		code, out, stderr := verify(mixedGenerationDir(t))
		wantReport(t, code, out, stderr, 1,
			"shard.001: BAD HEADER: header disagrees with shard 0",
			"shard.000: ok", "shard.002: ok",
			"scrub: 5 ok, 1 corrupt/damaged, 0 missing (geometry k=4 m=2)")
	})

	t.Run("empty dir errors", func(t *testing.T) {
		if code, _, stderr := verify(t.TempDir()); code != 1 || stderr == "" {
			t.Fatalf("empty directory: exit %d, stderr %q; want 1 and an error", code, stderr)
		}
	})
}
