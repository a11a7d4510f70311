package main

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dialga/internal/shardfile"
)

func TestUnknownModeFails(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-mode", "scrub"}, &out, &errw); code != 2 {
		t.Fatalf("-mode scrub exited %d, want 2", code)
	}
	if out.Len() != 0 || !strings.Contains(errw.String(), "-mode") {
		t.Fatalf("usage must go to stderr only; stdout %q, stderr %q", out.String(), errw.String())
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	out := filepath.Join(dir, "out.bin")
	shards := filepath.Join(dir, "shards")

	payload := make([]byte, 100123)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := os.WriteFile(in, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := encode(io.Discard, 8, 4, in, shards, 1<<20); err != nil {
		t.Fatal(err)
	}
	// Remove m shards (mixed data + parity).
	for _, i := range []int{0, 5, 9, 11} {
		if err := os.Remove(shardPath(shards, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := decode(io.Discard, 8, 4, out, shards); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("roundtrip corrupted the payload")
	}
}

// TestEncodeDecodeMultiStripe uses a stripe size far smaller than the
// payload so the pipeline runs many stripes, and drops shards so every
// stripe needs reconstruction.
func TestEncodeDecodeMultiStripe(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	out := filepath.Join(dir, "out.bin")
	shards := filepath.Join(dir, "shards")

	payload := make([]byte, 5*64<<10+7777)
	for i := range payload {
		payload[i] = byte(i*131 + i>>9)
	}
	if err := os.WriteFile(in, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := encode(io.Discard, 4, 2, in, shards, 16<<10); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 4} {
		if err := os.Remove(shardPath(shards, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := decode(io.Discard, 4, 2, out, shards); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("multi-stripe roundtrip corrupted the payload")
	}
}

// TestLargeFileStreams round-trips a file much larger than the
// pipeline's stripe memory budget (window * stripe), demonstrating
// O(stripe) rather than O(file) memory. 64 MiB keeps CI fast; the
// behaviour is size-independent.
func TestLargeFileStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("large-file roundtrip skipped in -short mode")
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	out := filepath.Join(dir, "out.bin")
	shards := filepath.Join(dir, "shards")

	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 1 << 20
	buf := make([]byte, chunk)
	for i := 0; i < 64; i++ {
		for j := range buf {
			buf[j] = byte(i + j*7)
		}
		if _, err := f.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := encode(io.Discard, 8, 4, in, shards, 1<<20); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 7, 10} {
		if err := os.Remove(shardPath(shards, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := decode(io.Discard, 8, 4, out, shards); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("large-file roundtrip corrupted the payload")
	}
}

func TestDecodeTooFewShards(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	shards := filepath.Join(dir, "shards")
	if err := os.WriteFile(in, []byte("hello world"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := encode(io.Discard, 4, 2, in, shards, 1<<20); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 2} { // 3 > m=2 lost
		os.Remove(shardPath(shards, i))
	}
	if err := decode(io.Discard, 4, 2, filepath.Join(dir, "out.bin"), shards); err == nil {
		t.Fatal("decode succeeded with fewer than k shards")
	}
}

func TestEncodeTinyFile(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	out := filepath.Join(dir, "out.bin")
	shards := filepath.Join(dir, "shards")
	if err := os.WriteFile(in, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := encode(io.Discard, 8, 4, in, shards, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := decode(io.Discard, 8, 4, out, shards); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(out)
	if string(got) != "x" {
		t.Fatalf("tiny file roundtrip got %q", got)
	}
}

func TestEncodeEmptyFile(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	out := filepath.Join(dir, "out.bin")
	shards := filepath.Join(dir, "shards")
	if err := os.WriteFile(in, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := encode(io.Discard, 4, 2, in, shards, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := decode(io.Discard, 4, 2, out, shards); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty file roundtrip produced %d bytes", len(got))
	}
}

func TestDecodeBadHeader(t *testing.T) {
	dir := t.TempDir()
	shards := filepath.Join(dir, "shards")
	os.MkdirAll(shards, 0o755)
	for i := 0; i < 6; i++ {
		os.WriteFile(shardPath(shards, i), []byte("garbage-garbage-garbage-garbage-garbage!"), 0o644)
	}
	if err := decode(io.Discard, 4, 2, filepath.Join(dir, "out.bin"), shards); err == nil {
		t.Fatal("garbage shards accepted")
	}
}

// TestDecodeMismatchedGeometry pins the headline satellite fix: shards
// encoded as RS(8+4) must be rejected when decoded with -k/-m flags
// for a different geometry, instead of silently corrupting output.
func TestDecodeMismatchedGeometry(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	shards := filepath.Join(dir, "shards")
	payload := make([]byte, 50000)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := os.WriteFile(in, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := encode(io.Discard, 8, 4, in, shards, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := decode(io.Discard, 6, 6, filepath.Join(dir, "out.bin"), shards); err == nil {
		t.Fatal("decode accepted mismatched k/m flags")
	}
	if err := decode(io.Discard, 4, 2, filepath.Join(dir, "out.bin"), shards); err == nil {
		t.Fatal("decode accepted a smaller geometry")
	}
}

// TestDecodeForeignShard rejects a shard file copied in from an
// encoding with a different geometry.
func TestDecodeForeignShard(t *testing.T) {
	dir := t.TempDir()
	inA := filepath.Join(dir, "a.bin")
	inB := filepath.Join(dir, "b.bin")
	shardsA := filepath.Join(dir, "shardsA")
	shardsB := filepath.Join(dir, "shardsB")
	if err := os.WriteFile(inA, bytes.Repeat([]byte("A"), 10000), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(inB, bytes.Repeat([]byte("B"), 20000), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := encode(io.Discard, 4, 2, inA, shardsA, 1<<20); err != nil {
		t.Fatal(err)
	}
	if err := encode(io.Discard, 4, 2, inB, shardsB, 1<<20); err != nil {
		t.Fatal(err)
	}
	// Same geometry, different encoding: headers disagree on file size.
	data, err := os.ReadFile(shardPath(shardsB, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shardPath(shardsA, 2), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := decode(io.Discard, 4, 2, filepath.Join(dir, "out.bin"), shardsA); err == nil {
		t.Fatal("decode accepted a shard from a different encoding")
	}
}

// TestDecodeShardIndexMismatch rejects a shard renamed into another
// slot.
func TestDecodeShardIndexMismatch(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	shards := filepath.Join(dir, "shards")
	if err := os.WriteFile(in, bytes.Repeat([]byte("z"), 5000), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := encode(io.Discard, 4, 2, in, shards, 1<<20); err != nil {
		t.Fatal(err)
	}
	// Swap two shard files on disk.
	a, _ := os.ReadFile(shardPath(shards, 0))
	b, _ := os.ReadFile(shardPath(shards, 3))
	os.WriteFile(shardPath(shards, 0), b, 0o644)
	os.WriteFile(shardPath(shards, 3), a, 0o644)
	if err := decode(io.Discard, 4, 2, filepath.Join(dir, "out.bin"), shards); err == nil {
		t.Fatal("decode accepted renamed shard files")
	}
}

// TestDecodeTruncatedShard rejects a shard whose payload does not match
// stripeCount * shardSize.
func TestDecodeTruncatedShard(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	shards := filepath.Join(dir, "shards")
	if err := os.WriteFile(in, bytes.Repeat([]byte("q"), 30000), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := encode(io.Discard, 4, 2, in, shards, 1<<20); err != nil {
		t.Fatal(err)
	}
	p := shardPath(shards, 1)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, data[:len(data)-100], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := decode(io.Discard, 4, 2, filepath.Join(dir, "out.bin"), shards); err == nil {
		t.Fatal("decode accepted a truncated shard file")
	}
}

// TestDecodeHealsCorruptBlocks is the end-to-end integrity story: flip
// bits inside the stripe blocks of m different shard files (without
// touching headers or file sizes) and decode must still produce the
// exact payload, healing the corrupt blocks through reconstruction.
func TestDecodeHealsCorruptBlocks(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.bin")
	out := filepath.Join(dir, "out.bin")
	shards := filepath.Join(dir, "shards")

	payload := make([]byte, 6*8<<10+991)
	for i := range payload {
		payload[i] = byte(i*17 + i>>8)
	}
	if err := os.WriteFile(in, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := encode(io.Discard, 4, 2, in, shards, 8<<10); err != nil {
		t.Fatal(err)
	}
	// Corrupt blocks in m=2 shards: one data, one parity, different
	// stripes.
	for _, c := range []struct {
		shard  int
		offset int64 // into the block region, past the header
	}{
		{shard: 1, offset: 100},
		{shard: 5, offset: 5000},
	} {
		p := shardPath(shards, c.shard)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[int64(shardfile.HeaderSizeV3)+c.offset] ^= 0x10
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := decode(io.Discard, 4, 2, out, shards); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("decode did not heal corrupt shard blocks byte-exactly")
	}
}

// reframeV2 rewrites a v3 shard file in the retired v2 framing — the
// first 40 header bytes with version 2, then the blocks without their
// trailers — which is what a pre-v3 dialga-encode wrote.
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

// stampGeneration rewrites a v3 shard file with a v4 header carrying
// gen, as a cluster put writes it; the blocks stay as they are.
func stampGeneration(t *testing.T, path string, gen uint64) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := shardfile.Parse(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	h.Version, h.Generation = shardfile.VersionV4, gen
	if err := os.WriteFile(path, append(h.Marshal(), raw[shardfile.HeaderSizeV3:]...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// mixedGenerationDir is an RS(4,2) set of one put at generation 2 of a
// 300,000-byte object, with shard 1 taken from the put at generation 1
// that it overwrote at the same size: every header parses and every
// block verifies, and only the generation tells the stale shard apart.
func mixedGenerationDir(t *testing.T) string {
	t.Helper()
	v1, v2 := make([]byte, 300_000), make([]byte, 300_000)
	for i := range v1 {
		v1[i], v2[i] = byte(i*7), byte(i*13+1)
	}
	old, cur := encodeDir(t, 4, 2, v1), encodeDir(t, 4, 2, v2)
	for i := 0; i < 6; i++ {
		stampGeneration(t, shardfile.Path(cur, i), 2)
	}
	stampGeneration(t, shardfile.Path(old, 1), 1)
	if err := os.Rename(shardfile.Path(old, 1), shardfile.Path(cur, 1)); err != nil {
		t.Fatal(err)
	}
	return cur
}

// TestDecodeMixedGenerations: a set with one shard left by an older put
// must not decode into a blend of the two versions.
func TestDecodeMixedGenerations(t *testing.T) {
	dir := mixedGenerationDir(t)
	out := filepath.Join(t.TempDir(), "out.bin")
	var stdout, stderr strings.Builder
	code := run([]string{"-mode", "decode", "-k", "4", "-m", "2", "-dir", dir, "-out", out}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "shard 1: header disagrees with shard 0") {
		t.Fatalf("decode of a mixed-generation set exited %d, stderr %q; want 1 naming shard 1", code, stderr.String())
	}
}

// TestShardFormatCompat is the table-driven header suite: v2 shard
// files (trailer-less) are refused by name, whole sets or one among v3
// shards, corrupted v3 headers are rejected by the self-CRC, and
// truncated trailers by the exact-size check.
func TestShardFormatCompat(t *testing.T) {
	payload := make([]byte, 3*4<<10+123)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	cases := []struct {
		name    string
		prepare func(t *testing.T, dir string) // builds/mutates the shard dir
		wantErr string                         // "" for a clean round trip, else what the error names
	}{
		{
			name:    "v3 round trip",
			prepare: func(t *testing.T, dir string) {},
		},
		{
			name: "v2 legacy set is rejected naming version 2",
			prepare: func(t *testing.T, dir string) {
				for i := 0; i < 6; i++ {
					reframeV2(t, shardPath(dir, i))
				}
			},
			wantErr: "version 2",
		},
		{
			name: "one v2 shard among v3 is rejected naming version 2",
			prepare: func(t *testing.T, dir string) {
				reframeV2(t, shardPath(dir, 4))
			},
			wantErr: "version 2",
		},
		{
			name: "corrupted header field fails self-CRC",
			prepare: func(t *testing.T, dir string) {
				p := shardPath(dir, 2)
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				data[20] ^= 1 // shard-size field: plausible without the CRC
				if err := os.WriteFile(p, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "self-CRC",
		},
		{
			name: "corrupted header self-CRC word rejected",
			prepare: func(t *testing.T, dir string) {
				p := shardPath(dir, 0)
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				data[45] ^= 0x80
				if err := os.WriteFile(p, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "self-CRC",
		},
		{
			name: "truncated trailer rejected",
			prepare: func(t *testing.T, dir string) {
				p := shardPath(dir, 3)
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				// Chop 2 bytes: the final block's CRC trailer is cut.
				if err := os.WriteFile(p, data[:len(data)-2], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "truncated",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			in := filepath.Join(dir, "in.bin")
			out := filepath.Join(dir, "out.bin")
			shards := filepath.Join(dir, "shards")
			if err := os.WriteFile(in, payload, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := encode(io.Discard, 4, 2, in, shards, 4<<10); err != nil {
				t.Fatal(err)
			}
			tc.prepare(t, shards)
			err := decode(io.Discard, 4, 2, out, shards)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("decode returned %v, want an error naming %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("decoded payload differs")
			}
		})
	}
}
