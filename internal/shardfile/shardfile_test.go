package shardfile

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dialga/internal/rs"
	"dialga/internal/stream"
)

// castagnoli is the tests' independent CRC-32C table: header and
// trailer expectations are computed with stdlib hash/crc32 rather
// than the gf.CRC32C the implementation uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func mustRS(t testing.TB, k, m int) *rs.Code {
	t.Helper()
	c, err := rs.New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func v3Header() Header {
	return Header{
		Version: VersionV3, K: 8, M: 4, Index: 11,
		ShardSize: 131072, StripeCount: 2048, FileSize: 1 << 31,
		Algo: AlgoCRC32C,
	}
}

// v4Header is v3Header stamped with a put's generation.
func v4Header() Header {
	h := v3Header()
	h.Version, h.Generation = VersionV4, 0x1841_2c4d_9a07_5e13
	return h
}

// v2Header is h in the retired v2 layout: the first 40 bytes of the v3
// layout with version 2, no algorithm field and no self-CRC.
func v2Header(h Header) []byte {
	b := h.Marshal()[:40]
	binary.LittleEndian.PutUint32(b[4:], 2)
	return b
}

func TestHeaderMarshalParseRoundTrip(t *testing.T) {
	for _, h := range []Header{
		v3Header(),
		v4Header(),
		{Version: VersionV3, K: 3, M: 1, Index: 3, ShardSize: 64, StripeCount: 1, FileSize: 100, Algo: AlgoCRC32C},
	} {
		got, err := Parse(bytes.NewReader(h.Marshal()))
		if err != nil {
			t.Fatalf("Parse(%+v): %v", h, err)
		}
		if got != h {
			t.Fatalf("round trip: got %+v want %+v", got, h)
		}
	}
	// Version 0 marshals as v3.
	h := v3Header()
	h.Version = 0
	got, err := Parse(bytes.NewReader(h.Marshal()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != VersionV3 {
		t.Fatalf("zero version marshalled as %d, want v3", got.Version)
	}
	// A v3 header has no room for a generation: it parses as 0.
	h.Generation = 7
	if got, err := Parse(bytes.NewReader(h.Marshal())); err != nil || got.Generation != 0 {
		t.Fatalf("v3 header parsed as generation %d, %v; want 0", got.Generation, err)
	}
}

// TestHeaderRejections is the table-driven negative suite: every
// mutation of a valid v3 header must be rejected, the self-CRC must
// catch silent field corruption that would otherwise still parse, and
// a header in a retired framing is refused by name.
func TestHeaderRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(b []byte) []byte
		want   string // what the error must name
	}{
		{"bad magic", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[0:], 0xdeadbeef)
			return b
		}, "bad magic"},
		{"unknown version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], 7)
			return b
		}, "version 7"},
		{"corrupt k field under self-CRC", func(b []byte) []byte {
			b[8] ^= 0xff // parses as a plausible geometry without the CRC
			return b
		}, "self-CRC"},
		{"single bit flip under self-CRC", func(b []byte) []byte {
			b[25] ^= 1 // stripe count off by one
			return b
		}, "self-CRC"},
		{"corrupt self-CRC itself", func(b []byte) []byte {
			b[45] ^= 1
			return b
		}, "self-CRC"},
		{"unknown checksum algo", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[40:], 99)
			binary.LittleEndian.PutUint32(b[44:], crc32.Checksum(b[:44], castagnoli))
			return b
		}, "checksum algorithm 99"},
		{"v3 naming no checksum", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[40:], 0) // bare blocks, well-formed otherwise
			binary.LittleEndian.PutUint32(b[44:], crc32.Checksum(b[:44], castagnoli))
			return b
		}, "checksum algorithm 0"},
		{"retired v2 header", func([]byte) []byte {
			return append(v2Header(v3Header()), "its first bare block"...)
		}, "version 2"},
		{"index outside geometry", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[16:], 12)
			binary.LittleEndian.PutUint32(b[44:], crc32.Checksum(b[:44], castagnoli))
			return b
		}, "outside geometry"},
		{"zero geometry", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 0)
			binary.LittleEndian.PutUint32(b[44:], crc32.Checksum(b[:44], castagnoli))
			return b
		}, "invalid geometry"},
		{"truncated v3 tail", func(b []byte) []byte {
			return b[:HeaderSizeV3-6]
		}, "truncated"},
		{"truncated v2 prefix", func(b []byte) []byte {
			return b[:16]
		}, "truncated"},
		{"v3 bytes under a v4 version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], VersionV4)
			return append(b, "8 more"...)
		}, "truncated"},
		{"v4 generation flip under self-CRC", func([]byte) []byte {
			b := v4Header().Marshal()
			b[50] ^= 1
			return b
		}, "self-CRC"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.mutate(v3Header().Marshal())
			_, err := Parse(bytes.NewReader(buf))
			if err == nil {
				t.Fatalf("mutated header accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestParseV1Rejected pins the oldest layout: a 16-byte v1 header
// (magic + size, no version) must not parse.
func TestParseV1Rejected(t *testing.T) {
	old := make([]byte, 16)
	binary.LittleEndian.PutUint32(old[0:], headerMagic)
	binary.LittleEndian.PutUint64(old[8:], 12345)
	if _, err := Parse(bytes.NewReader(old)); err == nil {
		t.Fatal("v1 header accepted")
	}
}

func TestHeaderSizes(t *testing.T) {
	v3 := Header{Version: VersionV3, K: 4, M: 2, ShardSize: 100, StripeCount: 3, Algo: AlgoCRC32C}
	if len(v3.Marshal()) != HeaderSizeV3 {
		t.Fatal("v3 header size wrong")
	}
	if v3.BlockSize() != 104 {
		t.Fatalf("block size %d, want the payload and a 4-byte trailer", v3.BlockSize())
	}
	if v3.ExpectedFileSize() != 48+3*104 {
		t.Fatalf("v3 expected size %d", v3.ExpectedFileSize())
	}
	v4 := v3
	v4.Version = VersionV4
	if len(v4.Marshal()) != HeaderSizeV4 || v4.Size() != HeaderSizeV4 {
		t.Fatal("v4 header size wrong")
	}
	if v4.ExpectedFileSize() != 56+3*104 {
		t.Fatalf("v4 expected size %d", v4.ExpectedFileSize())
	}
}

// block builds a shardSize payload + CRC trailer stripe block.
// TestSameEncoding: every field but the index, the version and the
// algorithm decides whether two shards are one encoding.
func TestSameEncoding(t *testing.T) {
	a := v4Header()
	b := a
	b.Index, b.Version = 2, VersionV3
	if !a.SameEncoding(b) {
		t.Fatal("shards differing only in index and version are not one encoding")
	}
	for name, edit := range map[string]func(*Header){
		"k":            func(h *Header) { h.K++ },
		"m":            func(h *Header) { h.M++ },
		"shard size":   func(h *Header) { h.ShardSize++ },
		"stripe count": func(h *Header) { h.StripeCount++ },
		"file size":    func(h *Header) { h.FileSize++ },
		"generation":   func(h *Header) { h.Generation-- },
	} {
		b := a
		edit(&b)
		if a.SameEncoding(b) || b.SameEncoding(a) {
			t.Errorf("headers differing in %s are one encoding", name)
		}
	}
}

// TestVote: a set counts up to its own K, then the newer generation
// wins, then the earlier header leads.
func TestVote(t *testing.T) {
	at := func(gen uint64, size uint64) Header {
		return Header{Version: VersionV4, K: 2, M: 1, ShardSize: 64, StripeCount: 1, FileSize: size, Generation: gen}
	}
	for _, tc := range []struct {
		name        string
		hs          []Header
		lead, count int
	}{
		{"empty", nil, -1, 0},
		{"more wins below k", []Header{at(9, 100), at(5, 100), at(5, 100)}, 1, 2},
		{"newer wins once both reach k", []Header{at(5, 100), at(5, 100), at(5, 100), at(9, 100), at(9, 100)}, 3, 2},
		{"earlier wins a tie", []Header{at(5, 100), at(5, 200)}, 0, 1},
		{"geometry splits a generation", []Header{at(5, 100), at(5, 200), at(5, 200)}, 1, 2},
	} {
		lead, count := Vote(len(tc.hs), func(i int) Header { return tc.hs[i] })
		if lead != tc.lead || count != tc.count {
			t.Errorf("%s: Vote = (%d, %d), want (%d, %d)", tc.name, lead, count, tc.lead, tc.count)
		}
	}
	hs := []Header{at(5, 100), at(9, 100), at(9, 100)}
	if n := testing.AllocsPerRun(100, func() { Vote(len(hs), func(i int) Header { return hs[i] }) }); n != 0 {
		t.Fatalf("Vote allocates %v times per call, want 0", n)
	}
}

func block(payload []byte) []byte {
	b := append([]byte(nil), payload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, castagnoli))
	return append(b, crc[:]...)
}

func TestScrub(t *testing.T) {
	h := Header{Version: VersionV3, K: 2, M: 1, Index: 0, ShardSize: 32, StripeCount: 4, Algo: AlgoCRC32C}
	p := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, 32) }

	var body bytes.Buffer
	body.Write(block(p(1)))
	bad := block(p(2))
	bad[5] ^= 0x40 // corrupt stripe 1
	body.Write(bad)
	body.Write(block(p(3)))
	bad2 := block(p(4))
	bad2[32] ^= 1 // corrupt the trailer of stripe 3
	body.Write(bad2)

	res, err := scrub(bytes.NewReader(body.Bytes()), h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stripes != 4 || res.Corrupt != 2 {
		t.Fatalf("scrub found %d/%d corrupt, want 2/4", res.Corrupt, res.Stripes)
	}
	if len(res.CorruptStripes) != 2 || res.CorruptStripes[0] != 1 || res.CorruptStripes[1] != 3 {
		t.Fatalf("corrupt stripes %v, want [1 3]", res.CorruptStripes)
	}

	// Truncated shard: body ends one block early.
	short := body.Bytes()[:3*36]
	if _, err := scrub(bytes.NewReader(short), h); err == nil {
		t.Fatal("scrub accepted a truncated shard")
	}
}

// TestOpenJudgesWholeShard: Open hands back a file only when it is a
// whole shard of the slot asked for, and otherwise says why — the one
// rule a node's recovery, its reads and every scrub apply.
func TestOpenJudgesWholeShard(t *testing.T) {
	h := Header{Version: VersionV4, K: 2, M: 1, Index: 1, ShardSize: 32, StripeCount: 2, FileSize: 64, Algo: AlgoCRC32C, Generation: 7}
	whole := append(h.Marshal(), block(bytes.Repeat([]byte{1}, 32))...)
	whole = append(whole, block(bytes.Repeat([]byte{2}, 32))...)
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct {
		name   string
		path   string
		index  int
		want   ShardStatus
		detail string
	}{
		{"whole", write("whole", whole), 1, ShardOK, ""},
		{"absent", filepath.Join(dir, "absent"), 1, ShardMissing, "no such file"},
		{"a directory", dir, 1, ShardBadHeader, "header truncated"},
		{"another slot", write("slot", whole), 0, ShardBadHeader, "header says index 1"},
		{"torn tail", write("torn", whole[:len(whole)-5]), 1, ShardTruncated, "123 bytes on disk, want 128"},
		{"overlong", write("long", append(append([]byte(nil), whole...), 0)), 1, ShardTruncated, "129 bytes on disk, want 128"},
		{"bad magic", write("magic", make([]byte, len(whole))), 1, ShardBadHeader, "bad magic"},
	} {
		got, f, status, detail := Open(tc.path, tc.index)
		if status != tc.want || !strings.Contains(detail, tc.detail) {
			t.Errorf("%s: %v %q, want %v naming %q", tc.name, status, detail, tc.want, tc.detail)
		}
		if (f != nil) != (status == ShardOK) {
			t.Errorf("%s: %v came back with file %v", tc.name, status, f)
		}
		if status == ShardTruncated && got != h {
			t.Errorf("%s: header %+v, want the parsed %+v", tc.name, got, h)
		}
		if f == nil {
			continue
		}
		rest, err := io.ReadAll(f)
		f.Close()
		if got != h || err != nil || !bytes.Equal(rest, whole[h.Size():]) {
			t.Errorf("%s: header %+v, then %d bytes (%v); want %+v, then block 0 on", tc.name, got, len(rest), err, h)
		}
	}

	// The same judge over a section of a larger file, as a node's
	// segment holds a record: the section's size, not the file's, is
	// what the header must agree with, and all of it must be on disk.
	junk := bytes.Repeat([]byte{0xee}, 33)
	f, err := os.Open(write("section", append(append(append([]byte(nil), junk...), whole...), junk...)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	off, size := int64(len(junk)), int64(len(whole))
	for _, tc := range []struct {
		name      string
		off, size int64
		index     int
		want      ShardStatus
		detail    string
	}{
		{"whole section", off, size, 1, ShardOK, ""},
		{"another slot", off, size, 0, ShardBadHeader, "header says index 1"},
		{"short section", off, size - 5, 1, ShardTruncated, "123 bytes on disk, want 128"},
		{"long section", off, size + 1, 1, ShardTruncated, "129 bytes on disk, want 128"},
		{"past the end", off + 33, size + 33, 1, ShardBadHeader, "bad magic"},
		{"off the start", off - 1, size, 1, ShardBadHeader, "bad magic"},
	} {
		got, status, detail := OpenAt(f, tc.off, tc.size, tc.index)
		if status != tc.want || !strings.Contains(detail, tc.detail) {
			t.Errorf("%s: %v %q, want %v naming %q", tc.name, status, detail, tc.want, tc.detail)
			continue
		}
		if status != ShardOK {
			continue
		}
		rest := make([]byte, size-h.Size())
		if _, err := io.ReadFull(f, rest); got != h || err != nil || !bytes.Equal(rest, whole[h.Size():]) {
			t.Errorf("%s: header %+v, then %v; want %+v, then block 0 on", tc.name, got, err, h)
		}
	}
	// A section whose tail is not on disk is truncated, header and all.
	torn, err := os.Open(write("torn-section", append(append([]byte(nil), junk...), whole[:len(whole)-7]...)))
	if err != nil {
		t.Fatal(err)
	}
	defer torn.Close()
	if _, status, detail := OpenAt(torn, off, size, 1); status != ShardTruncated || !strings.Contains(detail, "121 bytes on disk, want 128") {
		t.Errorf("section torn by 7 bytes: %v %q, want truncated naming 121 bytes on disk", status, detail)
	}
}

// TestScrubMatchesEncoderOutput scrubs blocks produced by the real
// streaming encoder, pinning the two packages to one trailer format.
func TestScrubMatchesEncoderOutput(t *testing.T) {
	code := mustRS(t, 3, 2)
	enc, err := stream.NewEncoder(stream.Options{Codec: code, StripeSize: 3 * 64})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("dialga!"), 100)
	bufs := make([]bytes.Buffer, enc.Shards())
	writers := make([]io.Writer, enc.Shards())
	for i := range bufs {
		writers[i] = &bufs[i]
	}
	if err := enc.Encode(context.Background(), bytes.NewReader(payload), writers); err != nil {
		t.Fatal(err)
	}
	stripes := uint64(enc.Stats().Stripes)
	for i := range bufs {
		h := Header{
			Version: VersionV3, K: 3, M: 2, Index: uint32(i),
			ShardSize: uint32(enc.ShardSize()), StripeCount: stripes,
			Algo: AlgoCRC32C,
		}
		res, err := scrub(bytes.NewReader(bufs[i].Bytes()), h)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if res.Corrupt != 0 || res.Stripes != stripes {
			t.Fatalf("shard %d: scrub %d/%d corrupt on pristine encoder output", i, res.Corrupt, res.Stripes)
		}
	}
}

// FuzzParse feeds arbitrary bytes to the parser that faces both the
// wire (a node's upload body) and the disk. It must never panic, and a
// header it accepts is a v3 or v4 CRC-32C header that consumed exactly
// its Size bytes and marshals back to those bytes, generation and all.
func FuzzParse(f *testing.F) {
	valid := v3Header().Marshal()
	v4 := v4Header().Marshal()
	noSum := v3Header()
	noSum.Algo = 0
	badCRC := append([]byte(nil), valid...)
	badCRC[45] ^= 1
	f.Add(append(append([]byte(nil), valid...), "a block follows"...))
	f.Add(append(v2Header(v3Header()), "a bare block"...))
	f.Add(noSum.Marshal())
	f.Add(badCRC)
	f.Add(valid[:HeaderSizeV3-1])
	f.Add(append(append([]byte(nil), v4...), "a block follows"...))
	f.Add(v4[:HeaderSizeV4-1])
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		h, err := Parse(r)
		if err != nil {
			return
		}
		if used := int64(len(b) - r.Len()); used != h.Size() {
			t.Fatalf("accepted v%d header consumed %d bytes, want %d", h.Version, used, h.Size())
		}
		if !bytes.Equal(h.Marshal(), b[:h.Size()]) {
			t.Fatalf("%+v re-marshals to other bytes than it was parsed from", h)
		}
		if (h.Version != VersionV3 && h.Version != VersionV4) || h.Algo != AlgoCRC32C {
			t.Fatalf("accepted version %d, algorithm %d", h.Version, h.Algo)
		}
		if h.Version == VersionV4 {
			back, err := Parse(bytes.NewReader(h.Marshal()))
			if err != nil || back.Generation != h.Generation || back.Generation != binary.LittleEndian.Uint64(b[genOff:]) {
				t.Fatalf("v4 generation %#x came back as %#x, %v", h.Generation, back.Generation, err)
			}
		}
	})
}
