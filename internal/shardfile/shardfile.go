// Package shardfile defines the self-describing on-disk shard-file
// format shared by cmd/dialga-encode (writer, reader and scrubber) and
// the shard nodes (which store and serve these exact bytes).
//
// A shard file is a header followed by StripeCount blocks of BlockSize
// bytes each: ShardSize payload bytes and a 4-byte CRC-32C trailer over
// them. The header carries the geometry, shard index, stripe count,
// file size, the checksum algorithm (CRC-32C, the only one) and a
// CRC-32C over the header itself, so a corrupted header is rejected
// instead of mis-parsed into a plausible geometry.
//
// The header comes in two versions, and its length follows from its
// version: the 48-byte v3 header, which dialga-encode writes, and the
// 56-byte v4 header, which adds the generation a cluster put stamps
// into every shard it writes. Two shards of one object that carry
// different generations belong to different puts, so a stale shard
// names itself. A v3 header is generation 0, older than any put.
//
// These are the only framings Parse accepts. The retired v2 header (40
// bytes, bare blocks) and headers naming no checksum are refused: a
// block without a trailer is a block nobody can verify, so the node
// would store it unchecked and scrub could never call it damaged.
package shardfile

import (
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"

	"dialga/internal/gf"
)

const (
	// headerMagic identifies a dialga shard file.
	headerMagic = 0xd1a16aec

	// VersionV3 is the shard header without a generation: the
	// checksum-algorithm field and a header self-CRC.
	VersionV3 = 3

	// VersionV4 is VersionV3 plus the put's generation.
	VersionV4 = 4

	// HeaderSizeV3 and HeaderSizeV4 are the on-disk header lengths.
	HeaderSizeV3 = 48
	HeaderSizeV4 = 56

	// prefixSize is the magic and version every header starts with,
	// read before the rest because the version says how long it is.
	prefixSize = 8

	// genOff is where a v4 header's generation lives.
	genOff = 44

	// trailerSize is the CRC-32C trailer behind every block's payload.
	trailerSize = 4
)

// Algo identifies the per-block checksum trailer of a shard file.
type Algo uint32

const (
	// AlgoCRC32C means each block carries a 4-byte little-endian
	// CRC-32C (Castagnoli) trailer — the only algorithm Parse accepts.
	AlgoCRC32C Algo = 1
)

func (a Algo) String() string {
	if a == AlgoCRC32C {
		return "crc32c"
	}
	return fmt.Sprintf("algo(%d)", uint32(a))
}

// Header is the parsed shard-file header.
//
// Layout (little-endian):
//
//	off  0  u32  magic
//	off  4  u32  version (3 or 4)
//	off  8  u32  k (data shards)
//	off 12  u32  m (parity shards)
//	off 16  u32  shard index in [0, k+m)
//	off 20  u32  shard payload bytes per stripe (excluding trailer)
//	off 24  u64  stripe count
//	off 32  u64  original file size
//	off 40  u32  checksum algorithm (1 = CRC-32C)
//	v3:
//	off 44  u32  CRC-32C over bytes [0, 44)
//	v4:
//	off 44  u64  generation
//	off 52  u32  CRC-32C over bytes [0, 52)
type Header struct {
	Version     uint32 // VersionV3 or VersionV4; 0 marshals as VersionV3
	K, M        uint32
	Index       uint32
	ShardSize   uint32
	StripeCount uint64
	FileSize    uint64
	Algo        Algo   // AlgoCRC32C in every header Parse accepts
	Generation  uint64 // the put that wrote the shard; a v3 header has 0 and marshals none
}

// Size returns the header's on-disk length, which its version sets.
func (h Header) Size() int64 {
	if h.Version == VersionV4 {
		return HeaderSizeV4
	}
	return HeaderSizeV3
}

// BlockSize returns the on-disk bytes per stripe block: the shard
// payload plus the CRC-32C trailer.
func (h Header) BlockSize() int64 {
	return int64(h.ShardSize) + trailerSize
}

// ExpectedFileSize returns the exact byte length a well-formed shard
// file with this header must have; anything else is truncated or
// ragged.
func (h Header) ExpectedFileSize() int64 {
	return h.Size() + int64(h.StripeCount)*h.BlockSize()
}

// Window is a byte range of an object laid onto its shard files: the
// payload bytes [Off, Off+Len) the range covers, and the blocks
// [Block, Block+Blocks) of every shard that carry them. A range that
// cannot be satisfied is the zero Window: no bytes, no blocks.
type Window struct {
	Off, Len      int64
	Block, Blocks int64
}

// Cut maps a range request onto the object h describes. The request
// reads the length bytes from off: off < 0 asks for the last -off
// bytes (length is then ignored), and length < 0 for everything from
// off on. A length past the end is clamped to it. Block i of every
// shard carries the object bytes [i·stripe, (i+1)·stripe), stripe
// being K·ShardSize, so the window runs from the block holding the
// first byte through the one holding the last, and no further than
// the StripeCount blocks the shard has. The window is empty when the
// request cannot be satisfied: it starts at or past the end, asks for
// zero bytes (a zero-length suffix too), or the object is empty. Every
// writer sets StripeCount to the stripes the object fills, so (0, -1)
// is the whole shard. Readers cut their read from the header their
// shards agree on, and a node cuts the blocks it serves from its own.
func (h Header) Cut(off, length int64) Window {
	size, stripe := int64(h.FileSize), int64(h.ShardSize)*int64(h.K)
	if off < 0 {
		off, length = max(0, size+off), -1
	}
	if off >= size || length == 0 || stripe <= 0 {
		return Window{}
	}
	n := size - off
	if length > 0 {
		n = min(n, length)
	}
	first := off / stripe
	end := min((off+n-1)/stripe+1, int64(h.StripeCount))
	return Window{Off: off, Len: n, Block: first, Blocks: max(0, end-first)}
}

// SameEncoding reports whether h and o describe one encoding of one
// object, so that their shards may be combined in one decode: the same
// K, M, ShardSize, StripeCount, FileSize and Generation. Index is each
// shard's own and is not compared. Block checksums cannot tell a stale
// shard of an overwritten key from a current one, so this is the test
// every reader, decoder and scrub applies before it trusts a set. (Every
// header that parses names CRC-32C, so the algorithm never disagrees.
// The geometry tells apart the v3 shards, which all read as
// generation 0.)
func (h Header) SameEncoding(o Header) bool {
	return h.K == o.K && h.M == o.M && h.ShardSize == o.ShardSize &&
		h.StripeCount == o.StripeCount && h.FileSize == o.FileSize &&
		h.Generation == o.Generation
}

// Vote picks, among n headers (header(i) is the i-th), the set of
// shards that make one object: lead is the index of its first member
// (-1 when n is 0) and count is its size. A set counts up to its own K
// members: more wins, then the newer generation, so the newest version
// that K shards carry wins however many shards an older one has. Ties
// after that go to the set with the earlier header. Vote allocates
// nothing.
func Vote(n int, header func(i int) Header) (lead, count int) {
	lead = -1
	var best Header
	for i := 0; i < n; i++ {
		h := header(i)
		c := 0
		for j := 0; j < n; j++ {
			if h.SameEncoding(header(j)) {
				c++
			}
		}
		votes, bestVotes := min(c, int(h.K)), min(count, int(best.K))
		if lead < 0 || votes > bestVotes || (votes == bestVotes && h.Generation > best.Generation) {
			lead, count, best = i, c, h
		}
	}
	return lead, count
}

// Marshal serializes the header (Version 0 as VersionV3), computing its
// self-CRC. Only a v4 header carries the generation.
func (h Header) Marshal() []byte {
	version := h.Version
	if version == 0 {
		version = VersionV3
	}
	buf := make([]byte, h.Size())
	binary.LittleEndian.PutUint32(buf[0:], headerMagic)
	binary.LittleEndian.PutUint32(buf[4:], version)
	binary.LittleEndian.PutUint32(buf[8:], h.K)
	binary.LittleEndian.PutUint32(buf[12:], h.M)
	binary.LittleEndian.PutUint32(buf[16:], h.Index)
	binary.LittleEndian.PutUint32(buf[20:], h.ShardSize)
	binary.LittleEndian.PutUint64(buf[24:], h.StripeCount)
	binary.LittleEndian.PutUint64(buf[32:], h.FileSize)
	binary.LittleEndian.PutUint32(buf[40:], uint32(h.Algo))
	if version == VersionV4 {
		binary.LittleEndian.PutUint64(buf[genOff:], h.Generation)
	}
	crcOff := len(buf) - 4
	binary.LittleEndian.PutUint32(buf[crcOff:], gf.CRC32C(buf[:crcOff]))
	return buf
}

// Parse reads and validates a shard header from r, consuming exactly
// the header's Size bytes and nothing more. It accepts versions 3 and 4
// with AlgoCRC32C and nothing else; the error names the version or
// algorithm it refused.
func Parse(r io.Reader) (Header, error) {
	buf := make([]byte, HeaderSizeV4)
	if _, err := io.ReadFull(r, buf[:prefixSize]); err != nil {
		return Header{}, fmt.Errorf("header truncated: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(buf[0:]); magic != headerMagic {
		return Header{}, fmt.Errorf("bad magic %#x", magic)
	}
	version := binary.LittleEndian.Uint32(buf[4:])
	if version != VersionV3 && version != VersionV4 {
		return Header{}, fmt.Errorf("unsupported shard header version %d (want %d or %d)", version, VersionV3, VersionV4)
	}
	buf = buf[:Header{Version: version}.Size()]
	if _, err := io.ReadFull(r, buf[prefixSize:]); err != nil {
		return Header{}, fmt.Errorf("header truncated: %w", err)
	}
	crcOff := len(buf) - 4
	want := binary.LittleEndian.Uint32(buf[crcOff:])
	if got := gf.CRC32C(buf[:crcOff]); got != want {
		return Header{}, fmt.Errorf("header self-CRC mismatch: computed %#x, stored %#x (corrupt header)", got, want)
	}
	h := Header{
		Version:     version,
		K:           binary.LittleEndian.Uint32(buf[8:]),
		M:           binary.LittleEndian.Uint32(buf[12:]),
		Index:       binary.LittleEndian.Uint32(buf[16:]),
		ShardSize:   binary.LittleEndian.Uint32(buf[20:]),
		StripeCount: binary.LittleEndian.Uint64(buf[24:]),
		FileSize:    binary.LittleEndian.Uint64(buf[32:]),
		Algo:        Algo(binary.LittleEndian.Uint32(buf[40:])),
	}
	if version == VersionV4 {
		h.Generation = binary.LittleEndian.Uint64(buf[genOff:])
	}
	if h.Algo != AlgoCRC32C {
		return Header{}, fmt.Errorf("unsupported checksum algorithm %d (want %d, crc32c)", uint32(h.Algo), uint32(AlgoCRC32C))
	}
	if h.K == 0 || h.M == 0 {
		return Header{}, fmt.Errorf("invalid geometry k=%d m=%d", h.K, h.M)
	}
	if h.Index >= h.K+h.M {
		return Header{}, fmt.Errorf("shard index %d outside geometry k+m=%d", h.Index, h.K+h.M)
	}
	if h.ShardSize == 0 && h.StripeCount > 0 {
		return Header{}, fmt.Errorf("zero shard size with %d stripes", h.StripeCount)
	}
	return h, nil
}

// Path returns the conventional file name of shard i in dir.
func Path(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard.%03d", i))
}

// maxCorruptListed caps the per-shard corrupt-stripe list a scrub
// returns, keeping reports bounded on badly damaged files.
const maxCorruptListed = 16

// ScrubResult summarizes one shard file's integrity scan.
type ScrubResult struct {
	Stripes        uint64   // blocks scanned
	Corrupt        uint64   // blocks whose trailer failed verification
	CorruptStripes []uint64 // first maxCorruptListed corrupt stripe indices
}

// scrub reads every stripe block of a shard file (r must be
// positioned just past the header) and verifies each block's checksum
// trailer. It returns a read error if the file ends before
// StripeCount blocks.
func scrub(r io.Reader, h Header) (ScrubResult, error) {
	var res ScrubResult
	block := make([]byte, h.BlockSize())
	payload := int(h.ShardSize)
	for s := uint64(0); s < h.StripeCount; s++ {
		if _, err := io.ReadFull(r, block); err != nil {
			return res, fmt.Errorf("stripe %d: %w (truncated shard)", s, err)
		}
		res.Stripes++
		want := binary.LittleEndian.Uint32(block[payload:])
		if gf.CRC32C(block[:payload]) != want {
			res.Corrupt++
			if len(res.CorruptStripes) < maxCorruptListed {
				res.CorruptStripes = append(res.CorruptStripes, s)
			}
		}
	}
	return res, nil
}
