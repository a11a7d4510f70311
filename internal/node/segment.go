package node

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"dialga/internal/gf"
	"dialga/internal/shardfile"
)

// A node keeps the shards of single-stripe objects as records in an
// append-only log of segment files, not as files of their own: creating
// an inode costs a small put far more than writing its bytes into an open
// file does. A record is a frame naming its slot, then the shard's exact
// shardfile bytes, so the one judge (shardfile.OpenAt) serves, scrubs and
// recovers it as it does a file, over the record's section of the
// segment. An in-memory index maps each slot to its newest record; a
// later record or a tombstone supersedes an earlier one, as a rename or
// an unlink does a file.
//
// Frame layout (little-endian):
//
//	off  0    u32  frameMagic
//	off  4    u8   flags: 1 is a tombstone, which carries no shard
//	off  5    u8   0
//	off  6    u16  object name length n
//	off  8    u32  slot
//	off 12    u32  shard bytes that follow the frame (0 for a tombstone)
//	off 16    n    object name
//	off 16+n  u32  CRC-32C over the frame's bytes [0, 16+n)
//
// The frame's CRC covers only the frame: the shard vouches for itself
// with its header's self-CRC and its blocks' trailers.
const (
	frameMagic = 0x5e6d1a1a
	frameFixed = 16 // the frame before the name
	frameCRC   = 4
	flagTomb   = 1

	// packMaxShard is the largest shard payload a record carries: the
	// top rung of the put's shard-size ladder at the default geometry
	// (a 1 MiB stripe over k=4). So every object that fits one default
	// stripe packs, and an 8 MiB object's 2 MiB shards stay files, where
	// an inode is a small part of the cost and the early writeback of an
	// overwrite (receive) applies.
	packMaxShard = 256 << 10

	// segCap bounds a segment: an append that would carry one past it
	// starts the next. A sealed segment is rewritten once its dead bytes
	// pass its live ones (see due), so compaction copies under
	// segCap/2 of live records at a time, about a millisecond, and a
	// segment's inode is shared by hundreds of small shards. Between
	// operations a store's segments hold at most 2·live + segCap bytes:
	// every sealed segment is at most twice its live bytes, and only the
	// active one can hold more. A compaction that fails on I/O leaves
	// its segment over the bound until the next record it loses.
	segCap = 8 << 20

	// segmentDir holds the segment files, named by sequence number.
	// Dot-prefixed, so Objects and the file recovery scan skip it.
	segmentDir = ".segments"
)

// packs is the layout rule: a shard of at most one stripe of at most
// packMaxShard payload bytes is a record, any other a file.
func packs(h shardfile.Header) bool {
	return h.StripeCount <= 1 && h.ShardSize <= packMaxShard
}

// maxRecordShard is the largest shard a record can carry.
const maxRecordShard = shardfile.HeaderSizeV4 + packMaxShard + 4

// frameSize is the length of a frame naming object.
func frameSize(object string) int { return frameFixed + len(object) + frameCRC }

// appendFrame appends the frame of a record of slot idx of object
// carrying size shard bytes; size 0 is a tombstone. objectDir has
// bounded the name to maxDirName bytes, so its length fits the frame.
func appendFrame(dst []byte, object string, idx int, size int64) []byte {
	start := len(dst)
	var flags byte
	if size == 0 {
		flags = flagTomb
	}
	dst = binary.LittleEndian.AppendUint32(dst, frameMagic)
	dst = append(dst, flags, 0)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(object)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(idx))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(size))
	dst = append(dst, object...)
	return binary.LittleEndian.AppendUint32(dst, gf.CRC32C(dst[start:]))
}

// slotKey names one shard slot.
type slotKey struct {
	object string
	idx    int
}

// segment is one file of the log. Its bytes [0, size) are whole records;
// live counts those the index points at, tombs the tombstones among
// them. Only the active segment, the last, has f open: appends go to
// it. Every field is guarded by Store.mu.
type segment struct {
	seq         uint64
	path        string
	f           *os.File
	size        int64
	live, tombs int64
}

// loc is where a slot's newest record lies: the frame at off in seg,
// frame bytes long, then size shard bytes (none for a tombstone).
type loc struct {
	seg   *segment
	off   int64
	frame int64
	size  int64
}

func (l loc) tomb() bool   { return l.size == 0 }
func (l loc) bytes() int64 { return l.frame + l.size }

// record is a frame the log holds, as a scan or a walk reads it; gen is
// its shard's generation (read only by the recovery scan).
type record struct {
	key slotKey
	loc
	gen uint64
}

// segName is a segment's file name, its sequence number in hex.
func segName(seq uint64) string { return fmt.Sprintf("%016x.seg", seq) }

// parseSegName is segName's inverse.
func parseSegName(name string) (uint64, bool) {
	hex, ok := strings.CutSuffix(name, ".seg")
	if !ok || len(hex) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hex, 16, 64)
	return seq, err == nil
}

// active is the segment appends go to, nil before the first.
func (s *Store) active() *segment {
	if len(s.segs) == 0 {
		return nil
	}
	return s.segs[len(s.segs)-1]
}

// appendLocked writes rec whole at the end of the active segment, with
// one write, and returns where it landed. It starts a new segment when
// rec would carry the active one past segCap, sealing the old one. A
// failed write leaves the segment's size as it was, so the next record
// overwrites whatever part of rec landed. s.mu must be held for writing.
func (s *Store) appendLocked(rec []byte) (*segment, int64, error) {
	if s.closed {
		return nil, 0, errStoreClosed
	}
	seg := s.active()
	if seg == nil || seg.f == nil || (seg.size > 0 && seg.size+int64(len(rec)) > segCap) {
		next, err := s.newSegmentLocked()
		if err != nil {
			return nil, 0, err
		}
		if seg != nil && seg.f != nil {
			seg.f.Close()
			seg.f = nil
			s.checkDueLocked(seg)
		}
		seg = next
	}
	if _, err := seg.f.WriteAt(rec, seg.size); err != nil {
		seg.f.Truncate(seg.size) // drop what part of it landed, if it can
		return nil, 0, err
	}
	off := seg.size
	seg.size += int64(len(rec))
	s.segBytes += int64(len(rec))
	s.setSegGauges()
	return seg, off, nil
}

// errStoreClosed is an append to a store after Close.
var errStoreClosed = errors.New("node: store closed")

// newSegmentLocked creates the segment after the last and appends it to
// s.segs. s.mu must be held for writing.
func (s *Store) newSegmentLocked() (*segment, error) {
	dir := filepath.Join(s.dir, segmentDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	seq := uint64(1)
	if last := s.active(); last != nil {
		seq = last.seq + 1
	}
	path := filepath.Join(dir, segName(seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	seg := &segment{seq: seq, path: path, f: f}
	s.segs = append(s.segs, seg)
	return seg, nil
}

// indexLocked points key at the record l, whose bytes are now live, and
// retires the record it pointed at before, if any. It returns whether
// the slot held a shard (not a tombstone) before. s.mu must be held for
// writing.
func (s *Store) indexLocked(key slotKey, l loc) (held bool) {
	s.liveLocked(l, 1)
	old, ok := s.index[key]
	s.index[key] = l
	if ok {
		s.dropLocked(old)
	}
	held = ok && !old.tomb()
	switch {
	case held && l.tomb():
		s.uncountLocked(key.object)
	case !held && !l.tomb():
		s.objects[key.object]++
	}
	s.setSegGauges()
	return held
}

// unindexLocked forgets key's record l, which is no longer live.
func (s *Store) unindexLocked(key slotKey, l loc) {
	delete(s.index, key)
	s.dropLocked(l)
	if !l.tomb() {
		s.uncountLocked(key.object)
	}
	s.setSegGauges()
}

func (s *Store) uncountLocked(object string) {
	if s.objects[object]--; s.objects[object] <= 0 {
		delete(s.objects, object)
	}
}

// dropLocked takes the record l off its segment's live bytes.
func (s *Store) dropLocked(l loc) {
	s.liveLocked(l, -1)
	s.checkDueLocked(l.seg)
}

// liveLocked adds the record l to its segment's live bytes (sign 1) or
// takes it off them (-1).
func (s *Store) liveLocked(l loc, sign int64) {
	n := sign * l.bytes()
	l.seg.live += n
	if l.tomb() {
		l.seg.tombs += n
	}
	s.liveBytes += n
}

// setSegGauges publishes node_store_segment_bytes.
func (s *Store) setSegGauges() {
	s.segLive.Set(float64(s.liveBytes))
	s.segDead.Set(float64(s.segBytes - s.liveBytes))
}

// due reports whether seg is to be rewritten: it is sealed, and its dead
// bytes pass its live ones. A tombstone is live while an older segment
// may hold a record it supersedes; in the oldest segment none can, so
// there it counts as dead and the rewrite drops it. s.mu must be held.
func (s *Store) due(seg *segment) bool {
	if seg == s.active() || len(s.segs) == 0 {
		return false
	}
	keep := seg.live
	if seg == s.segs[0] {
		keep -= seg.tombs
	}
	return seg.size-keep > keep
}

// checkDueLocked queues seg for compaction when it is due.
func (s *Store) checkDueLocked(seg *segment) {
	if s.due(seg) {
		s.dueSegs[seg] = true
	}
}

// compact rewrites every sealed segment that is due, one at a time; a
// call while another runs returns at once (that one goes on until none
// is due). A put or delete that makes a segment due runs it before it
// returns, so the bound in segCap's comment holds between operations.
// The copy runs outside s.mu; reads and appends go on beside it.
func (s *Store) compact() {
	if !s.compacting.TryLock() {
		return
	}
	defer s.compacting.Unlock()
	for {
		s.mu.Lock()
		var seg *segment
		for cand := range s.dueSegs {
			delete(s.dueSegs, cand)
			if s.due(cand) {
				seg = cand
				break
			}
		}
		s.mu.Unlock()
		if seg == nil {
			return
		}
		// A failed walk or rewrite leaves seg as it was and out of
		// dueSegs, so the loop ends; the next record it loses queues it
		// again.
		if recs, err := walk(seg.path); err == nil {
			s.rewrite(seg, recs)
		}
	}
}

// walk reads the frames of a sealed segment, whose records were judged
// when they were written or recovered.
func walk(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var recs []record
	for off, end := int64(0), fi.Size(); off < end; {
		r, v := readRecord(f, off, end, false)
		if v != recOK {
			return nil, fmt.Errorf("node: segment %s: no whole record at %d", path, off)
		}
		recs = append(recs, r)
		off += r.bytes()
	}
	return recs, nil
}

// rewrite replaces segment seg, whose whole records recs lists, with
// one holding only those the index still points at, in the same order
// under the same name, so the log's order is unchanged. Tombstones in
// the oldest segment are dropped with their index entries: no older
// record is left for them to supersede. The copy goes to a temp file
// outside s.mu; the rename and the index's move to the new offsets are
// one s.mu step, so a reader either opened the old file at an old
// offset or opens the new one at a new offset. A segment left with
// nothing is removed.
func (s *Store) rewrite(seg *segment, recs []record) error {
	s.mu.RLock()
	oldest := seg == s.segs[0]
	keep := recs[:0:0]
	for _, r := range recs {
		if l, ok := s.index[r.key]; ok && l.seg == seg && l.off == r.off && !(oldest && r.tomb()) {
			keep = append(keep, r)
		}
	}
	s.mu.RUnlock()

	src, err := os.Open(seg.path)
	if err != nil {
		return err
	}
	defer src.Close()
	tmp := seg.path + ".tmp"
	dst, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(dst, 64<<10)
	var at int64
	moved := make([]int64, len(keep)) // each kept record's new offset
	for i, r := range keep {
		moved[i] = at
		if _, err = io.Copy(w, io.NewSectionReader(src, r.off, r.bytes())); err != nil {
			break
		}
		at += r.bytes()
	}
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		dst.Close()
		os.Remove(tmp)
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if at == 0 {
		dst.Close()
		os.Remove(tmp)
		err = os.Remove(seg.path)
	} else if err = os.Rename(tmp, seg.path); err != nil {
		dst.Close()
		os.Remove(tmp)
	}
	if err != nil {
		return err
	}
	if oldest {
		for _, r := range recs {
			if l, ok := s.index[r.key]; ok && l.seg == seg && l.off == r.off && r.tomb() {
				s.unindexLocked(r.key, l)
			}
		}
	}
	// Records that died during the copy are dead bytes of the new file.
	s.liveBytes -= seg.live
	s.segBytes += at - seg.size
	seg.live, seg.tombs, seg.size = 0, 0, at
	for i, r := range keep {
		if l, ok := s.index[r.key]; ok && l.seg == seg && l.off == r.off {
			l.off = moved[i]
			s.index[r.key] = l
			s.liveLocked(l, 1)
		}
	}
	if seg.f != nil { // the active segment, rewritten by recovery
		seg.f.Close()
		seg.f = nil
	}
	if at > 0 && seg == s.active() {
		seg.f = dst
	} else if at > 0 {
		dst.Close()
	}
	if at == 0 {
		s.segs = slices.DeleteFunc(s.segs, func(x *segment) bool { return x == seg })
		delete(s.dueSegs, seg)
		if len(s.segs) > 0 {
			s.checkDueLocked(s.segs[0]) // its tombstones may have become dead
		}
	}
	s.setSegGauges()
	return nil
}

// recVerdict is what readRecord makes of the bytes at an offset.
type recVerdict int

const (
	recOK       recVerdict = iota
	recTorn                // a whole frame whose record runs past the end
	recBadShard            // a whole frame over a shard the judge refuses
	recBadFrame            // no frame
)

// readRecord reads the record at off of a segment whose bytes end at
// end: a frame that is whole, CRC-clean and self-consistent, then, with
// judge set, a shard shardfile.OpenAt judges whole as the frame's slot.
// The record is filled in whenever the frame is whole.
func readRecord(f *os.File, off, end int64, judge bool) (record, recVerdict) {
	var r record
	var buf [frameFixed + 64 + frameCRC]byte
	b := buf[:min(int64(len(buf)), max(0, end-off))]
	if len(b) < frameFixed+frameCRC {
		return r, recBadFrame
	}
	if _, err := f.ReadAt(b, off); err != nil {
		return r, recBadFrame
	}
	flags, n := b[4], int64(binary.LittleEndian.Uint16(b[6:]))
	if binary.LittleEndian.Uint32(b) != frameMagic || flags&^flagTomb != 0 || b[5] != 0 {
		return r, recBadFrame
	}
	frame := frameFixed + n + frameCRC
	if off+frame > end {
		return r, recBadFrame
	}
	if frame > int64(len(b)) {
		b = make([]byte, frame)
		if _, err := f.ReadAt(b, off); err != nil {
			return r, recBadFrame
		}
	}
	b = b[:frame]
	if gf.CRC32C(b[:frame-frameCRC]) != binary.LittleEndian.Uint32(b[frame-frameCRC:]) {
		return r, recBadFrame
	}
	size := int64(binary.LittleEndian.Uint32(b[12:]))
	if (flags&flagTomb != 0) != (size == 0) || size > maxRecordShard {
		return r, recBadFrame
	}
	r.key = slotKey{object: string(b[frameFixed : frameFixed+n]), idx: int(binary.LittleEndian.Uint32(b[8:]))}
	r.loc = loc{off: off, frame: frame, size: size}
	if off+r.bytes() > end {
		return r, recTorn
	}
	if judge && !r.tomb() {
		h, status, _ := shardfile.OpenAt(f, off+frame, size, r.key.idx)
		if status != shardfile.ShardOK {
			return r, recBadShard
		}
		r.gen = h.Generation
	}
	return r, recOK
}

// resync finds the first offset at or after from where a whole frame
// starts, the place a scan goes on from past damage, or end when none
// does.
func resync(f *os.File, from, end int64) int64 {
	var magic [4]byte
	binary.LittleEndian.PutUint32(magic[:], frameMagic)
	buf := make([]byte, 64<<10)
	for at := from; at < end; {
		n, _ := f.ReadAt(buf[:min(int64(len(buf)), end-at)], at)
		if n < len(magic) {
			break
		}
		chunk := buf[:n]
		for i := 0; ; {
			j := bytes.Index(chunk[i:], magic[:])
			if j < 0 {
				break
			}
			if _, v := readRecord(f, at+int64(i+j), end, false); v != recBadFrame {
				return at + int64(i+j)
			}
			i += j + 1
		}
		at += int64(n - len(magic) + 1) // a magic may straddle the chunks
	}
	return end
}

// span is a damaged byte range [from, to) of a segment.
type span struct{ from, to int64 }

// scanSegment reads every record of an open segment whose bytes end at
// end, judging each shard as it goes, and returns the whole ones in
// order and the damaged spans between them: a frame that fails its
// checks runs to the next offset where a whole frame starts (resync), a
// frame over a shard the judge refuses to the record's end, and a
// record that runs past the end (a torn append) to the end.
func scanSegment(f *os.File, end int64) (recs []record, bad []span) {
	mark := func(from, to int64) {
		if n := len(bad); n > 0 && bad[n-1].to == from {
			bad[n-1].to = to
			return
		}
		bad = append(bad, span{from, to})
	}
	for off := int64(0); off < end; {
		r, v := readRecord(f, off, end, true)
		switch v {
		case recOK:
			recs = append(recs, r)
			off += r.bytes()
		case recTorn:
			mark(off, end)
			off = end
		case recBadShard:
			mark(off, off+r.bytes())
			off += r.bytes()
		default:
			next := resync(f, off+1, end)
			mark(off, next)
			off = next
		}
	}
	return recs, bad
}

// recoverSegments is the segment half of the crash-recovery scan. It
// removes a compaction's orphaned temp files, then scans the segments
// in order and indexes every whole record (a later one supersedes an
// earlier one of its slot). Each damaged span is copied into
// .quarantine/ and cut out of its segment: a torn tail by truncation,
// anything else by rewriting the segment around it once the index is
// built. So a second scan finds what the first one left, and nothing to
// do. It returns each indexed shard record's generation, which decides
// a slot a file also holds.
func (s *Store) recoverSegments() (map[slotKey]uint64, error) {
	gens := map[slotKey]uint64{}
	dir := filepath.Join(s.dir, segmentDir)
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return gens, nil
	} else if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".seg.tmp") {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, err
			}
			s.recTmp.Inc()
		} else if seq, ok := parseSegName(name); ok && e.Type().IsRegular() {
			s.segs = append(s.segs, &segment{seq: seq, path: filepath.Join(dir, name)})
		}
	}
	slices.SortFunc(s.segs, func(a, b *segment) int { return cmp.Compare(a.seq, b.seq) })
	rewrites := map[*segment][]record{}
	for i, seg := range s.segs {
		f, err := os.OpenFile(seg.path, os.O_RDWR, 0)
		if err != nil {
			return nil, err
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		recs, bad := scanSegment(f, fi.Size())
		seg.size = fi.Size()
		s.segBytes += seg.size
		for _, b := range bad {
			if err := s.quarantineSpan(f, filepath.Base(seg.path), b); err != nil {
				f.Close()
				return nil, err
			}
			s.recQuar.Inc()
		}
		if n := len(bad); n > 0 && bad[n-1].to == seg.size {
			if err := f.Truncate(bad[n-1].from); err != nil {
				f.Close()
				return nil, err
			}
			s.segBytes -= seg.size - bad[n-1].from
			seg.size = bad[n-1].from
			bad = bad[:n-1]
		}
		if len(bad) > 0 {
			rewrites[seg] = recs
		}
		for _, r := range recs {
			r.seg = seg
			s.indexLocked(r.key, r.loc)
			if r.tomb() {
				delete(gens, r.key)
			} else {
				gens[r.key] = r.gen
			}
		}
		if i == len(s.segs)-1 {
			seg.f = f
		} else {
			f.Close()
		}
	}
	for _, seg := range slices.Clone(s.segs) {
		if recs, ok := rewrites[seg]; ok {
			for i := range recs {
				recs[i].seg = seg
			}
			if err := s.rewrite(seg, recs); err != nil {
				return nil, err
			}
		}
	}
	for _, seg := range s.segs {
		s.checkDueLocked(seg)
	}
	s.setSegGauges()
	return gens, nil
}

// quarantineSpan copies the damaged bytes b of segment file f, named
// name, into the quarantine directory.
func (s *Store) quarantineSpan(f *os.File, name string, b span) error {
	dst, err := s.quarantineFile(fmt.Sprintf("%s.%d", name, b.from))
	if err != nil {
		return err
	}
	_, err = io.Copy(dst, io.NewSectionReader(f, b.from, b.to-b.from))
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	return err
}
