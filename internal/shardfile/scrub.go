package shardfile

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// ShardStatus classifies one shard slot of a scrubbed directory.
type ShardStatus int

const (
	// ShardOK: a whole shard of its slot (Open's judgement) and, from a
	// scrub, every block trailer verified.
	ShardOK ShardStatus = iota
	// ShardMissing: the file does not exist.
	ShardMissing
	// ShardBadHeader: the header failed to parse (bad magic, a version
	// other than 3 or 4, a checksum algorithm other than CRC-32C,
	// self-CRC, or geometry), or it belongs to another slot or another
	// encoding, another put's generation included.
	ShardBadHeader
	// ShardTruncated: the file's size disagrees with its header.
	ShardTruncated
	// ShardReadError: the file could not be opened or stat'd, or the
	// block scan failed partway (I/O error or an early end despite a
	// plausible size).
	ShardReadError
	// ShardCorrupt: one or more block trailers failed verification.
	ShardCorrupt
)

func (s ShardStatus) String() string {
	switch s {
	case ShardOK:
		return "ok"
	case ShardMissing:
		return "missing"
	case ShardBadHeader:
		return "bad-header"
	case ShardTruncated:
		return "truncated"
	case ShardReadError:
		return "read-error"
	case ShardCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// ShardReport is one shard slot's scrub outcome.
type ShardReport struct {
	Index  int
	Status ShardStatus
	Header Header      // zero when the header was missing or unreadable
	Result ScrubResult // block-scan tallies (zero when the scan never ran)
	Detail string      // human-readable cause for the non-OK statuses
}

// DirReport is a whole shard directory's scrub outcome: one entry per
// shard slot 0..k+m-1 of the set its headers vote for.
type DirReport struct {
	Set    Header // the lead header of that set; the slot count comes from it
	Shards []ShardReport
}

// Damaged reports whether any shard slot needs repair.
func (r DirReport) Damaged() bool {
	for _, s := range r.Shards {
		if s.Status != ShardOK {
			return true
		}
	}
	return false
}

// Counts tallies the slots by disposition.
func (r DirReport) Counts() (ok, damaged, missing int) {
	for _, s := range r.Shards {
		switch s.Status {
		case ShardOK:
			ok++
		case ShardMissing:
			missing++
		default:
			damaged++
		}
	}
	return
}

// Open opens the shard file at path and judges it whole by OpenAt's
// rule: a whole shard comes back as ShardOK with its header and the open
// file positioned at block 0, which the caller must Close. Anything else
// comes back closed, as the status that says why with a detail:
// ShardMissing only when the file does not exist, ShardReadError when
// it cannot be opened, and otherwise OpenAt's verdict.
func Open(path string, index int) (h Header, f *os.File, status ShardStatus, detail string) {
	f, status, detail = openFile(path)
	if status != ShardOK {
		return h, nil, status, detail
	}
	if h, status, detail = OpenAt(f, 0, -1, index); status != ShardOK {
		f.Close()
		return h, nil, status, detail
	}
	return h, f, ShardOK, ""
}

// openFile opens path for reading: ShardMissing when it does not exist,
// ShardReadError when it cannot be opened.
func openFile(path string) (*os.File, ShardStatus, string) {
	f, err := os.Open(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return nil, ShardMissing, err.Error()
	case err != nil:
		return nil, ShardReadError, err.Error()
	}
	return f, ShardOK, ""
}

// OpenAt is the one judge of a stored shard, whether it is a file of
// its own or a section of a larger one: the size bytes of f from off
// (size < 0: the rest of the file) must start with a header that parses
// and names slot index, and must be exactly the header's
// ExpectedFileSize bytes, all of them on disk. A whole shard is ShardOK
// with its header and f positioned at block 0. Anything else is the
// status that says why with a detail: ShardReadError when f cannot be
// stat'd, ShardBadHeader for a header that does not parse or names
// another slot, and ShardTruncated for a size the header disagrees
// with. The header is returned whenever it parsed. What a node's
// recovery scan keeps, what it serves and what a scrub passes before
// reading the blocks is this one rule; the blocks' trailers are checked
// by whoever reads them. f stays open whatever the verdict.
func OpenAt(f *os.File, off, size int64, index int) (h Header, status ShardStatus, detail string) {
	fi, err := f.Stat()
	if err != nil {
		return h, ShardReadError, err.Error()
	}
	avail := fi.Size() - off // the bytes on disk from off on
	if size < 0 {
		size = avail
	}
	if off != 0 {
		if _, err := f.Seek(off, io.SeekStart); err != nil {
			return h, ShardReadError, err.Error()
		}
	}
	if h, err = Parse(f); err != nil {
		return h, ShardBadHeader, err.Error()
	}
	if int(h.Index) != index {
		return h, ShardBadHeader, fmt.Sprintf("header says index %d (file renamed or copied?)", h.Index)
	}
	if size != h.ExpectedFileSize() || avail < size {
		return h, ShardTruncated, fmt.Sprintf("%d bytes on disk, want %d (truncated or ragged)", min(size, avail), h.ExpectedFileSize())
	}
	return h, ShardOK, ""
}

// ScrubAt scrubs the shard in the size bytes of f from off (size < 0:
// the rest of the file) as slot index of its set: OpenAt's judgement (a
// shard renamed or copied into the wrong slot has sound blocks but is
// damaged all the same: decode refuses it), then every block trailer.
func ScrubAt(f *os.File, off, size int64, index int) ShardReport {
	return scrubAt(f, off, size, index, nil)
}

// scrubAt is ScrubAt that, given a header of the set, also reports a
// header of another encoding as damaged.
func scrubAt(f *os.File, off, size int64, index int, set *Header) ShardReport {
	h, status, detail := OpenAt(f, off, size, index)
	rep := ShardReport{Index: index, Status: status, Header: h, Detail: detail}
	if status != ShardOK {
		return rep
	}
	if set != nil && !h.SameEncoding(*set) {
		rep.Status = ShardBadHeader
		rep.Detail = fmt.Sprintf("header disagrees with shard %d (mixed encodings or a stale shard?)", set.Index)
		return rep
	}
	res, err := scrub(f, h)
	rep.Result = res
	switch {
	case err != nil:
		rep.Status = ShardReadError
		rep.Detail = err.Error()
	case res.Corrupt > 0:
		rep.Status = ShardCorrupt
		rep.Detail = fmt.Sprintf("%d of %d blocks failed %s (stripes %v)",
			res.Corrupt, res.Stripes, h.Algo, res.CorruptStripes)
	}
	return rep
}

// scrubFile scrubs the shard file at path as slot index of the set.
func scrubFile(path string, index int, set *Header) ShardReport {
	f, status, detail := openFile(path)
	if status != ShardOK {
		return ShardReport{Index: index, Status: status, Detail: detail}
	}
	defer f.Close()
	return scrubAt(f, 0, -1, index, set)
}

// ScrubDir scrubs every shard slot of a shard directory laid out by
// Path. It learns the set from its headers, then scrubs slots
// 0..k+m-1, reporting each as ok, missing, or damaged (bad header /
// truncated / read error / corrupt). A header that names another slot,
// or that is not the set's encoding (Header.SameEncoding: another
// geometry, stripe count, file size or generation), is a bad header:
// decode would refuse the file.
// `dialga-encode -mode verify` renders this walk; the node's per-shard
// scrub, which the cluster repair queue polls, runs the same ScrubAt
// checks, so the two can never disagree on what counts as damage.
func ScrubDir(dir string) (DirReport, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return DirReport{}, err
	}
	// The set is the one Vote picks among the headers that name their
	// own slot, so a foreign or swapped file cannot outvote the set it
	// was dropped into, whatever its slot. With no such header (every
	// file swapped), the first parseable header still gives the slot
	// count. The vote reads headers by Parse, not Open, because it reads
	// the headers of misplaced files on purpose.
	var rep DirReport
	var own []Header // headers that name their own slot, lowest slot first
	var fallback *Header
	why := "no shard files" // or why the last one's header did not parse
	for _, e := range entries {
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "shard.%d", &idx); err != nil ||
			e.IsDir() || e.Name() != filepath.Base(Path(dir, idx)) {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		h, perr := Parse(f)
		f.Close()
		if perr != nil {
			why = e.Name() + ": " + perr.Error()
			continue
		}
		if fallback == nil {
			fallback = &h
		}
		if int(h.Index) == idx {
			own = append(own, h)
		}
	}
	lead, _ := Vote(len(own), func(i int) Header { return own[i] })
	switch {
	case lead >= 0:
		rep.Set = own[lead]
	case fallback != nil:
		rep.Set = *fallback
	default:
		return rep, fmt.Errorf("no readable shard headers in %s (%s)", dir, why)
	}
	for i := 0; i < int(rep.Set.K+rep.Set.M); i++ {
		rep.Shards = append(rep.Shards, scrubFile(Path(dir, i), i, &rep.Set))
	}
	return rep, nil
}
