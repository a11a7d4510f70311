package shardfile

import (
	"fmt"
	"os"
	"path/filepath"
)

// ShardStatus classifies one shard slot of a scrubbed directory.
type ShardStatus int

const (
	// ShardOK: header valid, every block trailer verified.
	ShardOK ShardStatus = iota
	// ShardMissing: no file at the slot's conventional path.
	ShardMissing
	// ShardBadHeader: the header failed to parse (bad magic, a version
	// other than 3 or 4, a checksum algorithm other than CRC-32C,
	// self-CRC, or geometry), or it belongs to another slot or another
	// encoding.
	ShardBadHeader
	// ShardTruncated: the file's size disagrees with its header.
	ShardTruncated
	// ShardReadError: the block scan failed partway (I/O error or an
	// early end despite a plausible size).
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

// Damaged reports whether the status demands repair: the shard is
// absent or its bytes cannot be trusted — anything but ShardOK.
func (s ShardStatus) Damaged() bool { return s != ShardOK }

// ShardReport is one shard slot's scrub outcome.
type ShardReport struct {
	Index  int
	Status ShardStatus
	Header Header      // zero when the header was missing or unreadable
	Result ScrubResult // block-scan tallies (zero when the scan never ran)
	Detail string      // human-readable cause for the non-OK statuses
}

// DirReport is a whole shard directory's scrub outcome: one entry per
// shard slot 0..k+m-1 of the geometry most of its headers agree on.
type DirReport struct {
	Geometry Header // a header of the set's geometry; the slot count comes from it
	Shards   []ShardReport
}

// Damaged reports whether any shard slot needs repair.
func (r DirReport) Damaged() bool {
	for _, s := range r.Shards {
		if s.Status.Damaged() {
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

// ScrubFile scrubs the shard file at slot index of its set: parse and
// validate the header (its self-CRC catches corrupted headers),
// check that it names this slot, check the on-disk size against the
// header, then verify every block trailer. A file renamed or copied
// into the wrong slot has sound blocks but is damaged all the same:
// decode refuses it.
func ScrubFile(path string, index int) ShardReport {
	return scrubFile(path, index, nil)
}

// scrubFile is ScrubFile that, given a set's geometry, also reports a
// header from another encoding of another size or shape as damaged.
func scrubFile(path string, index int, geom *Header) ShardReport {
	rep := ShardReport{Index: index}
	f, err := os.Open(path)
	if err != nil {
		rep.Status = ShardMissing
		rep.Detail = err.Error()
		return rep
	}
	defer f.Close()
	h, err := Parse(f)
	if err != nil {
		rep.Status = ShardBadHeader
		rep.Detail = err.Error()
		return rep
	}
	rep.Header = h
	switch {
	case int(h.Index) != index:
		rep.Status = ShardBadHeader
		rep.Detail = fmt.Sprintf("header says index %d (file renamed or copied?)", h.Index)
		return rep
	case geom != nil && (h.K != geom.K || h.M != geom.M || h.ShardSize != geom.ShardSize ||
		h.StripeCount != geom.StripeCount || h.FileSize != geom.FileSize):
		rep.Status = ShardBadHeader
		rep.Detail = fmt.Sprintf("header disagrees with shard %d (mixed encodings?)", geom.Index)
		return rep
	}
	if fi, err := f.Stat(); err == nil && fi.Size() != h.ExpectedFileSize() {
		rep.Status = ShardTruncated
		rep.Detail = fmt.Sprintf("%d bytes on disk, want %d", fi.Size(), h.ExpectedFileSize())
		return rep
	}
	res, err := Scrub(f, h)
	rep.Result = res
	switch {
	case err != nil:
		rep.Status = ShardReadError
		rep.Detail = err.Error()
	case res.Corrupt > 0:
		rep.Status = ShardCorrupt
		rep.Detail = fmt.Sprintf("%d of %d blocks failed %s (stripes %v)",
			res.Corrupt, res.Stripes, h.Algo, res.CorruptStripes)
	default:
		rep.Status = ShardOK
	}
	return rep
}

// ScrubDir scrubs every shard slot of a shard directory laid out by
// Path. It learns the set's geometry from its headers, then scrubs
// slots 0..k+m-1, reporting each as ok, missing, or damaged (bad header
// / truncated / read error / corrupt). A header that names another
// slot, or whose geometry, stripe count or file size disagrees with the
// set's, is a bad header: decode would refuse the file.
// `dialga-encode -mode verify` renders this walk; the node's per-shard
// scrub, which the cluster repair queue polls, runs the same ScrubFile
// checks, so the two can never disagree on what counts as damage.
func ScrubDir(dir string) (DirReport, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return DirReport{}, err
	}
	// The set's geometry is the one most headers agree on, counting only
	// headers that name their own slot, so a foreign or swapped file
	// cannot outvote the set it was dropped into, whatever its slot.
	// With no such header (every file swapped), the first parseable
	// header still gives the slot count.
	type shape struct {
		k, m, shardSize uint32
		stripes, size   uint64
	}
	type tally struct {
		votes int
		first Header // the lowest slot's header of this shape
	}
	var rep DirReport
	var fallback *Header
	tallies := map[shape]*tally{}
	best := 0
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
		if int(h.Index) != idx {
			continue
		}
		s := shape{h.K, h.M, h.ShardSize, h.StripeCount, h.FileSize}
		t := tallies[s]
		if t == nil {
			t = &tally{first: h}
			tallies[s] = t
		}
		if t.votes++; t.votes > best {
			best, rep.Geometry = t.votes, t.first
		}
	}
	switch {
	case best == 0 && fallback == nil:
		return rep, fmt.Errorf("no readable shard headers in %s (%s)", dir, why)
	case best == 0:
		rep.Geometry = *fallback
	}
	for i := 0; i < int(rep.Geometry.K+rep.Geometry.M); i++ {
		rep.Shards = append(rep.Shards, scrubFile(Path(dir, i), i, &rep.Geometry))
	}
	return rep, nil
}
