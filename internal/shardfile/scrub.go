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
	// or checksum algorithm other than v3's CRC-32C, self-CRC, or
	// geometry).
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
// shard slot 0..k+m-1 of the geometry learned from the first parseable
// header.
type DirReport struct {
	Geometry Header // the header the slot count was derived from
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

// ScrubFile scrubs a single shard file: parse and validate the header
// (the v3 self-CRC catches corrupted headers), check the on-disk size
// against the header, then verify every block trailer. The returned
// report's Index is taken from the header when it parses, else -1.
func ScrubFile(path string) ShardReport {
	rep := ShardReport{Index: -1}
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
	rep.Header, rep.Index = h, int(h.Index)
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
// Path. It learns the geometry from the first parseable header, then
// scrubs slots 0..k+m-1, reporting each as ok, missing, or damaged
// (bad header / truncated / read error / corrupt).
// The same walk backs both `dialga-inspect -verify` and the cluster
// repair queue's damage detection, so the two can never disagree on
// what counts as damage.
func ScrubDir(dir string) (DirReport, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return DirReport{}, err
	}
	// Find one parseable header to learn the geometry, so missing
	// shard slots can be reported by index.
	var rep DirReport
	haveGeom := false
	why := "no shard files" // or why the last one's header did not parse
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "shard.%d", &idx); err != nil {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		h, perr := Parse(f)
		f.Close()
		if perr == nil {
			rep.Geometry, haveGeom = h, true
			break
		}
		why = e.Name() + ": " + perr.Error()
	}
	if !haveGeom {
		return rep, fmt.Errorf("no readable shard headers in %s (%s)", dir, why)
	}
	for i := 0; i < int(rep.Geometry.K+rep.Geometry.M); i++ {
		sr := ScrubFile(Path(dir, i))
		sr.Index = i
		rep.Shards = append(rep.Shards, sr)
	}
	return rep, nil
}
