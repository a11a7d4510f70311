package node

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"dialga/internal/shardfile"
)

// quarantineDir is the store-root directory damaged shard files are
// moved into instead of deleted, so an operator (or a forensic tool)
// can still look at what the recovery scan condemned. It is
// dot-prefixed, which keeps it out of Objects and the recovery scan.
const quarantineDir = ".quarantine"

// recoverStore runs the crash-recovery scan, restoring the invariant
// that every shard the store holds is whole by shardfile.OpenAt's rule,
// the rule GetAt serves by. It scans the segment log first
// (recoverSegments), then walks the object directories, the ones
// Objects lists (see objectName), and repairs the damage a crash can
// leave behind there:
//
//   - Orphaned upload temp files (.put-*.tmp) are deleted. A crash
//     between the temp write and the rename leaves one; it was never
//     visible to readers and its shard was never acknowledged.
//   - Shard files whose header fails its self-CRC or names another
//     slot, or whose size disagrees with the header's expected file
//     size (a torn or truncated write, e.g. a filesystem that dropped
//     tail pages on power loss), are moved into .quarantine/ rather
//     than deleted — the repair plane will rebuild the shard from its
//     peers, and the damaged bytes stay available for inspection. So
//     is a shard.* file whose name is no slot's.
//   - A slot held by both a whole file and a record (a crash between
//     a put's commit and its retiring the other layout's copy) keeps
//     the newer generation, the record on a tie: a losing file is
//     deleted, a losing record superseded by a tombstone.
//
// Block-level corruption (a flipped bit inside a block body) is left
// to the periodic scrub: detecting it requires reading every byte,
// which is too expensive for a startup path, and the per-block CRC
// trailers catch it on first read anyway.
//
// Each step leaves nothing for itself to do, so a second scan over what
// the first left changes nothing. It returns how many shards it kept,
// files and records. OpenStore runs it before the store serves anything
// and sets node_store_shards from that count.
func (s *Store) recoverStore() (int, error) {
	s.recRuns.Inc()
	gens, err := s.recoverSegments()
	if err != nil {
		return 0, err
	}
	kept := len(gens)
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		object, ok := objectName(e)
		if !ok {
			continue
		}
		dir := filepath.Join(s.dir, e.Name())
		files, err := os.ReadDir(dir)
		if err != nil {
			return 0, err
		}
		for _, f := range files {
			name := f.Name()
			switch {
			case f.IsDir():
				continue
			case strings.HasPrefix(name, ".put-") && strings.HasSuffix(name, ".tmp"):
				if err := os.Remove(filepath.Join(dir, name)); err != nil {
					return 0, err
				}
				s.recTmp.Inc()
			case strings.HasPrefix(name, "shard."):
				path := filepath.Join(dir, name)
				idx, err := strconv.Atoi(strings.TrimPrefix(name, "shard."))
				if err == nil && shardfile.Path(dir, idx) == path {
					if h, sf, status, _ := shardfile.Open(path, idx); status == shardfile.ShardOK {
						sf.Close()
						key := slotKey{object, idx}
						gen, packed := gens[key]
						switch {
						case !packed:
							kept++
						case h.Generation > gen:
							s.retireRecordLocked(key)
						default:
							if err := os.Remove(path); err != nil {
								return 0, err
							}
						}
						continue
					}
				}
				if err := s.quarantine(e.Name(), path); err != nil {
					return 0, err
				}
				s.recQuar.Inc()
			}
		}
		// A dir left empty by the cleanup is itself crash litter.
		os.Remove(dir)
	}
	return kept, nil
}

// quarantine moves a condemned shard file into the store's quarantine
// directory under a name that records which object it belonged to.
func (s *Store) quarantine(objEnc, path string) error {
	dst, err := s.quarantinePath(objEnc + "." + filepath.Base(path))
	if err != nil {
		return err
	}
	return os.Rename(path, dst)
}

// quarantineFile creates a file in the quarantine directory to copy
// condemned bytes into, named by name.
func (s *Store) quarantineFile(name string) (*os.File, error) {
	dst, err := s.quarantinePath(name)
	if err != nil {
		return nil, err
	}
	return os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
}

// quarantinePath is a free path in the quarantine directory for a
// condemned piece called name, picking a numeric suffix if a previous
// incarnation is already there.
func (s *Store) quarantinePath(name string) (string, error) {
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return "", err
	}
	base := filepath.Join(qdir, name)
	for i := 0; i < 10000; i++ {
		dst := base
		if i > 0 {
			dst = fmt.Sprintf("%s.%d", base, i)
		}
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			return dst, nil
		}
	}
	return "", fmt.Errorf("node: quarantine name space exhausted for %s", name)
}
