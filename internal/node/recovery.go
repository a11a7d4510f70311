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

// recoverStore walks the store's object directories, the ones Objects
// lists (see objectName), and repairs the damage a crash can leave
// behind, restoring the invariant that every shard.* file in them is a
// whole shard of the slot its name gives (shardfile.Path's rule), as
// shardfile.Open judges it, the rule GetAt serves by:
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
//
// Block-level corruption (a flipped bit inside a block body) is left
// to the periodic scrub: detecting it requires reading every byte,
// which is too expensive for a startup path, and the per-block CRC
// trailers catch it on first read anyway.
//
// It returns how many shard files it kept: those it scanned, less
// those it quarantined. OpenStore runs it before the store serves
// anything and sets node_store_shards from that count.
func (s *Store) recoverStore() (int, error) {
	kept := 0
	s.recRuns.Inc()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		if _, ok := objectName(e); !ok {
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
					if _, sf, status, _ := shardfile.Open(path, idx); status == shardfile.ShardOK {
						sf.Close()
						kept++
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
// directory under a name that records which object it belonged to,
// picking a numeric suffix if a previous incarnation is already there.
func (s *Store) quarantine(objEnc, path string) error {
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(qdir, objEnc+"."+filepath.Base(path))
	for i := 0; i < 10000; i++ {
		dst := base
		if i > 0 {
			dst = fmt.Sprintf("%s.%d", base, i)
		}
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			return os.Rename(path, dst)
		}
	}
	return fmt.Errorf("node: quarantine name space exhausted for %s", path)
}
