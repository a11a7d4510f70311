// Package node is the data plane of the dialga shard service: a
// disk-backed shard store, an HTTP server exposing it (put / get /
// scrub / delete per shard, plus object listing, /metrics and
// /healthz), a client for talking to peers, and a graceful-shutdown
// serving helper.
//
// A node knows nothing about placement, routing, or repair — that is
// internal/cluster's control plane, layered on top of the client. The
// wire format is deliberately dumb: a shard travels as the exact
// shardfile bytes (header + checksummed blocks) that dialga-encode
// writes to disk, so the store can validate uploads with the header
// self-CRC and byte count alone, `dialga-encode -mode verify` can
// scrub a node's object directories directly, and a shard fetched over
// HTTP can be fed straight into the streaming decoder.
package node

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"dialga/internal/gf"
	"dialga/internal/obs"
	"dialga/internal/shardfile"
)

// ErrNotFound reports a shard or object the store does not hold.
var ErrNotFound = errors.New("node: shard not found")

// ErrDamaged reports a stored shard that is there but is not one the
// node can serve whole: any shardfile.Open or block-scrub verdict but
// ok and missing. The damage is the file's, not the node's, so it is
// never transient: a read opens a spare, repair rebuilds the shard, a
// migration rebuilds it at its new home. On the wire it is a 409 whose
// body begins with the shardfile.ShardStatus that names it and a colon.
var ErrDamaged = errors.New("damaged stored shard")

// errBadShard reports an upload rejected by validation: unparseable
// header, index mismatch, a byte count that disagrees with the header,
// or a block that fails its checksum trailer.
var errBadShard = errors.New("node: invalid shard upload")

// Store is a node's local shard storage: one directory per object
// (name percent-encoded), shard files laid out by shardfile.Path
// inside it. Writes are atomic (temp file + rename), so a crashed or
// abandoned upload never leaves a half-written shard where the scrub
// or a reader could trip over it. Safe for concurrent use.
type Store struct {
	dir string

	mu  sync.Mutex // serializes multi-step directory mutations: a commit's check and rename, delete-last-shard cleanup
	tmp uint64     // temp-file sequence

	puts    *obs.Counter   // node_store_puts_total
	gets    *obs.Counter   // node_store_gets_total
	deletes *obs.Counter   // node_store_deletes_total
	rejects *obs.Counter   // node_store_rejected_total
	shards  *obs.Gauge     // node_store_shards
	putRecv *obs.Histogram // node_store_put_seconds{stage="receive"}
	putCmt  *obs.Histogram // node_store_put_seconds{stage="commit"}
	recRuns *obs.Counter   // node_recovery_runs_total
	recTmp  *obs.Counter   // node_recovery_tmp_removed_total
	recQuar *obs.Counter   // node_recovery_quarantined_total
}

// OpenStore creates (if needed) and opens a shard store rooted at dir,
// running the crash-recovery scan (see recoverStore) before the store
// serves anything: orphaned upload temp files are deleted and shard
// files that shardfile.Open does not judge whole are quarantined, so
// every shard the open store reports is one GetAt serves. A non-nil
// reg receives the store's node_store_* and node_recovery_* series.
func OpenStore(dir string, reg *obs.Registry) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir: dir,
		puts: reg.Counter("node_store_puts_total",
			"Shard files accepted and committed to the local store."),
		gets: reg.Counter("node_store_gets_total",
			"Shard files opened for reading from the local store."),
		deletes: reg.Counter("node_store_deletes_total",
			"Shard files deleted from the local store."),
		rejects: reg.Counter("node_store_rejected_total",
			"Shard uploads rejected by header or size validation."),
		shards: reg.Gauge("node_store_shards",
			"Shard files currently held by the local store."),
		putRecv: reg.Histogram("node_store_put_seconds", putSecondsHelp,
			putSecondsBounds, obs.Label{Key: "stage", Value: "receive"}),
		putCmt: reg.Histogram("node_store_put_seconds", putSecondsHelp,
			putSecondsBounds, obs.Label{Key: "stage", Value: "commit"}),
		recRuns: reg.Counter("node_recovery_runs_total",
			"Crash-recovery scans run over the local store."),
		recTmp: reg.Counter("node_recovery_tmp_removed_total",
			"Orphaned upload temp files removed by recovery scans."),
		recQuar: reg.Counter("node_recovery_quarantined_total",
			"Torn or unreadable shard files quarantined by recovery scans."),
	}
	n, err := s.recoverStore()
	if err != nil {
		return nil, err
	}
	s.shards.Set(float64(n))
	return s, nil
}

// objectDir maps an object name to its directory, percent-encoding
// anything that could escape the store root. Empty names, names that
// encode to path navigation, and names that would collide with the
// store's dot-prefixed bookkeeping dirs (.quarantine) are rejected.
func (s *Store) objectDir(object string) (string, error) {
	if object == "" {
		return "", fmt.Errorf("%w: empty object name", errBadShard)
	}
	enc := url.PathEscape(object)
	if strings.HasPrefix(enc, ".") || strings.ContainsAny(enc, "/\\") {
		return "", fmt.Errorf("%w: unusable object name %q", errBadShard, object)
	}
	return filepath.Join(s.dir, enc), nil
}

// Put validates and atomically commits one shard upload: the body must
// be exact shardfile bytes whose header parses, whose index matches
// idx, whose length matches the header's expected file size, and whose
// every block matches its checksum trailer. Anything else is rejected
// with errBadShard and leaves no trace on disk. An existing shard at
// the slot is replaced atomically.
//
// When the slot already holds a file, the upload starts the temp file's
// writeback block by block as it is received (see receive), because
// ext4 (auto_da_alloc) writes back a file renamed over another inside
// rename(2): started early, that flush leaves the commit instead of
// waiting in it. The bytes on disk and their order are unchanged:
// data=ordered still writes them before the journal commits the rename.
// It makes no upload durable; nothing here syncs. An upload into an
// empty slot (its first put, or a repair of a deleted shard) starts
// none: its rename flushes nothing, and its file may be deleted before
// the kernel's own writeback would have run.
func (s *Store) Put(object string, idx int, body io.Reader) error {
	dir, err := s.objectDir(object)
	if err != nil {
		s.rejects.Inc()
		return err
	}
	h, err := shardfile.Parse(body)
	if err != nil {
		s.rejects.Inc()
		return fmt.Errorf("%w: %v", errBadShard, err)
	}
	if int(h.Index) != idx {
		s.rejects.Inc()
		return fmt.Errorf("%w: header says shard %d, uploaded to slot %d", errBadShard, h.Index, idx)
	}
	s.mu.Lock()
	s.tmp++
	tmp := filepath.Join(dir, fmt.Sprintf(".put-%d-%d.tmp", idx, s.tmp))
	s.mu.Unlock()
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if errors.Is(err, fs.ErrNotExist) {
		// The object's first shard here: only that put pays for a mkdir,
		// and not MkdirAll's walk (the root exists since OpenStore). Losing
		// the race to a concurrent first shard is as good as winning.
		if err = os.Mkdir(dir, 0o755); err == nil || errors.Is(err, fs.ErrExist) {
			f, err = os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		}
	}
	if err != nil {
		return err
	}
	path := shardfile.Path(dir, idx)
	_, err = os.Stat(path) // an overwrite: start writeback early
	start := time.Now()
	err = receive(f, h, body, err == nil)
	received := time.Now()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	existed := false
	if err == nil {
		s.mu.Lock() // one step, so concurrent first puts count a slot once
		_, serr := os.Stat(path)
		existed = serr == nil
		err = os.Rename(tmp, path)
		s.mu.Unlock()
	}
	if err != nil {
		if errors.Is(err, errBadShard) {
			s.rejects.Inc()
		}
		os.Remove(tmp)
		os.Remove(dir) // only removes an object dir this put created empty
		return err
	}
	s.putRecv.Observe(received.Sub(start).Seconds())
	s.putCmt.Observe(time.Since(received).Seconds())
	s.puts.Inc()
	if !existed {
		s.shards.Add(1)
	}
	return nil
}

// node_store_put_seconds splits a committed upload in two: receive is
// the body after the header, read, checked and written block by block;
// commit is the close, the stat and the rename that publish the file.
// Only a committed upload is observed, once per stage.
const putSecondsHelp = "Time a committed shard upload spent per stage: receive (blocks read, checked and written) or commit (close, stat and rename)."

var putSecondsBounds = []float64{1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// putBufSize caps the buffer an upload is received through: room for
// the default geometry's block (RS(4,2) over 1 MiB stripes: 256 KiB +
// 4), so the usual block is read whole, checked and written with one
// write(2). An upload of smaller blocks gets a buffer of one block (a
// 64 KiB object's 16 KiB shard does not pay for zeroing 320 KiB), but the
// uploaded header's ShardSize, a stranger's word, can only shrink it: a
// larger block goes through the buffer in pieces. Each upload allocates
// its own and leaves it to the GC: a free list of even two of them per
// store was measured (six stores in the benchmark's process) at 10-15
// MiB of peak RSS on workloads that do not put, because what a pool
// holds is live heap whenever the GC sets its next goal.
const putBufSize = 320 << 10

// writeback starts the kernel writing a file's bytes [off, off+n) to
// disk without waiting for it: startWriteback, or a test's fake.
var writeback = startWriteback

// receive copies an upload's header and blocks into f, one block at a
// time: each block's payload is checksummed against its trailer while
// it is still in cache, before anything could be renamed into place,
// and the body must end exactly where the header says the file does.
// With early set, each block, once checked and written, has the bytes
// written since the last call (the first block's call takes the header
// too) handed to writeback; an error fails the upload as a failed
// write does, except one saying the file system cannot, after which
// the upload goes on without.
func receive(f *os.File, h shardfile.Header, body io.Reader, early bool) error {
	if _, err := f.Write(h.Marshal()); err != nil {
		return err
	}
	buf := make([]byte, max(1, min(putBufSize, h.BlockSize())))
	payload := int64(h.ShardSize)
	trailer := h.BlockSize() - payload // the CRC-32C behind the payload
	short := func(stripe uint64, err error) error {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: body ended in block %d, header wants %d blocks of %d bytes",
				errBadShard, stripe, h.StripeCount, h.BlockSize())
		}
		return err
	}
	var started int64 // bytes of f handed to writeback
	for stripe := uint64(0); stripe < h.StripeCount; stripe++ {
		var sum uint32
		for left := payload; left > 0; {
			// A piece is as much payload as fits with room kept for the
			// trailer, so the trailer always arrives whole with the last one.
			n := min(left, int64(len(buf))-trailer)
			left -= n
			piece := buf[:n]
			if left == 0 {
				piece = buf[:n+trailer]
			}
			if _, err := io.ReadFull(body, piece); err != nil {
				return short(stripe, err)
			}
			sum = gf.CRC32CUpdate(sum, piece[:n])
			if left == 0 && binary.LittleEndian.Uint32(piece[n:]) != sum {
				return fmt.Errorf("%w: block %d fails its CRC-32C trailer", errBadShard, stripe)
			}
			if _, err := f.Write(piece); err != nil {
				return err
			}
		}
		if early {
			end := h.Size() + int64(stripe+1)*h.BlockSize()
			err := writeback(f, started, end-started)
			if errors.Is(err, syscall.ENOSYS) || errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.EOPNOTSUPP) {
				early = false // the file system cannot; go on without
			} else if err != nil {
				return err
			}
			started = end
		}
	}
	if n, err := body.Read(buf[:1]); n > 0 {
		return fmt.Errorf("%w: body runs past the %d bytes its header describes", errBadShard, h.ExpectedFileSize())
	} else if err != nil && err != io.EOF {
		return err
	}
	return nil
}

// Get opens a whole shard for reading: GetAt's (0, -1), its file
// positioned at the first block. The caller must Close the file.
func (s *Store) Get(object string, idx int) (shardfile.Header, *os.File, error) {
	h, f, _, err := s.GetAt(object, idx, 0, -1)
	return h, f, err
}

// GetAt opens the blocks of a shard that carry the object bytes
// [off, off+length), as its own header cuts them (shardfile.Header.Cut:
// (0, -1) is every block, and (0, 0) or a range the object cannot
// satisfy is no block, the header alone). The file must be a whole
// shard of slot idx by shardfile.Open's rule, the one the recovery scan
// keeps by, so a torn, overlong or misplaced file is refused, as
// ErrDamaged, before any byte of it is served. It returns the parsed
// header, the open file positioned at the window's first byte, and the
// window's length in bytes. The file comes back as itself, under no
// wrapper, so a server can hand an *io.LimitedReader over it to the
// socket, which sends it by sendfile(2). The caller must Close the file.
func (s *Store) GetAt(object string, idx int, off, length int64) (shardfile.Header, *os.File, int64, error) {
	dir, err := s.objectDir(object)
	if err != nil {
		return shardfile.Header{}, nil, 0, err
	}
	h, f, status, detail := shardfile.Open(shardfile.Path(dir, idx), idx)
	if err := verdict(object, idx, status, detail); err != nil {
		return shardfile.Header{}, nil, 0, err
	}
	s.gets.Inc()
	win := h.Cut(off, length)
	if win.Block > 0 {
		// Open left the file at block 0; step straight to the window.
		if _, err := f.Seek(h.Size()+win.Block*h.BlockSize(), io.SeekStart); err != nil {
			f.Close()
			return shardfile.Header{}, nil, 0, err
		}
	}
	return h, f, win.Blocks * h.BlockSize(), nil
}

// Scrub runs the shared shardfile scrub over one stored shard: the
// header, slot and size by shardfile.Open's rule, then every block
// trailer. It returns a clean shard's header; a missing file is
// ErrNotFound and any other damage ErrDamaged, as from GetAt.
func (s *Store) Scrub(object string, idx int) (shardfile.Header, error) {
	dir, err := s.objectDir(object)
	if err != nil {
		return shardfile.Header{}, err
	}
	rep := shardfile.ScrubFile(shardfile.Path(dir, idx), idx)
	if err := verdict(object, idx, rep.Status, rep.Detail); err != nil {
		return shardfile.Header{}, err
	}
	return rep.Header, nil
}

// verdict is the error of slot idx of object judged status: none for
// ok, ErrNotFound for missing, and ErrDamaged, led by the status, for
// anything else.
func verdict(object string, idx int, status shardfile.ShardStatus, detail string) error {
	switch status {
	case shardfile.ShardOK:
		return nil
	case shardfile.ShardMissing:
		return fmt.Errorf("%w: %s/%d", ErrNotFound, object, idx)
	}
	return fmt.Errorf("%s: %w %s/%d: %s", status, ErrDamaged, object, idx, detail)
}

// Delete removes a shard; deleting the object's last shard removes its
// directory. Deleting a shard that is not there is not an error.
func (s *Store) Delete(object string, idx int) error {
	dir, err := s.objectDir(object)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	err = os.Remove(shardfile.Path(dir, idx))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	s.deletes.Inc()
	s.shards.Add(-1)
	// Opportunistic cleanup; fails harmlessly while shards remain.
	os.Remove(dir)
	return nil
}

// Objects lists the object names with at least one shard stored here,
// sorted.
func (s *Store) Objects() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if name, ok := objectName(e); ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// objectName is the one rule for which entries of the store root are
// object directories, for Objects and the recovery scan alike: a
// directory whose name is not dot-prefixed (bookkeeping like
// .quarantine) and percent-decodes (anything else is foreign, not ours
// to report or repair). It returns the object name the entry decodes to.
func objectName(e fs.DirEntry) (string, bool) {
	if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
		return "", false
	}
	name, err := url.PathUnescape(e.Name())
	return name, err == nil
}
