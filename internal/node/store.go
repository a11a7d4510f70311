// Package node is the data plane of the dialga shard service: a
// disk-backed shard store, an HTTP server exposing it (put / get /
// stat / scrub / delete per shard, plus object listing, /metrics and
// /healthz), a client for talking to peers, and a graceful-shutdown
// serving helper.
//
// A node knows nothing about placement, routing, or repair — that is
// internal/cluster's control plane, layered on top of the client. The
// wire format is deliberately dumb: a shard travels as the exact
// shardfile bytes (v3 header + checksummed blocks) that dialga-encode
// writes to disk, so the store can validate uploads with the header
// self-CRC and byte count alone, `dialga-inspect -verify` can scrub a
// node's data directory directly, and a shard fetched over HTTP can be
// fed straight into the streaming decoder.
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
	"time"

	"dialga/internal/gf"
	"dialga/internal/obs"
	"dialga/internal/shardfile"
)

// ErrNotFound reports a shard or object the store does not hold.
var ErrNotFound = errors.New("node: shard not found")

// ErrBadShard reports an upload rejected by validation: unparseable
// header, index mismatch, a byte count that disagrees with the header,
// or a block that fails its checksum trailer.
var ErrBadShard = errors.New("node: invalid shard upload")

// Store is a node's local shard storage: one directory per object
// (name percent-encoded), shard files laid out by shardfile.Path
// inside it. Writes are atomic (temp file + rename), so a crashed or
// abandoned upload never leaves a half-written shard where the scrub
// or a reader could trip over it. Safe for concurrent use.
type Store struct {
	dir string

	mu  sync.Mutex // serializes multi-step directory mutations (delete-last-shard cleanup)
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
// running the crash-recovery scan (see Recover) before the store
// serves anything: orphaned upload temp files are deleted and torn or
// unreadable shard files are quarantined, so every shard the open
// store reports actually parses. A non-nil reg receives the store's
// node_store_* and node_recovery_* series.
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
	if _, err := s.Recover(); err != nil {
		return nil, err
	}
	n, err := s.countShards()
	if err != nil {
		return nil, err
	}
	s.shards.Set(float64(n))
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// objectDir maps an object name to its directory, percent-encoding
// anything that could escape the store root. Empty names, names that
// encode to path navigation, and names that would collide with the
// store's dot-prefixed bookkeeping dirs (.quarantine) are rejected.
func (s *Store) objectDir(object string) (string, error) {
	if object == "" {
		return "", fmt.Errorf("%w: empty object name", ErrBadShard)
	}
	enc := url.PathEscape(object)
	if strings.HasPrefix(enc, ".") || strings.ContainsAny(enc, "/\\") {
		return "", fmt.Errorf("%w: unusable object name %q", ErrBadShard, object)
	}
	return filepath.Join(s.dir, enc), nil
}

func (s *Store) countShards() (int, error) {
	objects, err := s.Objects()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, o := range objects {
		dir, err := s.objectDir(o)
		if err != nil {
			continue
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasPrefix(e.Name(), "shard.") {
				n++
			}
		}
	}
	return n, nil
}

// Put validates and atomically commits one shard upload: the body must
// be exact shardfile bytes whose header parses, whose index matches
// idx, whose length matches the header's expected file size, and whose
// every block matches its checksum trailer. Anything else is rejected
// with ErrBadShard and leaves no trace on disk. An existing shard at
// the slot is replaced atomically.
func (s *Store) Put(object string, idx int, body io.Reader) error {
	dir, err := s.objectDir(object)
	if err != nil {
		s.rejects.Inc()
		return err
	}
	h, err := shardfile.Parse(body)
	if err != nil {
		s.rejects.Inc()
		return fmt.Errorf("%w: %v", ErrBadShard, err)
	}
	if int(h.Index) != idx {
		s.rejects.Inc()
		return fmt.Errorf("%w: header says shard %d, uploaded to slot %d", ErrBadShard, h.Index, idx)
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
	start := time.Now()
	err = receive(f, h, body)
	received := time.Now()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	path := shardfile.Path(dir, idx)
	existed := false
	if err == nil {
		if _, serr := os.Stat(path); serr == nil {
			existed = true
		}
		err = os.Rename(tmp, path)
	}
	if err != nil {
		if errors.Is(err, ErrBadShard) {
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

// receive copies an upload's header and blocks into f, one block at a
// time: each block's payload is checksummed against its trailer while
// it is still in cache, before anything could be renamed into place,
// and the body must end exactly where the header says the file does.
func receive(f *os.File, h shardfile.Header, body io.Reader) error {
	if _, err := f.Write(h.Marshal()); err != nil {
		return err
	}
	buf := make([]byte, max(1, min(putBufSize, h.BlockSize())))
	payload := int64(h.ShardSize)
	trailer := h.BlockSize() - payload // the CRC-32C behind the payload
	short := func(stripe uint64, err error) error {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: body ended in block %d, header wants %d blocks of %d bytes",
				ErrBadShard, stripe, h.StripeCount, h.BlockSize())
		}
		return err
	}
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
				return fmt.Errorf("%w: block %d fails its CRC-32C trailer", ErrBadShard, stripe)
			}
			if _, err := f.Write(piece); err != nil {
				return err
			}
		}
	}
	if n, err := body.Read(buf[:1]); n > 0 {
		return fmt.Errorf("%w: body runs past the %d bytes its header describes", ErrBadShard, h.ExpectedFileSize())
	} else if err != nil && err != io.EOF {
		return err
	}
	return nil
}

// Get opens a shard for reading, returning its parsed header and the
// open file positioned at the first block (the header bytes already
// consumed). The caller must Close the file.
func (s *Store) Get(object string, idx int) (shardfile.Header, *os.File, error) {
	dir, err := s.objectDir(object)
	if err != nil {
		return shardfile.Header{}, nil, err
	}
	f, err := os.Open(shardfile.Path(dir, idx))
	if err != nil {
		if os.IsNotExist(err) {
			err = fmt.Errorf("%w: %s/%d", ErrNotFound, object, idx)
		}
		return shardfile.Header{}, nil, err
	}
	h, err := shardfile.Parse(f)
	if err != nil {
		f.Close()
		return shardfile.Header{}, nil, fmt.Errorf("stored shard %s/%d unreadable: %w", object, idx, err)
	}
	s.gets.Inc()
	return h, f, nil
}

// GetAt opens a window of a shard: count whole blocks starting at block
// index `block` (each block is one stripe's worth of this shard: data
// plus checksum trailer). It returns the parsed header, the open file
// positioned at the window's first byte, and the window's length in
// bytes. count < 0 means through the last block; count is clamped to
// the blocks that exist. A block index past the end is rejected. The
// file comes back as itself, under no wrapper, so a server can hand an
// *io.LimitedReader over it to the socket, which sends it by
// sendfile(2). The caller must Close the file.
func (s *Store) GetAt(object string, idx int, block, count int64) (shardfile.Header, *os.File, int64, error) {
	h, f, err := s.Get(object, idx)
	if err != nil {
		return shardfile.Header{}, nil, 0, err
	}
	stripes := int64(h.StripeCount)
	if block == 0 && count < 0 {
		return h, f, stripes * h.BlockSize(), nil
	}
	if block < 0 || block >= stripes {
		f.Close()
		return shardfile.Header{}, nil, 0, fmt.Errorf("%w: block %d outside shard %s/%d (%d blocks)",
			ErrBadShard, block, object, idx, stripes)
	}
	if count < 0 || block+count > stripes {
		count = stripes - block
	}
	// Get left the file at block 0; step straight to the window.
	if _, err := f.Seek(shardfile.HeaderSizeV3+block*h.BlockSize(), io.SeekStart); err != nil {
		f.Close()
		return shardfile.Header{}, nil, 0, err
	}
	return h, f, count * h.BlockSize(), nil
}

// Stat parses and returns a stored shard's header without reading its
// blocks.
func (s *Store) Stat(object string, idx int) (shardfile.Header, error) {
	h, r, err := s.Get(object, idx)
	if err != nil {
		return shardfile.Header{}, err
	}
	r.Close()
	return h, nil
}

// Scrub runs the shared shardfile scrub over one stored shard,
// verifying the header, size, and every block trailer.
func (s *Store) Scrub(object string, idx int) (shardfile.ShardReport, error) {
	dir, err := s.objectDir(object)
	if err != nil {
		return shardfile.ShardReport{}, err
	}
	rep := shardfile.ScrubFile(shardfile.Path(dir, idx))
	rep.Index = idx
	return rep, nil
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
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue // files, and bookkeeping dirs like .quarantine
		}
		name, err := url.PathUnescape(e.Name())
		if err != nil {
			continue // foreign directory; not ours to report
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}
