package node

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dialga/internal/gf"
	"dialga/internal/obs"
	"dialga/internal/shardfile"
)

// packedShard is a one-stripe v4 shard of slot idx: shardSize payload
// bytes of fill under generation gen. Every such shard is a record.
func packedShard(idx int, gen uint64, fill byte, shardSize int) []byte {
	payload := bytes.Repeat([]byte{fill}, shardSize)
	h := shardfile.Header{Version: shardfile.VersionV4, K: 4, M: 2, Index: uint32(idx), ShardSize: uint32(shardSize),
		StripeCount: 1, FileSize: uint64(4 * shardSize), Algo: shardfile.AlgoCRC32C, Generation: gen}
	return binary.LittleEndian.AppendUint32(append(h.Marshal(), payload...), gf.CRC32C(payload))
}

func mustPut(t testing.TB, s *Store, object string, idx int, shard []byte) {
	t.Helper()
	if err := s.Put(object, idx, bytes.NewReader(shard)); err != nil {
		t.Fatalf("put %s/%d: %v", object, idx, err)
	}
}

// served reads slot idx of object whole through GetAt: its bytes, or
// nil when the slot is not found. Damage fails the test.
func served(t testing.TB, s *Store, object string, idx int) []byte {
	t.Helper()
	h, f, n, err := s.GetAt(object, idx, 0, -1)
	if errors.Is(err, ErrNotFound) {
		return nil
	}
	if err != nil {
		t.Fatalf("get %s/%d: %v", object, idx, err)
	}
	defer f.Close()
	body, err := io.ReadAll(io.LimitReader(f, n))
	if err != nil || int64(len(body)) != n {
		t.Fatalf("get %s/%d: %d of %d bytes, %v", object, idx, len(body), n, err)
	}
	return append(h.Marshal(), body...)
}

// snapshot is what an open store shows of itself: every file under its
// root with its digest, its index, and its shard and segment gauges.
func snapshot(t *testing.T, s *Store, reg *obs.Registry) string {
	t.Helper()
	var b strings.Builder
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		fmt.Fprintf(&b, "%s %d %x\n", strings.TrimPrefix(path, s.dir), len(raw), sha256.Sum256(raw))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	var keys []string
	for k, l := range s.index {
		keys = append(keys, fmt.Sprintf("%s/%d seg %d at %d: %d+%d", k.object, k.idx, l.seg.seq, l.off, l.frame, l.size))
	}
	s.mu.RUnlock()
	slices.Sort(keys)
	fmt.Fprintf(&b, "%s\nshards %v live %v dead %v\n", strings.Join(keys, "\n"),
		reg.Gauge("node_store_shards", "").Value(), segGauge(reg, "live"), segGauge(reg, "dead"))
	return b.String()
}

func segGauge(reg *obs.Registry, state string) float64 {
	return reg.Gauge("node_store_segment_bytes", "", obs.Label{Key: "state", Value: state}).Value()
}

// openTwice runs OpenStore over dir, then again over what the first
// left, and requires the second to find nothing to do: the same files,
// index and gauges, and no file removed or quarantined (recovery is a
// restart path, so it must be idempotent). It returns the second store
// and the first open's registry.
func openTwice(t *testing.T, dir string) (*Store, *obs.Registry) {
	t.Helper()
	reg1 := obs.NewRegistry()
	s1, err := OpenStore(dir, reg1)
	if err != nil {
		t.Fatalf("first open: %v", err)
	}
	first := snapshot(t, s1, reg1)
	s1.Close()
	reg2 := obs.NewRegistry()
	s2, err := OpenStore(dir, reg2)
	if err != nil {
		t.Fatalf("second open: %v", err)
	}
	t.Cleanup(func() { s2.Close() })
	if second := snapshot(t, s2, reg2); second != first {
		t.Fatalf("a second open changed the store:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
	for _, c := range []string{"node_recovery_quarantined_total", "node_recovery_tmp_removed_total"} {
		if n := reg2.Counter(c, "").Value(); n != 0 {
			t.Fatalf("second open: %s = %d, want 0", c, n)
		}
	}
	return s2, reg1
}

// segmentBytes is the content of a store's first segment.
func segmentBytes(t *testing.T, dir string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, segmentDir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// writeSegment makes dir a store whose one segment holds raw.
func writeSegment(t *testing.T, dir string, raw []byte) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, segmentDir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentDir, segName(1)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// quarantined is every quarantined file's content, by name.
func quarantined(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	entries, _ := os.ReadDir(filepath.Join(dir, quarantineDir))
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, quarantineDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = raw
	}
	return out
}

// TestSegmentTornTailAtEveryOffset cuts a segment at every byte offset
// inside its last two records, as a crash that tore the last append
// leaves it. Recovery indexes exactly the records wholly before the
// cut: a cut record's slot serves the slot's previous record, or is
// not found, never a short or mixed body. The cut bytes are
// quarantined and counted, and a second open changes nothing.
func TestSegmentTornTailAtEveryOffset(t *testing.T) {
	base := t.TempDir()
	s, err := OpenStore(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	a1, b1, a2, c1 := packedShard(0, 1, 'a', 64), packedShard(0, 1, 'b', 64), packedShard(0, 2, 'A', 64), packedShard(1, 1, 'c', 64)
	mustPut(t, s, "a", 0, a1)
	mustPut(t, s, "b", 0, b1)
	mustPut(t, s, "a", 0, a2)
	mustPut(t, s, "c", 1, c1)
	s.Close()
	seg := segmentBytes(t, base)
	rec := int64(len(seg)) / 4 // four records of one size
	last2 := 2 * rec

	for cut := last2 + 1; cut < int64(len(seg)); cut++ {
		dir := filepath.Join(t.TempDir(), "store")
		writeSegment(t, dir, seg[:cut])
		s, reg := openTwice(t, dir)
		wantA, wantQ := a1, seg[last2:cut]
		if cut >= 3*rec {
			wantA, wantQ = a2, seg[3*rec:cut]
		}
		if got := served(t, s, "a", 0); !bytes.Equal(got, wantA) {
			t.Fatalf("cut %d: a/0 serves %d bytes, want the record before the cut", cut, len(got))
		}
		if got := served(t, s, "b", 0); !bytes.Equal(got, b1) {
			t.Fatalf("cut %d: b/0 serves %d bytes, want its record", cut, len(got))
		}
		if got := served(t, s, "c", 1); got != nil {
			t.Fatalf("cut %d: c/1 serves %d bytes of a torn record", cut, len(got))
		}
		q := quarantined(t, dir)
		wantN := 1
		if len(wantQ) == 0 {
			wantN = 0
		}
		if n := reg.Counter("node_recovery_quarantined_total", "").Value(); int(n) != wantN || len(q) != wantN {
			t.Fatalf("cut %d: quarantined %d spans (%d files), want %d", cut, n, len(q), wantN)
		}
		for _, raw := range q {
			if !bytes.Equal(raw, wantQ) {
				t.Fatalf("cut %d: quarantine holds %d bytes, want the %d cut", cut, len(raw), len(wantQ))
			}
		}
		if objs, _ := s.Objects(); !slices.Equal(objs, []string{"a", "b"}) {
			t.Fatalf("cut %d: objects %v, want [a b]", cut, objs)
		}
	}
}

// TestSegmentResyncsPastDamage flips one byte of the middle record of a
// segment, in its frame or in its shard's header: the scan resyncs at
// the next frame, so the records after it are still served and only
// the damaged one is lost (its slot serves its previous record). The
// damaged bytes are quarantined and cut out of the segment.
func TestSegmentResyncsPastDamage(t *testing.T) {
	base := t.TempDir()
	s, err := OpenStore(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	shards := map[string][]byte{"a": packedShard(0, 1, 'a', 64), "b": packedShard(0, 1, 'b', 64),
		"c": packedShard(0, 1, 'c', 64), "d": packedShard(0, 1, 'd', 64)}
	a2 := packedShard(0, 2, 'A', 64)
	for _, name := range []string{"a", "b"} {
		mustPut(t, s, name, 0, shards[name])
	}
	mustPut(t, s, "a", 0, a2) // the middle record, damaged below
	for _, name := range []string{"c", "d"} {
		mustPut(t, s, name, 0, shards[name])
	}
	s.Close()
	seg := segmentBytes(t, base)
	rec := len(seg) / 5
	frame := frameSize("a")
	spots := []int{}
	for i := 0; i < frame; i++ {
		spots = append(spots, 2*rec+i)
	}
	spots = append(spots, 2*rec+frame+9) // the shard header's k: its self-CRC fails
	for _, at := range spots {
		dir := filepath.Join(t.TempDir(), "store")
		damaged := slices.Clone(seg)
		damaged[at] ^= 0x10
		writeSegment(t, dir, damaged)
		s, reg := openTwice(t, dir)
		for name, want := range shards {
			if name == "a" {
				continue
			}
			if got := served(t, s, name, 0); !bytes.Equal(got, want) {
				t.Fatalf("byte %d flipped: %s/0 serves %d bytes, want its record", at, name, len(got))
			}
		}
		if got := served(t, s, "a", 0); !bytes.Equal(got, shards["a"]) {
			t.Fatalf("byte %d flipped: a/0 serves %d bytes, want its previous record", at, len(got))
		}
		if n := reg.Counter("node_recovery_quarantined_total", "").Value(); n != 1 {
			t.Fatalf("byte %d flipped: quarantined %d spans, want 1", at, n)
		}
		for _, raw := range quarantined(t, dir) {
			if !bytes.Equal(raw, damaged[2*rec:3*rec]) {
				t.Fatalf("byte %d flipped: quarantine holds %d bytes, want the damaged record", at, len(raw))
			}
		}
	}
}

// TestSlotInBothLayoutsKeepsNewerGeneration: a crash between a put's
// commit and its retiring the other layout's copy leaves a slot held by
// a file and a record. Recovery keeps the newer generation and retires
// the other.
func TestSlotInBothLayoutsKeepsNewerGeneration(t *testing.T) {
	for _, tc := range []struct {
		name              string
		recGen, fileGen   uint64
		wantFile, wantRec bool
	}{
		{"record newer", 2, 1, false, true},
		{"file newer", 1, 3, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenStore(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			rec, file := packedShard(0, tc.recGen, 'r', 64), packedShard(0, tc.fileGen, 'f', 64)
			mustPut(t, s, "obj", 0, rec)
			s.Close()
			od := objDir(t, dir, "obj")
			if err := os.Mkdir(od, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(shardfile.Path(od, 0), file, 0o644); err != nil {
				t.Fatal(err)
			}
			s, reg := openTwice(t, dir)
			want := rec
			if tc.wantFile {
				want = file
			}
			if got := served(t, s, "obj", 0); !bytes.Equal(got, want) {
				t.Fatalf("obj/0 serves %d bytes, want the generation-%d copy", len(got), max(tc.recGen, tc.fileGen))
			}
			if _, err := os.Stat(shardfile.Path(od, 0)); (err == nil) != tc.wantFile {
				t.Fatalf("file after recovery: %v, want present %v", err, tc.wantFile)
			}
			if s.packedLocked(slotKey{"obj", 0}) != tc.wantRec {
				t.Fatalf("record indexed %v, want %v", !tc.wantRec, tc.wantRec)
			}
			if v := reg.Gauge("node_store_shards", "").Value(); v != 1 {
				t.Fatalf("node_store_shards = %v, want 1", v)
			}
		})
	}
}

// TestTombstonesSurviveCompactionAndRestart: a delete's tombstone keeps
// superseding the record it deleted while that record's segment is
// there: a compaction of the tombstone's segment keeps it, and a
// restart still finds the slot deleted. Once the older segment is gone
// a compaction drops the tombstone, and the slot stays deleted.
func TestTombstonesSurviveCompactionAndRestart(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := OpenStore(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	keep, del, fill := packedShard(0, 1, 'k', 16<<10), packedShard(0, 1, 'd', 4<<10), packedShard(0, 1, 'f', packMaxShard)
	seal := func() { // overwrite fill until the active segment seals
		t.Helper()
		for n := len(s.segs); len(s.segs) == n; {
			mustPut(t, s, "fill", 0, fill)
		}
	}
	mustPut(t, s, "keep", 0, keep)
	mustPut(t, s, "del", 0, del)
	seal()
	// Segment 1 sealed full of dead fill records and was rewritten to
	// keep and del.
	if len(s.segs) != 2 || s.segs[0].size != int64(len(keep)+len(del)+frameSize("keep")+frameSize("del")) {
		t.Fatalf("after sealing: %d segments, the first %d bytes; want keep and del alone in it", len(s.segs), s.segs[0].size)
	}
	if err := s.Delete("del", 0); err != nil {
		t.Fatal(err)
	}
	seal()
	// Segment 2, the tombstone's, was rewritten to the tombstone alone:
	// segment 1 still holds the record it deletes.
	if len(s.segs) != 3 || s.segs[1].size != int64(frameSize("del")) {
		t.Fatalf("after the second seal: %d segments, the second %d bytes; want the tombstone alone in it", len(s.segs), s.segs[1].size)
	}
	s.Close()
	s, _ = openTwice(t, dir)
	if got := served(t, s, "del", 0); got != nil {
		t.Fatal("a deleted slot came back after compaction and restart")
	}
	if got := served(t, s, "keep", 0); !bytes.Equal(got, keep) {
		t.Fatal("keep/0 lost")
	}
	if objs, _ := s.Objects(); !slices.Equal(objs, []string{"fill", "keep"}) {
		t.Fatalf("objects %v, want [fill keep]", objs)
	}

	// Deleting keep leaves segment 1 dead: it goes, segment 2 becomes
	// the oldest, and its tombstone, with no record left to supersede,
	// goes with it.
	if err := s.Delete("keep", 0); err != nil {
		t.Fatal(err)
	}
	if len(s.segs) != 1 || s.segs[0].seq != 3 {
		t.Fatalf("%d segments left, want the active one", len(s.segs))
	}
	if _, ok := s.index[slotKey{"del", 0}]; ok {
		t.Fatal("the dropped tombstone is still indexed")
	}
	s.Close()
	s, _ = openTwice(t, dir)
	for _, name := range []string{"del", "keep"} {
		if got := served(t, s, name, 0); got != nil {
			t.Fatalf("deleted %s/0 came back", name)
		}
	}
}

// TestCompactionBoundsSegments overwrites one 64 KiB object's 16 KiB
// shard 10,000 times: after every put the store's segments hold at most
// the bound segCap states, 2·live + segCap bytes. GETs of other slots
// race the compactions and get their bytes exactly.
func TestCompactionBoundsSegments(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := OpenStore(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	others := map[string][]byte{}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("other-%d", i)
		others[name] = packedShard(0, 1, byte(i), 16<<10)
		mustPut(t, s, name, 0, others[name])
	}
	hot := [2][]byte{packedShard(0, 1, 'x', 16<<10), packedShard(0, 2, 'y', 16<<10)}
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				name := fmt.Sprintf("other-%d", i%8)
				if got := served(t, s, name, 0); !bytes.Equal(got, others[name]) {
					t.Errorf("%s/0 served %d bytes beside a compaction, want its record", name, len(got))
					return
				}
			}
		}()
	}
	compactions := 0
	for i := 0; i < 10_000; i++ {
		before := segGauge(reg, "dead")
		mustPut(t, s, "hot", 0, hot[i%2])
		live, dead := segGauge(reg, "live"), segGauge(reg, "dead")
		if dead < before {
			compactions++
		}
		if live+dead > 2*live+segCap {
			t.Fatalf("put %d: segments hold %v bytes, %v live: over 2·live + segCap", i, live+dead, live)
		}
	}
	done.Store(true)
	wg.Wait()
	if compactions == 0 {
		t.Fatal("10,000 overwrites ran no compaction")
	}
	t.Logf("%d compactions", compactions)
}

// TestGetRacingLayoutMove: a GET that races puts moving its slot back
// and forth between a multi-stripe file and a record serves the old
// shard or the new one, whole, and never finds the slot empty.
func TestGetRacingLayoutMove(t *testing.T) {
	s, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	shards := [2][]byte{
		encodeShards(t, 2, 1, bytes.Repeat([]byte{1}, 20_000))[0], // five stripes: a file
		packedShard(0, 1, 'x', 64),
	}
	mustPut(t, s, "moving", 0, shards[0])
	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				h, f, n, err := s.GetAt("moving", 0, 0, -1)
				if err != nil {
					t.Errorf("GET racing a layout move: %v", err)
					return
				}
				body, err := io.ReadAll(io.LimitReader(f, n))
				f.Close()
				if got := append(h.Marshal(), body...); err != nil || !bytes.Equal(got, shards[0]) && !bytes.Equal(got, shards[1]) {
					t.Errorf("GET racing a layout move served %d bytes (%v), want one of the slot's shards", len(got), err)
					return
				}
			}
		}()
	}
	for i := 1; i <= 2000 && !t.Failed(); i++ {
		mustPut(t, s, "moving", 0, shards[i%2])
	}
	done.Store(true)
	wg.Wait()
}

// TestOverlongObjectNameRefusedInEitherLayout: a name whose directory
// would pass maxDirName is refused before the layout is chosen, so a
// small object cannot take a name its multi-stripe overwrite could not.
func TestOverlongObjectNameRefusedInEitherLayout(t *testing.T) {
	s, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	longest := strings.Repeat("a", maxDirName)
	file := encodeShards(t, 2, 1, bytes.Repeat([]byte{1}, 20_000))[0] // five stripes
	for _, shard := range [][]byte{packedShard(0, 1, 'x', 64), file} {
		mustPut(t, s, longest, 0, shard)
		if err := s.Put(longest+"a", 0, bytes.NewReader(shard)); !errors.Is(err, errBadShard) {
			t.Fatalf("a %d-byte name: %v, want errBadShard", maxDirName+1, err)
		}
	}
}

// FuzzSegmentRecovery damages a segment of whole records (a cut, byte
// flips, appended garbage) and requires of the recovery scan: OpenStore
// never fails, every slot it reports GetAt serves whole (none the
// shardfile judge refuses) and as one of the slot's written records,
// and a second open changes nothing.
func FuzzSegmentRecovery(f *testing.F) {
	written := map[slotKey][][]byte{}
	base := f.TempDir()
	s, err := OpenStore(base, nil)
	if err != nil {
		f.Fatal(err)
	}
	for i, w := range []struct {
		object string
		idx    int
		size   int
	}{{"a", 0, 64}, {"b", 1, 100}, {"a", 0, 32}, {"c", 2, 4}, {"b", 1, 64}, {"d", 0, 1}} {
		shard := packedShard(w.idx, uint64(i+1), byte('a'+i), w.size)
		mustPut(f, s, w.object, w.idx, shard)
		written[slotKey{w.object, w.idx}] = append(written[slotKey{w.object, w.idx}], shard)
	}
	if err := s.Delete("c", 2); err != nil {
		f.Fatal(err)
	}
	s.Close()
	seg, err := os.ReadFile(filepath.Join(base, segmentDir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(int64(-1), []byte(nil), []byte(nil))
	f.Add(int64(len(seg)-5), []byte(nil), []byte(nil))
	f.Add(int64(-1), []byte{30, 0, 0x40}, []byte(nil))
	f.Add(int64(-1), []byte{200, 0, 1, 10, 1, 0xff}, []byte("garbage"))
	f.Add(int64(100), []byte(nil), seg[:50])
	f.Fuzz(func(t *testing.T, cut int64, flips, garbage []byte) {
		raw := slices.Clone(seg)
		if cut >= 0 {
			raw = raw[:cut%int64(len(raw)+1)]
		}
		for i := 0; i+3 <= len(flips) && len(raw) > 0; i += 3 {
			raw[int(binary.LittleEndian.Uint16(flips[i:]))%len(raw)] ^= flips[i+2]
		}
		raw = append(raw, garbage...)
		dir := filepath.Join(t.TempDir(), "store")
		writeSegment(t, dir, raw)
		s, _ := openTwice(t, dir)
		objs, err := s.Objects()
		if err != nil {
			t.Fatal(err)
		}
		for _, object := range objs {
			for idx := 0; idx < 6; idx++ {
				got := served(t, s, object, idx) // fails on ErrDamaged
				if got != nil && !slices.ContainsFunc(written[slotKey{object, idx}], func(w []byte) bool {
					return bytes.Equal(w[:shardfile.HeaderSizeV4], got[:min(len(got), shardfile.HeaderSizeV4)]) && len(w) == len(got)
				}) {
					t.Fatalf("%s/%d serves a shard no put wrote", object, idx)
				}
			}
		}
	})
}

// BenchmarkStorePut times Store.Put of one shard: a 64 KiB object's 16
// KiB shard, a record, and an 8 MiB object's 2 MiB shard (eight 256 KiB
// blocks), a file; each into a fresh slot and over the slot's previous
// shard.
func BenchmarkStorePut(b *testing.B) {
	for _, size := range []struct {
		name             string
		shardSize, count int
	}{{"16KiB", 16 << 10, 1}, {"2MiB", 256 << 10, 8}} {
		payload := bytes.Repeat([]byte{7}, size.shardSize)
		h := shardfile.Header{Version: shardfile.VersionV4, K: 4, M: 2, ShardSize: uint32(size.shardSize),
			StripeCount: uint64(size.count), FileSize: uint64(4 * size.shardSize * size.count), Algo: shardfile.AlgoCRC32C, Generation: 1}
		shard := h.Marshal()
		for i := 0; i < size.count; i++ {
			shard = binary.LittleEndian.AppendUint32(append(shard, payload...), gf.CRC32C(payload))
		}
		for _, mode := range []string{"fresh", "overwrite"} {
			b.Run(size.name+"/"+mode, func(b *testing.B) {
				s, err := OpenStore(b.TempDir(), nil)
				if err != nil {
					b.Fatal(err)
				}
				body := bytes.NewReader(shard)
				b.SetBytes(int64(len(shard)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					object := "obj"
					if mode == "fresh" {
						object = fmt.Sprintf("obj-%d", i)
					}
					body.Reset(shard)
					if err := s.Put(object, 0, body); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
