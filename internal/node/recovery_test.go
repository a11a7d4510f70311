package node

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dialga/internal/obs"
)

// seedStore fills dir with a store holding the given shards of one
// object, then lets the caller damage them before "restarting" the
// node by re-opening the store.
func seedStore(t *testing.T, dir, object string, shards [][]byte) *Store {
	t.Helper()
	s, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range shards {
		if err := s.Put(object, i, bytes.NewReader(b)); err != nil {
			t.Fatalf("seed put shard %d: %v", i, err)
		}
	}
	return s
}

// slotAt says where the bytes of slot idx of object lie, in whichever
// layout holds them: the file, and the shard's offset and length in it.
func slotAt(t *testing.T, s *Store, object string, idx int) (path string, off, n int64) {
	t.Helper()
	f, at, size, err := s.locate(object, idx)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if size < 0 {
		fi, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		size = fi.Size()
	}
	return f.Name(), at, size
}

// slotBytes reads the stored bytes of slot idx of object.
func slotBytes(t *testing.T, s *Store, object string, idx int) []byte {
	t.Helper()
	path, off, n := slotAt(t, s, object, idx)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, n)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	return b
}

// tearSlot cuts slot idx of object short, keep bytes into its shard, as
// a torn write leaves it: a file is truncated, and a record, which must
// be the last of its segment, takes the segment's tail with it.
func tearSlot(t *testing.T, s *Store, object string, idx int, keep int64) {
	t.Helper()
	path, off, n := slotAt(t, s, object, idx)
	if fi, err := os.Stat(path); err != nil || fi.Size() != off+n {
		t.Fatalf("slot %s/%d is not the last bytes of %s (%v): a crash cannot tear it", object, idx, path, err)
	}
	if err := os.Truncate(path, off+keep); err != nil {
		t.Fatal(err)
	}
}

func objDir(t *testing.T, dir, object string) string {
	t.Helper()
	s := &Store{dir: dir}
	d, err := s.objectDir(object)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestStoreRestartRecovery(t *testing.T) {
	const object = "recover-me"
	cases := []struct {
		name            string
		damage          func(t *testing.T, od string, shards [][]byte)
		wantTmpRemoved  int
		wantQuarantined int
		wantShards      int // shard files surviving for the object
	}{
		{
			name: "clean store untouched",
			damage: func(t *testing.T, od string, shards [][]byte) {
			},
			wantShards: 5,
		},
		{
			// A crash between the temp write and the rename leaves an
			// orphaned .put-*.tmp holding a prefix of the upload.
			name: "orphaned tmp from crashed put",
			damage: func(t *testing.T, od string, shards [][]byte) {
				tmp := filepath.Join(od, ".put-2-99.tmp")
				if err := os.WriteFile(tmp, shards[2][:len(shards[2])/2], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantTmpRemoved: 1,
			wantShards:     5,
		},
		{
			// The filesystem dropped tail pages on power loss: the
			// header is intact but the file is short.
			name: "truncated shard tail",
			damage: func(t *testing.T, od string, shards [][]byte) {
				path := filepath.Join(od, "shard.001")
				if err := os.Truncate(path, int64(len(shards[1])-7)); err != nil {
					t.Fatal(err)
				}
			},
			wantQuarantined: 1,
			wantShards:      4,
		},
		{
			// Bit rot inside the 44 header bytes the self-CRC covers.
			name: "corrupted header",
			damage: func(t *testing.T, od string, shards [][]byte) {
				path := filepath.Join(od, "shard.003")
				b := append([]byte(nil), shards[3]...)
				b[10] ^= 0x40
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantQuarantined: 1,
			wantShards:      4,
		},
		{
			// A whole, valid shard file under another slot's name (a
			// misdirected copy or rename) is not that slot's shard.
			name: "shard in another slot's name",
			damage: func(t *testing.T, od string, shards [][]byte) {
				if err := os.WriteFile(filepath.Join(od, "shard.001"), shards[4], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantQuarantined: 1,
			wantShards:      4,
		},
		{
			// Garbage appended past the promised file size is just as
			// untrustworthy as a missing tail.
			name: "overlong shard file",
			damage: func(t *testing.T, od string, shards [][]byte) {
				path := filepath.Join(od, "shard.000")
				f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				f.Write([]byte("junk"))
				f.Close()
			},
			wantQuarantined: 1,
			wantShards:      4,
		},
		{
			name: "compound crash damage",
			damage: func(t *testing.T, od string, shards [][]byte) {
				if err := os.WriteFile(filepath.Join(od, ".put-0-1.tmp"), []byte("x"), 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(od, ".put-4-2.tmp"), nil, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(filepath.Join(od, "shard.002"), 20); err != nil {
					t.Fatal(err)
				}
			},
			wantTmpRemoved:  2,
			wantQuarantined: 1,
			wantShards:      4,
		},
	}

	shards := encodeShards(t, 3, 2, bytes.Repeat([]byte("crash consistency "), 800))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			seedStore(t, dir, object, shards)
			od := objDir(t, dir, object)
			tc.damage(t, od, shards)

			reg := obs.NewRegistry()
			s, err := OpenStore(dir, reg)
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			if got := int(reg.Counter("node_recovery_tmp_removed_total", "").Value()); got != tc.wantTmpRemoved {
				t.Errorf("tmp removed = %d, want %d", got, tc.wantTmpRemoved)
			}
			if got := int(reg.Counter("node_recovery_quarantined_total", "").Value()); got != tc.wantQuarantined {
				t.Errorf("quarantined = %d, want %d", got, tc.wantQuarantined)
			}
			if got := int(reg.Gauge("node_store_shards", "").Value()); got != tc.wantShards {
				t.Errorf("node_store_shards = %d, want %d", got, tc.wantShards)
			}
			// No crash litter survives in the object dir, and every
			// remaining shard is fully readable.
			files, err := os.ReadDir(od)
			if err != nil {
				t.Fatal(err)
			}
			live := 0
			for _, f := range files {
				if strings.HasSuffix(f.Name(), ".tmp") {
					t.Errorf("tmp file %s survived recovery", f.Name())
				}
				if strings.HasPrefix(f.Name(), "shard.") {
					live++
					idx := int(f.Name()[len(f.Name())-1] - '0')
					h, r, _, err := s.GetAt(object, idx, 0, -1)
					if err != nil {
						t.Errorf("surviving shard %d unreadable: %v", idx, err)
						continue
					}
					r.Close()
					if int(h.Index) != idx {
						t.Errorf("shard %d header index = %d", idx, h.Index)
					}
				}
			}
			if live != tc.wantShards {
				t.Errorf("object dir holds %d shards, want %d", live, tc.wantShards)
			}
			// Quarantined files are preserved, not deleted, and stay
			// invisible to the object listing.
			qfiles, _ := os.ReadDir(filepath.Join(dir, quarantineDir))
			if len(qfiles) != tc.wantQuarantined {
				t.Errorf("quarantine holds %d files, want %d", len(qfiles), tc.wantQuarantined)
			}
			objs, err := s.Objects()
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range objs {
				if o != object {
					t.Errorf("unexpected object %q listed after recovery", o)
				}
			}
		})
	}
}

// layouts are payloads whose RS(2,1) shards, over encodeShards' 4 KiB
// stripes, take each of the store's layouts: six stripes stay a file in
// the object's directory, and one stripe packs into a record.
var layouts = []struct {
	name    string
	payload []byte
}{
	{"file", bytes.Repeat([]byte("multi-stripe "), 1600)},
	{"packed", []byte("tiny")},
}

// TestRecoveryRemovesEmptiedObjectDir: a torn slot that was its
// object's only shard leaves no object behind. In the file layout the
// quarantine empties the object's directory, which recovery removes; a
// record never had one.
func TestRecoveryRemovesEmptiedObjectDir(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			dir := t.TempDir()
			shards := encodeShards(t, 2, 1, l.payload)
			tearSlot(t, seedStore(t, dir, "only", shards[:1]), "only", 0, 10)
			od := objDir(t, dir, "only")
			if _, err := os.Stat(od); (err == nil) != (l.name == "file") {
				t.Fatalf("before recovery, stat of the object directory: %v", err)
			}
			s, err := OpenStore(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(od); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("object directory after quarantining the only shard: %v", err)
			}
			objs, err := s.Objects()
			if err != nil {
				t.Fatal(err)
			}
			if len(objs) != 0 {
				t.Fatalf("objects after quarantining the only shard: %v", objs)
			}
		})
	}
}

// TestRecoveryWalksOnlyObjectDirs: a directory whose name does not
// percent-decode is foreign. Objects does not list it, so the recovery
// scan leaves it alone, torn shard file and all, and the shard gauge
// counts only the store's own shards.
func TestRecoveryWalksOnlyObjectDirs(t *testing.T) {
	dir := t.TempDir()
	shards := encodeShards(t, 2, 1, []byte("ours"))
	seedStore(t, dir, "ours", shards)
	foreign := filepath.Join(dir, "%zz")
	if err := os.Mkdir(foreign, 0o755); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(foreign, "shard.000")
	if err := os.WriteFile(torn, shards[0][:10], 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s, err := OpenStore(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	if objs, err := s.Objects(); err != nil || len(objs) != 1 || objs[0] != "ours" {
		t.Fatalf("objects = %v, %v; want [ours]", objs, err)
	}
	if _, err := os.Stat(torn); err != nil {
		t.Fatalf("recovery touched a foreign directory: %v", err)
	}
	if got := reg.Counter("node_recovery_quarantined_total", "").Value(); got != 0 {
		t.Fatalf("quarantined %d files, want 0", got)
	}
	if got := int(reg.Gauge("node_store_shards", "").Value()); got != len(shards) {
		t.Fatalf("node_store_shards = %d, want %d", got, len(shards))
	}
}

// TestQuarantineNameCollisions: the same slot torn three times, in
// either layout, leaves three quarantined copies, not one.
func TestQuarantineNameCollisions(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			dir := t.TempDir()
			shards := encodeShards(t, 2, 1, l.payload)
			for round := 0; round < 3; round++ {
				tearSlot(t, seedStore(t, dir, "dup", shards[:1]), "dup", 0, 10)
				if _, err := OpenStore(dir, nil); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			qfiles, err := os.ReadDir(filepath.Join(dir, quarantineDir))
			if err != nil {
				t.Fatal(err)
			}
			if len(qfiles) != 3 {
				t.Fatalf("quarantine holds %d files after 3 rounds, want 3", len(qfiles))
			}
		})
	}
}

func TestDotObjectNamesRejected(t *testing.T) {
	s, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{".", "..", ".quarantine", ".hidden"} {
		if err := s.Put(name, 0, bytes.NewReader(nil)); err == nil {
			t.Errorf("Put(%q) accepted a dot-prefixed object name", name)
		}
	}
}
