package node

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dialga/internal/gf"
	"dialga/internal/obs"
	"dialga/internal/rs"
	"dialga/internal/shardfile"
	"dialga/internal/stream"
)

// encodeShards builds k+m exact shardfile byte blobs for a payload.
func encodeShards(t *testing.T, k, m int, payload []byte) [][]byte {
	t.Helper()
	code, err := rs.New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := stream.NewEncoder(stream.Options{
		Codec: code, StripeSize: 4 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	stripes := (uint64(len(payload)) + uint64(enc.StripeSize()) - 1) / uint64(enc.StripeSize())
	bufs := make([]bytes.Buffer, k+m)
	writers := make([]io.Writer, k+m)
	for i := range bufs {
		h := shardfile.Header{
			Version: shardfile.VersionV3,
			K:       uint32(k), M: uint32(m), Index: uint32(i),
			ShardSize: uint32(enc.ShardSize()), StripeCount: stripes,
			FileSize: uint64(len(payload)), Algo: shardfile.AlgoCRC32C,
		}
		bufs[i].Write(h.Marshal())
		writers[i] = &bufs[i]
	}
	if err := enc.Encode(context.Background(), bytes.NewReader(payload), writers); err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, k+m)
	for i := range bufs {
		out[i] = bufs[i].Bytes()
	}
	return out
}

func testPayload(n int) []byte {
	buf := make([]byte, n)
	st := uint64(7)
	for i := range buf {
		st = st*6364136223846793005 + 1442695040888963407
		buf[i] = byte(st >> 56)
	}
	return buf
}

func TestStoreRoundTrip(t *testing.T) {
	store, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	shards := encodeShards(t, 2, 1, testPayload(10_000))
	for i, b := range shards {
		if err := store.Put("obj", i, bytes.NewReader(b)); err != nil {
			t.Fatalf("put shard %d: %v", i, err)
		}
	}
	for i, want := range shards {
		h, body, n, err := store.GetAt("obj", i, 0, -1)
		if err != nil {
			t.Fatalf("get shard %d: %v", i, err)
		}
		got, err := io.ReadAll(io.LimitReader(body, n))
		body.Close()
		if err != nil {
			t.Fatal(err)
		}
		full := append(h.Marshal(), got...)
		if !bytes.Equal(full, want) {
			t.Fatalf("shard %d: stored bytes differ (got %d, want %d)", i, len(full), len(want))
		}
		if sh, err := store.Scrub("obj", i); err != nil || sh != h {
			t.Fatalf("scrub shard %d: %+v, %v; want its header", i, sh, err)
		}
	}
	names, err := store.Objects()
	if err != nil || len(names) != 1 || names[0] != "obj" {
		t.Fatalf("objects = %v, %v", names, err)
	}
	// A whole shard file of another slot is refused at open: the header
	// must name the slot asked for.
	dir := filepath.Join(store.dir, "obj")
	if err := os.WriteFile(shardfile.Path(dir, 2), shards[1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, f, _, err := store.GetAt("obj", 2, 0, -1); err == nil || errors.Is(err, ErrNotFound) || !strings.Contains(err.Error(), "header says index 1") {
		if f != nil {
			f.Close()
		}
		t.Fatalf("get of shard 1's file in slot 2: %v, want refused naming index 1", err)
	}
	if err := store.Delete("obj", 0); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := store.GetAt("obj", 0, 0, -1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get deleted shard: %v, want ErrNotFound", err)
	}
	// Deleting again is idempotent.
	if err := store.Delete("obj", 0); err != nil {
		t.Fatalf("re-delete: %v", err)
	}
}

// TestStorePutCountsASlotOnce: concurrent first puts of one slot
// raise node_store_shards by one, however their commits interleave.
func TestStorePutCountsASlotOnce(t *testing.T) {
	reg := obs.NewRegistry()
	store, err := OpenStore(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	shard := encodeShards(t, 2, 1, testPayload(5_000))[0]
	gauge := reg.Gauge("node_store_shards", "")
	for round := 0; round < 200; round++ {
		object := fmt.Sprintf("race-%d", round)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := store.Put(object, 0, bytes.NewReader(shard)); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if got := gauge.Value(); got != float64(round+1) {
			t.Fatalf("round %d: node_store_shards = %v after four first puts of one slot, want %d", round, got, round+1)
		}
	}
}

func TestStoreRejectsBadUploads(t *testing.T) {
	reg := obs.NewRegistry()
	store, err := OpenStore(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	rejected := reg.Counter("node_store_rejected_total", "")
	shards := encodeShards(t, 2, 1, testPayload(20_000)) // five 2052-byte blocks a shard
	h, err := shardfile.Parse(bytes.NewReader(shards[0]))
	if err != nil {
		t.Fatal(err)
	}
	mustReject := func(what, object string, idx int, body []byte) {
		t.Helper()
		before := rejected.Value()
		if err := store.Put(object, idx, bytes.NewReader(body)); !errors.Is(err, errBadShard) {
			t.Fatalf("%s: %v, want errBadShard", what, err)
		}
		if got := rejected.Value() - before; got != 1 {
			t.Fatalf("%s: node_store_rejected_total moved by %d, want 1", what, got)
		}
	}

	// Index mismatch: shard 1's header uploaded to slot 0.
	mustReject("index-mismatch put", "obj", 0, shards[1])
	// Truncated body, and one that runs past its header's word.
	mustReject("truncated put", "obj", 0, shards[0][:len(shards[0])-10])
	mustReject("overlong put", "obj", 0, append(append([]byte(nil), shards[0]...), 0))
	// Corrupt header (self-CRC fails).
	bad := append([]byte(nil), shards[0]...)
	bad[8] ^= 0xff
	mustReject("bad-header put", "obj", 0, bad)
	// One payload byte flipped in block 2: every length is right, only
	// the block's trailer can tell.
	bad = append([]byte(nil), shards[0]...)
	bad[shardfile.HeaderSizeV3+2*h.BlockSize()+100] ^= 0x04
	mustReject("flipped-byte put", "obj", 0, bad)
	// The same on the smallest shard the gateway writes, one 4 KiB block.
	small := oneBlockShard(4<<10, 0)
	mustReject("truncated one-block put", "obj", 0, small[:len(small)-1])
	mustReject("overlong one-block put", "obj", 0, append(append([]byte(nil), small...), 0))
	small[48+4095] ^= 0x80
	mustReject("flipped-byte one-block put", "obj", 0, small)
	// The retired trailer-less framings, each well-formed by its own
	// rules: a v2 header (40 bytes, version 2) and a v3 header naming no
	// checksum, over bare blocks that nothing could verify.
	v2 := append(h.Marshal()[:40], bareBlocks(h, shards[0])...)
	binary.LittleEndian.PutUint32(v2[4:], 2)
	mustReject("v2 put", "obj", 0, v2)
	noSum := h
	noSum.Algo = 0
	mustReject("v3 no-checksum put", "obj", 0, append(noSum.Marshal(), bareBlocks(h, shards[0])...))
	// Unusable object names ("../escape" is fine — it percent-encodes
	// to a safe directory name — but "." and "" cannot).
	mustReject("dot put", ".", 0, shards[0])
	mustReject("empty-name put", "", 0, shards[0])

	// A header is a stranger's word: one claiming a 4 GiB block over a
	// body that has a few KiB must be refused for the short body it is,
	// not trusted with an allocation.
	huge := h
	huge.ShardSize = 1<<32 - 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mustReject("4 GiB ShardSize put", "obj", 0, append(huge.Marshal(), shards[0][shardfile.HeaderSizeV3:]...))
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*putBufSize {
		t.Fatalf("a header claiming a 4 GiB block made the store allocate %d bytes", grew)
	}

	// Nothing got persisted: no object, no directory, no temp file.
	names, err := store.Objects()
	if err != nil || len(names) != 0 {
		t.Fatalf("objects after rejected puts = %v, %v", names, err)
	}
	if entries, err := os.ReadDir(store.dir); err != nil || len(entries) != 0 {
		t.Fatalf("store directory after rejected puts holds %v, %v", entries, err)
	}

	// Over HTTP a block that fails its trailer is a 422, and a rejected
	// overwrite leaves the committed shard as it was.
	ts := httptest.NewServer(NewServer(store, nil, reg).Handler())
	defer ts.Close()
	cli := NewClient(ts.URL)
	ctx := context.Background()
	if err := cli.PutShard(ctx, "obj", 0, bytes.NewReader(shards[0])); err != nil {
		t.Fatal(err)
	}
	var se *StatusError
	if err := cli.PutShard(ctx, "obj", 0, bytes.NewReader(bad)); !errors.As(err, &se) || se.Code != http.StatusUnprocessableEntity {
		t.Fatalf("flipped-byte upload: %v, want a 422", err)
	}
	if err := cli.PutShard(ctx, "obj", 0, bytes.NewReader(v2)); !errors.As(err, &se) || se.Code != http.StatusUnprocessableEntity {
		t.Fatalf("v2 upload: %v, want a 422", err)
	}
	if _, err := store.Scrub("obj", 0); err != nil {
		t.Fatalf("committed shard after a rejected overwrite: %v", err)
	}
	if v := reg.Gauge("node_store_shards", "").Value(); v != 1 {
		t.Fatalf("node_store_shards = %v after one commit and one rejected overwrite, want 1", v)
	}
	entries, err := os.ReadDir(filepath.Join(store.dir, "obj"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("object directory holds %v, %v: want the one shard and no temp file", entries, err)
	}
}

// TestStorePutStageSeconds: node_store_put_seconds takes one receive
// and one commit sample per committed upload, and an upload rejected
// for a bad block takes no commit sample; /metrics shows both stages.
func TestStorePutStageSeconds(t *testing.T) {
	reg := obs.NewRegistry()
	store, err := OpenStore(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	count := func(stage string) uint64 {
		_, _, n := reg.Histogram("node_store_put_seconds", "", nil, obs.Label{Key: "stage", Value: stage}).Snapshot()
		return n
	}
	file := oneBlockShard(4<<10, 0)
	if err := store.Put("obj", 0, bytes.NewReader(file)); err != nil {
		t.Fatal(err)
	}
	if r, c := count("receive"), count("commit"); r != 1 || c != 1 {
		t.Fatalf("after a good put: receive %d, commit %d samples, want 1 and 1", r, c)
	}
	file[shardfile.HeaderSizeV3+100] ^= 0x04
	if err := store.Put("obj", 0, bytes.NewReader(file)); !errors.Is(err, errBadShard) {
		t.Fatalf("bad-CRC put: %v, want errBadShard", err)
	}
	if c := count("commit"); c != 1 {
		t.Fatalf("a bad-CRC put observed a commit sample: %d, want 1", c)
	}
	var out bytes.Buffer
	if err := reg.Expose(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`node_store_put_seconds_count{stage="receive"} 1`,
		`node_store_put_seconds_count{stage="commit"} 1`,
	} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Fatalf("/metrics lacks %q:\n%s", want, out.String())
		}
	}
}

// TestStorePutStartsWritebackOnOverwrite: an upload into a slot that
// holds a file hands writeback every byte of its temp file, header
// first, block by block, in order and with no gap; a slot's first
// upload, and one into a slot emptied by a delete, hands it none. An
// error from writeback fails the upload like a failed write, leaving no
// temp file and the previous shard as it was, except one saying the
// file system cannot, after which the upload goes on without.
func TestStorePutStartsWritebackOnOverwrite(t *testing.T) {
	type span struct{ off, n int64 }
	var calls []span
	fail := func(int) error { return nil } // the error for the i-th call
	writeback = func(_ *os.File, off, n int64) error {
		calls = append(calls, span{off, n})
		return fail(len(calls) - 1)
	}
	t.Cleanup(func() { writeback = startWriteback })

	store, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	first := encodeShards(t, 2, 1, testPayload(10_000))[0]
	if err := store.Put("obj", 0, bytes.NewReader(first)); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 0 {
		t.Fatalf("a slot's first upload started writeback: %v", calls)
	}

	second := encodeShards(t, 2, 1, testPayload(12_000))[0]
	h, err := shardfile.Parse(bytes.NewReader(second))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("obj", 0, bytes.NewReader(second)); err != nil {
		t.Fatal(err)
	}
	var end int64
	for _, c := range calls {
		if c.off != end || c.n <= 0 {
			t.Fatalf("writeback calls %v: want [0, %d) in order with no gap", calls, h.ExpectedFileSize())
		}
		end += c.n
	}
	if end != h.ExpectedFileSize() || uint64(len(calls)) != h.StripeCount {
		t.Fatalf("writeback calls %v: want [0, %d) in one call per block, %d blocks",
			calls, h.ExpectedFileSize(), h.StripeCount)
	}

	stored := func() []byte {
		t.Helper()
		entries, err := os.ReadDir(filepath.Join(store.dir, "obj"))
		if err != nil || len(entries) != 1 {
			t.Fatalf("object directory holds %v, %v: want the one shard and no temp file", entries, err)
		}
		raw, err := os.ReadFile(shardfile.Path(filepath.Join(store.dir, "obj"), 0))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	calls = nil
	fail = func(i int) error {
		if i == 1 {
			return os.NewSyscallError("sync_file_range", syscall.EIO)
		}
		return nil
	}
	third := encodeShards(t, 2, 1, testPayload(11_000))[0]
	if err := store.Put("obj", 0, bytes.NewReader(third)); !errors.Is(err, syscall.EIO) || errors.Is(err, errBadShard) {
		t.Fatalf("upload whose writeback fails with EIO: %v, want that error", err)
	}
	if raw := stored(); !bytes.Equal(raw, second) {
		t.Fatal("a failed upload changed the shard it was to replace")
	}

	calls = nil
	fail = func(int) error { return os.NewSyscallError("sync_file_range", syscall.ENOSYS) }
	if err := store.Put("obj", 0, bytes.NewReader(third)); err != nil {
		t.Fatalf("upload on a file system without writeback: %v", err)
	}
	if len(calls) != 1 || !bytes.Equal(stored(), third) {
		t.Fatalf("after ENOSYS: %d writeback calls, want 1 and the upload committed", len(calls))
	}

	if err := store.Delete("obj", 0); err != nil {
		t.Fatal(err)
	}
	calls = nil
	if err := store.Put("obj", 0, bytes.NewReader(first)); err != nil || len(calls) != 0 {
		t.Fatalf("upload into a deleted slot: %v, writeback calls %v; want none", err, calls)
	}
}

// bareBlocks is a shard file's blocks without their trailers: what the
// retired trailer-less framings carried.
func bareBlocks(h shardfile.Header, file []byte) []byte {
	var out []byte
	for s := int64(0); s < int64(h.StripeCount); s++ {
		off := shardfile.HeaderSizeV3 + s*h.BlockSize()
		out = append(out, file[off:off+int64(h.ShardSize)]...)
	}
	return out
}

// TestStorePutLargeBlocks: a block larger than the receive buffer goes
// through it in pieces under one running CRC, and is checked like any
// other.
func TestStorePutLargeBlocks(t *testing.T) {
	store, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := testPayload(2*putBufSize + 12_345)
	h := shardfile.Header{
		Version: shardfile.VersionV3, K: 1, M: 1, ShardSize: uint32(len(payload)),
		StripeCount: 2, FileSize: 2 * uint64(len(payload)), Algo: shardfile.AlgoCRC32C,
	}
	file := h.Marshal()
	for i := 0; i < 2; i++ {
		file = append(file, payload...)
		file = binary.LittleEndian.AppendUint32(file, gf.CRC32C(payload))
	}
	if err := store.Put("big", 0, bytes.NewReader(file)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Scrub("big", 0); err != nil {
		t.Fatalf("scrub: %v", err)
	}
	file[len(file)-5000] ^= 1 // deep in the second block, past a piece boundary
	if err := store.Put("big", 0, bytes.NewReader(file)); !errors.Is(err, errBadShard) {
		t.Fatalf("flipped byte in a multi-piece block: %v, want errBadShard", err)
	}
}

// oneBlockShard is shard idx's file for an object that fits one stripe
// of shardSize-byte shards: header, one block, its trailer.
func oneBlockShard(shardSize, idx int) []byte {
	payload := testPayload(shardSize)
	h := shardfile.Header{
		Version: shardfile.VersionV3, K: 4, M: 2, Index: uint32(idx), ShardSize: uint32(shardSize),
		StripeCount: 1, FileSize: uint64(shardSize), Algo: shardfile.AlgoCRC32C,
	}
	return binary.LittleEndian.AppendUint32(append(h.Marshal(), payload...), gf.CRC32C(payload))
}

// TestStorePutSmallBlocks: a small object's shard — one block of 4 KiB,
// the smallest the gateway writes — is stored and checked like any
// other, and an upload of small blocks is received through a buffer of
// one block, not putBufSize: a 64 KiB object's 16 KiB shard costs
// Store.Put under 64 KiB of allocation where it used to cost 320.
func TestStorePutSmallBlocks(t *testing.T) {
	store, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	file := oneBlockShard(4<<10, 0)
	if err := store.Put("small", 0, bytes.NewReader(file)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Scrub("small", 0); err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if raw, err := os.ReadFile(shardfile.Path(filepath.Join(store.dir, "small"), 0)); err != nil || !bytes.Equal(raw, file) {
		t.Fatalf("stored file differs from the upload: %d bytes, %v", len(raw), err)
	}

	// Six first shards of one new object at once: each finds no object
	// directory, one mkdir wins, and nobody minds having lost.
	errs := make(chan error, 6)
	for idx := 0; idx < 6; idx++ {
		go func() { errs <- store.Put("raced", idx, bytes.NewReader(oneBlockShard(4<<10, idx))) }()
	}
	for idx := 0; idx < 6; idx++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent first shards of one object: %v", err)
		}
	}

	file = oneBlockShard(16<<10, 0)
	body := bytes.NewReader(file)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		body.Reset(file)
		if err := store.Put("sixteen", 0, body); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 64<<10 {
		t.Fatalf("a 16 KiB-block upload allocates %d bytes in Store.Put, want under 64 KiB", per)
	} else {
		t.Logf("a 16 KiB-block upload allocates %d bytes in Store.Put", per)
	}
}

// denyAll is an Admitter that rejects every request.
type denyAll struct{}

func (denyAll) Admit(context.Context, string) error {
	return errors.New("bucket empty")
}

func (denyAll) Served(time.Duration, bool) {}

func TestServerHTTPRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	store, err := OpenStore(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(store, nil, reg).Handler())
	defer ts.Close()
	cli := NewClient(ts.URL)
	ctx := context.Background()

	shards := encodeShards(t, 2, 1, testPayload(20_000))
	for i, b := range shards {
		if err := cli.PutShard(ctx, "http-obj", i, bytes.NewReader(b)); err != nil {
			t.Fatalf("put shard %d: %v", i, err)
		}
	}
	h, body, err := cli.OpenShard(ctx, "http-obj", 1, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := io.ReadAll(body)
	body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := append(h.Marshal(), blocks...); !bytes.Equal(got, shards[1]) {
		t.Fatalf("fetched shard differs: %d vs %d bytes", len(got), len(shards[1]))
	}
	st, err := cli.StatShard(ctx, "http-obj", 2)
	if err != nil || st.Index != 2 || st.K != 2 || st.M != 1 {
		t.Fatalf("stat = %+v, %v", st, err)
	}
	sc, err := cli.ScrubShard(ctx, "http-obj", 0)
	if err != nil || sc.Index != 0 || sc.K != 2 || sc.M != 1 {
		t.Fatalf("scrub = %+v, %v", sc, err)
	}
	names, err := cli.Objects(ctx)
	if err != nil || len(names) != 1 || names[0] != "http-obj" {
		t.Fatalf("objects = %v, %v", names, err)
	}
	if _, _, err := cli.OpenShard(ctx, "nope", 0, 0, -1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing shard: %v, want ErrNotFound", err)
	}
	if err := cli.DeleteShard(ctx, "http-obj", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.StatShard(ctx, "http-obj", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stat deleted: %v, want ErrNotFound", err)
	}
}

// sourceRecorder is a ResponseWriter whose ReadFrom notes the dynamic
// type of what it was handed: what net/http's own writer would pass on
// to the TCP connection, whose sendfile(2) takes only an *os.File or an
// *io.LimitedReader over one.
type sourceRecorder struct {
	*httptest.ResponseRecorder
	src string
}

func (r *sourceRecorder) ReadFrom(src io.Reader) (int64, error) {
	r.src = fmt.Sprintf("%T", src)
	if lr, ok := src.(*io.LimitedReader); ok {
		r.src += fmt.Sprintf(" over %T", lr.R)
	}
	return io.Copy(r.ResponseRecorder, src)
}

// TestShardGetHandsOverFile: a shard GET, whole or a block window,
// hands the response writer a LimitedReader straight over the stored
// file, so the socket can sendfile it; any other wrapper between them
// costs a copy of every byte through user space.
func TestShardGetHandsOverFile(t *testing.T) {
	store, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	shards := encodeShards(t, 2, 1, testPayload(20_000))
	if err := store.Put("obj", 0, bytes.NewReader(shards[0])); err != nil {
		t.Fatal(err)
	}
	h, err := shardfile.Parse(bytes.NewReader(shards[0]))
	if err != nil {
		t.Fatal(err)
	}
	handler := NewServer(store, nil, nil).Handler()
	for _, tc := range []struct {
		query string
		want  string
		body  []byte
	}{
		{"", "*io.LimitedReader over *os.File", shards[0]},
		{"?off=0&len=1", "*io.LimitedReader over *os.File",
			shards[0][:shardfile.HeaderSizeV3+h.BlockSize()]},
	} {
		rec := &sourceRecorder{ResponseRecorder: httptest.NewRecorder()}
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/shard/obj/0"+tc.query, nil))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), tc.body) {
			t.Fatalf("GET%s: status %d, %d bytes, want 200 and the %d stored bytes",
				tc.query, rec.Code, rec.Body.Len(), len(tc.body))
		}
		if rec.src != tc.want {
			t.Errorf("GET%s handed the writer %q, want %q", tc.query, rec.src, tc.want)
		}
	}
}

// TestShardGetBlockWindows pins a shard GET's window wire: the
// re-marshalled header, then exactly the blocks that carry the asked-for
// object bytes, cut from the shard's own header, under a Content-Length
// that says so; the header alone for a range the object cannot satisfy;
// 400 for a malformed window; and never a complete response from a
// stored file that lost its tail.
func TestShardGetBlockWindows(t *testing.T) {
	store, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(store, nil, nil).Handler())
	defer ts.Close()
	shards := encodeShards(t, 2, 1, testPayload(20_000)) // five 2052-byte blocks a shard
	if err := store.Put("obj", 1, bytes.NewReader(shards[1])); err != nil {
		t.Fatal(err)
	}
	path := shardfile.Path(filepath.Join(store.dir, "obj"), 1)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := shardfile.Parse(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if h.StripeCount != 5 || h.ShardSize != 2048 {
		t.Fatalf("shard has %d blocks of %d bytes, the cases below want 5 of 2048", h.StripeCount, h.ShardSize)
	}
	bs := h.BlockSize()
	get := func(query string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/shard/obj/1" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET%s: reading the body: %v", query, err)
		}
		return resp, body
	}
	// A stripe is k=2 blocks of 2048 bytes: block i carries the object
	// bytes [4096·i, 4096·(i+1)), and the object ends at 20,000.
	for _, tc := range []struct {
		query      string
		first, end int64 // the blocks [first, end) the body carries
	}{
		{"", 0, 5},
		{"?off=0&len=-1", 0, 5},
		{"?off=8192&len=-1", 2, 5},
		{"?off=4096&len=8192", 1, 3},
		{"?off=4100&len=4093", 1, 3}, // straddles a block edge by one byte
		{"?off=16384&len=1", 4, 5},
		{"?off=12288&len=100000", 3, 5}, // clamped to the end of the object
		{"?off=-100", 4, 5},             // the last 100 bytes
		{"?len=1", 0, 1},
		{"?off=20000&len=1", 0, 0}, // past the end: the header alone
		{"?off=0&len=0", 0, 0},     // zero bytes: the header alone
	} {
		resp, body := get(tc.query)
		want := append(file[:shardfile.HeaderSizeV3:shardfile.HeaderSizeV3],
			file[shardfile.HeaderSizeV3+tc.first*bs:shardfile.HeaderSizeV3+tc.end*bs]...)
		if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(want)) || !bytes.Equal(body, want) {
			t.Fatalf("GET%s: status %d, Content-Length %d, %d bytes; want 200 and header + blocks [%d,%d), %d bytes",
				tc.query, resp.StatusCode, resp.ContentLength, len(body), tc.first, tc.end, len(want))
		}
	}
	for _, query := range []string{"?off=x", "?len=y", "?off=1.5&len=2", "?off=0&len=0x10"} {
		if resp, _ := get(query); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET%s: status %d, want %d", query, resp.StatusCode, http.StatusBadRequest)
		}
	}

	// A stored file that loses its tail after the store opened is never
	// served as a complete response: the open judges its size against
	// its header and refuses it before a byte goes out, whatever the
	// window, the header-only one included, as a damaged shard.
	if err := os.Truncate(path, int64(len(file))-bs/2); err != nil {
		t.Fatal(err)
	}
	cli := NewClient(ts.URL)
	for _, w := range [][2]int64{{0, -1}, {12288, 8192}, {0, 0}} {
		_, body, err := cli.OpenShard(context.Background(), "obj", 1, w[0], w[1])
		if body != nil {
			body.Close()
		}
		wantDamaged(t, fmt.Sprintf("window %v of a truncated shard", w), err, "truncated")
	}
}

func TestServerAdmissionThrottles(t *testing.T) {
	reg := obs.NewRegistry()
	store, err := OpenStore(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(store, denyAll{}, reg).Handler())
	defer ts.Close()

	_, err = NewClient(ts.URL).Objects(context.Background())
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("throttled request: %v, want 429 StatusError", err)
	}
	if !se.Transient() {
		t.Fatal("429 must be transient so a put retries the upload instead of failing it")
	}
	if got := reg.Counter("node_throttled_total", "", obs.Label{Key: "class", Value: ClassForeground}).Value(); got != 1 {
		t.Fatalf("node_throttled_total = %d, want 1", got)
	}
}

// servedRead is one Served report.
type servedRead struct {
	perBlock time.Duration
	loaded   bool
}

// readRecorder is an Admitter that admits everything and keeps what
// Served reports.
type readRecorder struct {
	mu    sync.Mutex
	reads []servedRead
}

func (*readRecorder) Admit(context.Context, string) error { return nil }

func (r *readRecorder) Served(perBlock time.Duration, loaded bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reads = append(r.reads, servedRead{perBlock, loaded})
}

// take returns the reports since the last take.
func (r *readRecorder) take() []servedRead {
	r.mu.Lock()
	defer r.mu.Unlock()
	reads := r.reads
	r.reads = nil
	return reads
}

// TestServerReportsForegroundReads: every foreground shard GET that
// serves blocks is reported, its time per block marked loaded when a
// repair-class request is in its handler on the same node; a
// header-only GET and a repair-class GET are not reported.
func TestServerReportsForegroundReads(t *testing.T) {
	store, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := &readRecorder{}
	srv := NewServer(store, rec, nil).Handler()
	shards := encodeShards(t, 2, 1, testPayload(20_000)) // five 4 KiB stripes
	for i, b := range shards {
		if err := store.Put("obj", i, bytes.NewReader(b)); err != nil {
			t.Fatal(err)
		}
	}
	get := func(query, class string) []servedRead {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, "/v1/shard/obj/0"+query, nil)
		req.Header.Set(classHeader, class)
		w := httptest.NewRecorder()
		start := time.Now()
		srv.ServeHTTP(w, req)
		took := time.Since(start)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s as %s: %d %s", query, class, w.Code, w.Body)
		}
		reads := rec.take()
		for _, r := range reads {
			if r.perBlock <= 0 || 5*r.perBlock > took {
				t.Fatalf("GET %s: %v per block of 5, in a request that took %v", query, r.perBlock, took)
			}
		}
		return reads
	}

	if r := get("", ClassForeground); len(r) != 1 || r[0].loaded {
		t.Fatalf("unloaded foreground GET reported %+v, want one unloaded read", r)
	}
	if r := get("?off=0&len=0", ClassForeground); len(r) != 0 {
		t.Fatalf("header-only GET reported %+v, want nothing", r)
	}
	if r := get("", ClassRepair); len(r) != 0 {
		t.Fatalf("repair GET reported %+v, want nothing", r)
	}

	// A repair upload parked in its handler: the pipe's write returns
	// once the store has read the header, and the body stalls there.
	body, feed := io.Pipe()
	put := httptest.NewRequest(http.MethodPut, "/v1/shard/obj/1", body)
	put.Header.Set(classHeader, ClassRepair)
	done := make(chan int)
	go func() {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, put)
		done <- w.Code
	}()
	if _, err := feed.Write(shards[1][:shardfile.HeaderSizeV3]); err != nil {
		t.Fatal(err)
	}
	if r := get("", ClassForeground); len(r) != 1 || !r[0].loaded {
		t.Fatalf("foreground GET beside a repair upload reported %+v, want one loaded read", r)
	}
	feed.CloseWithError(errors.New("uploader gone"))
	if code := <-done; code == http.StatusCreated {
		t.Fatal("the cut-off repair upload was committed")
	}
	if r := get("", ClassForeground); len(r) != 1 || r[0].loaded {
		t.Fatalf("foreground GET after the repair ended reported %+v, want one unloaded read", r)
	}
}

func TestClientNetErrorsAreTransient(t *testing.T) {
	cli := NewClient("127.0.0.1:1") // nothing listens here
	_, err := cli.Objects(context.Background())
	var ne *NetError
	if !errors.As(err, &ne) {
		t.Fatalf("connection-refused error: %v, want NetError", err)
	}
	if !ne.Transient() {
		t.Fatal("transport failures must be transient")
	}
}

func TestServeGracefulShutdown(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
		fmt.Fprint(w, "done")
	})

	ts := httptest.NewUnstartedServer(nil)
	ln := ts.Listener
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- Serve(ctx, &http.Server{Handler: mux}, ln)
	}()

	// Start an in-flight request, then trigger shutdown while it hangs.
	resp := make(chan error, 1)
	go func() {
		r, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err == nil {
			b, _ := io.ReadAll(r.Body)
			r.Body.Close()
			if string(b) != "done" {
				err = fmt.Errorf("body = %q", b)
			}
		}
		resp <- err
	}()
	<-started
	cancel()
	close(release) // let the handler finish inside the drain window

	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v, want nil on clean drain", err)
	}
	if err := <-resp; err != nil {
		t.Fatalf("in-flight request failed across shutdown: %v", err)
	}
}

// wantDamaged fails the test unless err is the one answer to a damaged
// stored shard: a 409 that matches ErrDamaged, not ErrNotFound, is not
// transient, and whose message begins with status.
func wantDamaged(t *testing.T, what string, err error, status string) {
	t.Helper()
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusConflict || !errors.Is(err, ErrDamaged) ||
		errors.Is(err, ErrNotFound) || Transient(err) || !strings.HasPrefix(se.Msg, status+":") {
		t.Errorf("%s: %v, want a 409 naming it %s", what, err, status)
	}
}

// TestDamagedShardOneAnswer: a damaged stored shard gets one answer on
// every route, whole, ranged and header-only GETs and the scrub alike:
// a 409 naming its shardfile.ShardStatus, which is not transient, so no
// caller takes the file's damage for a sick node. The header-only GET
// judges a shard by header, slot and size, so it passes a file whose
// damage is inside a block, which the scrub finds. A clean shard
// answers both probes with its header; a missing one is 404 on both.
func TestDamagedShardOneAnswer(t *testing.T) {
	store, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(store, nil, nil).Handler())
	defer ts.Close()
	cli := NewClient(ts.URL)
	ctx := context.Background()

	shards := encodeShards(t, 2, 1, testPayload(20_000))
	for i, b := range shards {
		if err := cli.PutShard(ctx, "obj", i, bytes.NewReader(b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.PutShard(ctx, "clean", 0, bytes.NewReader(shards[0])); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(store.dir, "obj")
	h, err := shardfile.Parse(bytes.NewReader(shards[0]))
	if err != nil {
		t.Fatal(err)
	}
	rot := bytes.Clone(shards[0])
	rot[h.Size()+h.BlockSize()+7] ^= 0x10 // a payload bit of block 1
	if err := os.WriteFile(shardfile.Path(dir, 0), rot, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(shardfile.Path(dir, 1), int64(len(shards[1])-100)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shardfile.Path(dir, 2), shards[1], 0o644); err != nil { // slot 1's file
		t.Fatal(err)
	}

	for _, c := range []struct {
		idx    int
		status string // what every shard GET and the scrub answer
	}{
		{1, "truncated"},
		{2, "bad-header"},
	} {
		for _, w := range [][2]int64{{0, -1}, {4096, 8192}, {0, 0}} {
			_, body, err := cli.OpenShard(ctx, "obj", c.idx, w[0], w[1])
			if body != nil {
				body.Close()
			}
			wantDamaged(t, fmt.Sprintf("GET of slot %d, window %v", c.idx, w), err, c.status)
		}
		_, err := cli.ScrubShard(ctx, "obj", c.idx)
		wantDamaged(t, fmt.Sprintf("scrub of slot %d", c.idx), err, c.status)
	}
	if st, err := cli.StatShard(ctx, "obj", 0); err != nil || st != h {
		t.Errorf("header-only GET of a block-rotted shard = %+v, %v; want its header", st, err)
	}
	_, err = cli.ScrubShard(ctx, "obj", 0)
	wantDamaged(t, "scrub of a block-rotted shard", err, "corrupt")
	if sh, err := cli.ScrubShard(ctx, "clean", 0); err != nil || sh != h {
		t.Errorf("scrub of a clean shard = %+v, %v; want its header", sh, err)
	}
	for name, probe := range map[string]func(context.Context, string, int) (shardfile.Header, error){
		"header-only GET": cli.StatShard, "scrub": cli.ScrubShard,
	} {
		_, err := probe(ctx, "obj", 3)
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusNotFound || !errors.Is(err, ErrNotFound) || errors.Is(err, ErrDamaged) {
			t.Errorf("%s of a missing slot: %v, want a 404", name, err)
		}
	}
}

// nopWriter is a ResponseWriter that keeps nothing.
type nopWriter struct{ h http.Header }

func (w nopWriter) Header() http.Header       { return w.h }
func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (nopWriter) WriteHeader(int)             {}

// TestAdmissionLooksUpNoMetrics: the admission wrapper counts a request
// in a series resolved when the routes were built, so admitting one
// allocates nothing.
func TestAdmissionLooksUpNoMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer(nil, &readRecorder{}, reg)
	requests := s.perClass("node_requests_total", "", obs.Label{Key: "route", Value: "test"})
	h := s.withAdmission(requests, s.perClass("node_throttled_total", ""), func(http.ResponseWriter, *http.Request) {})
	w := nopWriter{http.Header{}}
	fg := httptest.NewRequest(http.MethodGet, "/v1/objects", nil)
	rp := httptest.NewRequest(http.MethodGet, "/v1/objects", nil)
	rp.Header.Set(classHeader, ClassRepair)
	if a := testing.AllocsPerRun(100, func() { h(w, fg); h(w, rp) }); a != 0 {
		t.Fatalf("admitting a request allocates %v times, want 0", a)
	}
	for _, class := range []string{ClassForeground, ClassRepair} {
		got := reg.Counter("node_requests_total", "",
			obs.Label{Key: "route", Value: "test"}, obs.Label{Key: "class", Value: class}).Value()
		if got != 101 { // AllocsPerRun's warm-up run, then 100
			t.Errorf("node_requests_total{class=%s} = %d, want 101", class, got)
		}
	}
}

// drainWriter is a ResponseWriter that takes a body the way a socket's
// sendfile does, through ReadFrom, and keeps nothing.
type drainWriter struct{ nopWriter }

func (drainWriter) ReadFrom(r io.Reader) (int64, error) { return io.Copy(io.Discard, r) }

// TestShardGetAllocs budgets what the node's shard GET handler
// allocates to serve a 64 KiB object's shard, whole and as a one-block
// window, with its series in a registry: the count measured with
// go1.24 plus a margin of 4, so a change that adds work per request
// shows here.
func TestShardGetAllocs(t *testing.T) {
	reg := obs.NewRegistry()
	store, err := OpenStore(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	shards := encodeShards(t, 4, 2, testPayload(64<<10))
	if err := store.Put("obj", 0, bytes.NewReader(shards[0])); err != nil {
		t.Fatal(err)
	}
	handler := NewServer(store, nil, reg).Handler()
	w := drainWriter{nopWriter{http.Header{}}}
	for _, tc := range []struct {
		query  string
		budget float64
	}{
		{"", 16 + 4},
		{"?off=0&len=1", 19 + 4},
	} {
		req := httptest.NewRequest(http.MethodGet, "/v1/shard/obj/0"+tc.query, nil)
		got := testing.AllocsPerRun(200, func() {
			clear(w.h)
			handler.ServeHTTP(w, req)
		})
		t.Logf("shard GET%s: %v allocations", tc.query, got)
		if got > tc.budget {
			t.Errorf("shard GET%s allocates %v times, over its budget of %v", tc.query, got, tc.budget)
		}
	}
}
