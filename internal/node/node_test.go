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
	"testing"

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
		h, body, err := store.Get("obj", i)
		if err != nil {
			t.Fatalf("get shard %d: %v", i, err)
		}
		got, err := io.ReadAll(body)
		body.Close()
		if err != nil {
			t.Fatal(err)
		}
		full := append(h.Marshal(), got...)
		if !bytes.Equal(full, want) {
			t.Fatalf("shard %d: stored bytes differ (got %d, want %d)", i, len(full), len(want))
		}
		rep, err := store.Scrub("obj", i)
		if err != nil || rep.Status != shardfile.ShardOK {
			t.Fatalf("scrub shard %d: %v %v", i, rep.Status, err)
		}
	}
	names, err := store.Objects()
	if err != nil || len(names) != 1 || names[0] != "obj" {
		t.Fatalf("objects = %v, %v", names, err)
	}
	if err := store.Delete("obj", 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Get("obj", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get deleted shard: %v, want ErrNotFound", err)
	}
	// Deleting again is idempotent.
	if err := store.Delete("obj", 0); err != nil {
		t.Fatalf("re-delete: %v", err)
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
		if err := store.Put(object, idx, bytes.NewReader(body)); !errors.Is(err, ErrBadShard) {
			t.Fatalf("%s: %v, want ErrBadShard", what, err)
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
	if entries, err := os.ReadDir(store.Dir()); err != nil || len(entries) != 0 {
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
	if rep, err := store.Scrub("obj", 0); err != nil || rep.Status != shardfile.ShardOK {
		t.Fatalf("committed shard after a rejected overwrite: %v, %v", rep.Status, err)
	}
	if v := reg.Gauge("node_store_shards", "").Value(); v != 1 {
		t.Fatalf("node_store_shards = %v after one commit and one rejected overwrite, want 1", v)
	}
	entries, err := os.ReadDir(filepath.Join(store.Dir(), "obj"))
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
	if err := store.Put("obj", 0, bytes.NewReader(file)); !errors.Is(err, ErrBadShard) {
		t.Fatalf("bad-CRC put: %v, want ErrBadShard", err)
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
	if rep, err := store.Scrub("big", 0); err != nil || rep.Status != shardfile.ShardOK {
		t.Fatalf("scrub: %v, %v", rep.Status, err)
	}
	file[len(file)-5000] ^= 1 // deep in the second block, past a piece boundary
	if err := store.Put("big", 0, bytes.NewReader(file)); !errors.Is(err, ErrBadShard) {
		t.Fatalf("flipped byte in a multi-piece block: %v, want ErrBadShard", err)
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
	if rep, err := store.Scrub("small", 0); err != nil || rep.Status != shardfile.ShardOK {
		t.Fatalf("scrub: %v, %v", rep.Status, err)
	}
	if raw, err := os.ReadFile(shardfile.Path(filepath.Join(store.Dir(), "small"), 0)); err != nil || !bytes.Equal(raw, file) {
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

func (denyAll) Admit(context.Context, string, float64) error {
	return errors.New("bucket empty")
}

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
	h, body, err := cli.OpenShard(ctx, "http-obj", 1)
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
	if err != nil || sc.Damaged {
		t.Fatalf("scrub = %+v, %v", sc, err)
	}
	names, err := cli.Objects(ctx)
	if err != nil || len(names) != 1 || names[0] != "http-obj" {
		t.Fatalf("objects = %v, %v", names, err)
	}
	if _, _, err := cli.OpenShard(ctx, "nope", 0); !errors.Is(err, ErrNotFound) {
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
		{"?block=0&count=1", "*io.LimitedReader over *os.File",
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

// TestShardGetBlockWindows pins a shard GET's block-window wire: the
// re-marshalled header, then exactly the asked-for slice of the stored
// file under a Content-Length that says so; 422 for a window that
// starts past the end, 400 for a malformed one; and never a complete
// response from a stored file that lost its tail.
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
	path := shardfile.Path(filepath.Join(store.Dir(), "obj"), 1)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := shardfile.Parse(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if h.StripeCount != 5 {
		t.Fatalf("shard has %d blocks, the cases below want 5", h.StripeCount)
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
	for _, tc := range []struct {
		query      string
		first, end int64 // the blocks [first, end) the body carries
	}{
		{"", 0, 5},
		{"?block=0&count=-1", 0, 5},
		{"?block=2&count=-1", 2, 5},
		{"?block=1&count=2", 1, 3},
		{"?block=4&count=1", 4, 5},
		{"?block=3&count=10", 3, 5}, // clamped to the blocks that exist
	} {
		resp, body := get(tc.query)
		want := append(file[:shardfile.HeaderSizeV3:shardfile.HeaderSizeV3],
			file[shardfile.HeaderSizeV3+tc.first*bs:shardfile.HeaderSizeV3+tc.end*bs]...)
		if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(want)) || !bytes.Equal(body, want) {
			t.Fatalf("GET%s: status %d, Content-Length %d, %d bytes; want 200 and header + blocks [%d,%d), %d bytes",
				tc.query, resp.StatusCode, resp.ContentLength, len(body), tc.first, tc.end, len(want))
		}
	}
	for query, code := range map[string]int{
		"?block=5&count=1":  http.StatusUnprocessableEntity,
		"?block=9":          http.StatusUnprocessableEntity,
		"?block=0&count=0":  http.StatusBadRequest,
		"?block=-1&count=1": http.StatusBadRequest,
		"?block=x":          http.StatusBadRequest,
		"?block=0&count=y":  http.StatusBadRequest,
	} {
		if resp, _ := get(query); resp.StatusCode != code {
			t.Errorf("GET%s: status %d, want %d", query, resp.StatusCode, code)
		}
	}

	// A stored file that loses its tail after the store opened is never
	// served as a complete response: the body ends short of its
	// Content-Length, and the client's read says so.
	if err := os.Truncate(path, int64(len(file))-bs/2); err != nil {
		t.Fatal(err)
	}
	cli := NewClient(ts.URL)
	for _, w := range [][2]int64{{0, -1}, {3, 2}} {
		_, body, err := cli.OpenShardAt(context.Background(), "obj", 1, w[0], w[1])
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.ReadAll(body)
		body.Close()
		if !errors.Is(err, io.ErrUnexpectedEOF) || err.Error() != "node: unexpected EOF" {
			t.Errorf("window %v of a truncated shard: read error %v, want node: unexpected EOF", w, err)
		}
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
		t.Fatal("429 must be transient so shard readers retry instead of dying")
	}
	if got := reg.Counter("node_throttled_total", "", obs.Label{Key: "class", Value: ClassForeground}).Value(); got != 1 {
		t.Fatalf("node_throttled_total = %d, want 1", got)
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
		served <- Serve(ctx, &http.Server{Handler: mux}, ln, 0)
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
