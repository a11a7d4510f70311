package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"dialga/internal/obs"
	"dialga/internal/shardfile"
)

// startHTTP wraps the gateway's handler in a real HTTP server, the way
// clients actually reach it.
func startHTTP(t *testing.T, tc *testCluster) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(tc.gw.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func httpPut(t *testing.T, srv *httptest.Server, object string, payload []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/object/"+object, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func httpGet(t *testing.T, srv *httptest.Server, object, rangeHeader string) (*http.Response, []byte, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/object/"+object, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rangeHeader != "" {
		req.Header.Set("Range", rangeHeader)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body, readErr
}

// TestGatewayHTTPRoundtrip covers the object API end to end over the
// wire: put, headers on get, delete, and 404 after delete.
func TestGatewayHTTPRoundtrip(t *testing.T) {
	tc := startCluster(t, 6, 4, 2)
	srv := startHTTP(t, tc)
	payload := clusterPayload(41, 200_000)

	if resp := httpPut(t, srv, "rt", payload); resp.StatusCode != http.StatusCreated {
		t.Fatalf("put: status %d, want 201", resp.StatusCode)
	}
	resp, body, err := httpGet(t, srv, "rt", "")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("get: status %d, err %v", resp.StatusCode, err)
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(payload)) {
		t.Fatalf("get: Content-Length %q, want %d", got, len(payload))
	}
	if got := resp.Header.Get("Accept-Ranges"); got != "bytes" {
		t.Fatalf("get: Accept-Ranges %q, want bytes", got)
	}
	if !bytes.Equal(body, payload) {
		t.Fatalf("get: body mismatch (%d vs %d bytes)", len(body), len(payload))
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/object/rt", nil)
	dresp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", dresp.StatusCode)
	}
	if resp, _, _ := httpGet(t, srv, "rt", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", resp.StatusCode)
	}
}

// TestGatewayHTTPNotFoundVsUnavailable is the status-mapping
// regression: an object that no node has ever seen is 404 — every
// probed shard answered "not found", so the cluster authoritatively
// does not hold it — while the same read with a node unreachable is
// 502, because the missing answer could have been the object. Every
// failed open brings the next candidate in, so every shard is probed.
func TestGatewayHTTPNotFoundVsUnavailable(t *testing.T) {
	tc := startCluster(t, 6, 4, 2)
	srv := startHTTP(t, tc)

	resp, body, _ := httpGet(t, srv, "never-put", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent object: status %d (%s), want 404", resp.StatusCode, body)
	}

	tc.nodes[3].stop()
	resp, body, _ = httpGet(t, srv, "never-put", "")
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("absent object with node down: status %d (%s), want 502", resp.StatusCode, body)
	}
}

// TestGatewayHTTPPutRequiresLength rejects chunked puts up front: the
// encoder needs the object size before the first stripe.
func TestGatewayHTTPPutRequiresLength(t *testing.T) {
	tc := startCluster(t, 6, 4, 2)
	srv := startHTTP(t, tc)

	// Wrapping the reader hides its concrete type from net/http, so
	// the request goes out chunked with no Content-Length.
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/object/chunked",
		struct{ io.Reader }{bytes.NewReader(make([]byte, 1000))})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusLengthRequired {
		t.Fatalf("chunked put: status %d, want 411", resp.StatusCode)
	}
}

// TestGatewayHTTPRange drives Range reads over the wire: single,
// open-ended, and suffix forms; 416 with "Content-Range: bytes */size"
// for unsatisfiable ranges; and full 200 for forms the server ignores.
// It also pins the efficiency claim: a small range moves strictly fewer
// shard bytes than a full read. And a stale shard does not size a
// range: one node misses an overwrite, and a range only the new version
// has is still served.
func TestGatewayHTTPRange(t *testing.T) {
	tc, tap := tappedCluster(t, func(o *GatewayOptions) { o.WriteQuorum = 5 })
	srv := startHTTP(t, tc)
	size := 3*64*1024 + 777 // four stripes at the 64 KiB test stripe size
	payload := clusterPayload(45, size)
	if resp := httpPut(t, srv, "ranged", payload); resp.StatusCode != http.StatusCreated {
		t.Fatalf("put: status %d", resp.StatusCode)
	}

	cases := []struct {
		name, header string
		status       int
		from, to     int // payload[from:to] when 206; full payload when 200
	}{
		{"single", "bytes=100-199", http.StatusPartialContent, 100, 200},
		{"cross-stripe", "bytes=65000-66000", http.StatusPartialContent, 65000, 66001},
		{"open-ended", "bytes=196000-", http.StatusPartialContent, 196000, size},
		{"suffix", "bytes=-500", http.StatusPartialContent, size - 500, size},
		{"suffix-over-size", fmt.Sprintf("bytes=-%d", size*2), http.StatusPartialContent, 0, size},
		{"last-byte", fmt.Sprintf("bytes=%d-", size-1), http.StatusPartialContent, size - 1, size},
		{"past-end", fmt.Sprintf("bytes=%d-", size), http.StatusRequestedRangeNotSatisfiable, 0, 0},
		{"empty-suffix", "bytes=-0", http.StatusRequestedRangeNotSatisfiable, 0, 0},
		{"backwards-ignored", "bytes=200-100", http.StatusOK, 0, size},
		{"multi-ignored", "bytes=0-1,10-11", http.StatusOK, 0, size},
		{"other-unit-ignored", "chunks=0-100", http.StatusOK, 0, size},
		{"garbage-ignored", "bytes=abc-def", http.StatusOK, 0, size},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body, err := httpGet(t, srv, "ranged", c.header)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != c.status {
				t.Fatalf("status %d, want %d", resp.StatusCode, c.status)
			}
			switch c.status {
			case http.StatusRequestedRangeNotSatisfiable:
				want := fmt.Sprintf("bytes */%d", size)
				if got := resp.Header.Get("Content-Range"); got != want {
					t.Fatalf("Content-Range %q, want %q", got, want)
				}
			case http.StatusPartialContent:
				want := fmt.Sprintf("bytes %d-%d/%d", c.from, c.to-1, size)
				if got := resp.Header.Get("Content-Range"); got != want {
					t.Fatalf("Content-Range %q, want %q", got, want)
				}
				if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(c.to-c.from) {
					t.Fatalf("Content-Length %q, want %d", got, c.to-c.from)
				}
				if !bytes.Equal(body, payload[c.from:c.to]) {
					t.Fatalf("body mismatch: got %d bytes, want payload[%d:%d]", len(body), c.from, c.to)
				}
			default:
				if !bytes.Equal(body, payload) {
					t.Fatalf("ignored range: got %d bytes, want full %d", len(body), size)
				}
			}
		})
	}

	// O(range) on the wire: both reads open k shards, but a one-stripe
	// window must move strictly fewer shard bytes than the full read.
	before := tap.served.Load()
	if resp, _, err := httpGet(t, srv, "ranged", ""); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("full get: %d, %v", resp.StatusCode, err)
	}
	fullBytes := tap.served.Load() - before
	before = tap.served.Load()
	if resp, _, err := httpGet(t, srv, "ranged", "bytes=100-199"); err != nil || resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("range get: %d, %v", resp.StatusCode, err)
	}
	if rangeBytes := tap.served.Load() - before; rangeBytes >= fullBytes {
		t.Fatalf("range read moved %d shard bytes, full read %d: range must move strictly fewer", rangeBytes, fullBytes)
	}

	// The node holding shard 0, asked first, is down while a 64 KiB
	// object is overwritten with 8 MiB, so it keeps a valid shard of the
	// 64 KiB version. The last byte of the 8 MiB one is a 206 all the same.
	ctx := context.Background()
	place, err := tc.gw.Place("overwritten")
	if err != nil {
		t.Fatal(err)
	}
	tc.put(ctx, "overwritten", clusterPayload(47, 64<<10))
	tc.node(place[0].ID).stop()
	latest := clusterPayload(48, 8<<20)
	tc.put(ctx, "overwritten", latest)
	tc.node(place[0].ID).start()
	resp, body, err := httpGet(t, srv, "overwritten", "bytes=8388607-8388607")
	if err != nil || resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("last byte after a degraded overwrite: status %d, %v; want 206", resp.StatusCode, err)
	}
	if got, want := resp.Header.Get("Content-Range"), "bytes 8388607-8388607/8388608"; got != want {
		t.Fatalf("Content-Range %q, want %q", got, want)
	}
	if !bytes.Equal(body, latest[8388607:]) {
		t.Fatalf("body %x, want the 8 MiB version's last byte %x", body, latest[8388607:])
	}
}

// corruptBlock flips one byte inside a specific block of a stored
// shard file — targeted damage at a known stripe, so a test can make
// exactly one stripe of an object undecodable.
func corruptBlock(t *testing.T, tc *testCluster, object string, idx int, stripe int64) {
	t.Helper()
	p, err := tc.gw.Place(object)
	if err != nil {
		t.Fatal(err)
	}
	tn := tc.node(p[idx].ID)
	path := shardfile.Path(filepath.Join(tn.dir, object), idx)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h, err := shardfile.Parse(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	off := h.Size() + stripe*h.BlockSize() + 7
	raw[off] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGatewayHTTPTruncationNoErrorProse is the mid-stream-failure
// contract: once payload bytes are on the wire, a decode failure must
// surface as a truncated (aborted) response — never as error text
// appended to object data. The client sees the advertised
// Content-Length, a clean prefix of the object, and a transport error.
func TestGatewayHTTPTruncationNoErrorProse(t *testing.T) {
	tc := startCluster(t, 6, 4, 2)
	srv := startHTTP(t, tc)
	size := 5 * 64 * 1024
	payload := clusterPayload(46, size)
	if resp := httpPut(t, srv, "trunc", payload); resp.StatusCode != http.StatusCreated {
		t.Fatalf("put: status %d", resp.StatusCode)
	}
	// Stripe 3 loses m+1 blocks: unrecoverable whatever spares come in,
	// but only discovered after stripes 0-2 have already been streamed
	// to the client.
	for _, idx := range []int{0, 2, 4} {
		corruptBlock(t, tc, "trunc", idx, 3)
	}

	resp, body, readErr := httpGet(t, srv, "trunc", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (failure is mid-stream)", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(size) {
		t.Fatalf("Content-Length %q, want %d", got, size)
	}
	if readErr == nil && len(body) == size {
		t.Fatal("read completed cleanly; want a truncated response")
	}
	if readErr == nil {
		t.Fatalf("got %d of %d bytes with no transport error: truncation must be detectable", len(body), size)
	}
	// Whatever did arrive is object data, byte for byte — no error
	// prose mixed in.
	if !bytes.Equal(body, payload[:len(body)]) {
		t.Fatalf("received %d bytes are not a clean prefix of the object", len(body))
	}
}

// rangeHeader is a shard header of an object of size bytes, stored in
// RS(4,2) stripes of four 64-byte blocks: small enough that a range
// cut from it spans several blocks.
func rangeHeader(size int64) shardfile.Header {
	const stripe = 4 * 64
	return shardfile.Header{K: 4, M: 2, ShardSize: 64,
		StripeCount: (uint64(size) + stripe - 1) / stripe, FileSize: uint64(size)}
}

// TestParseRangeResolve pins the Range grammar and its resolution
// against an object size by shardfile's rule, including every
// reject-and-ignore form.
func TestParseRangeResolve(t *testing.T) {
	const size = 1000
	cases := []struct {
		header      string
		ok          bool  // parses as a usable spec
		off, length int64 // resolved window; length -1 = expect it unsatisfiable
	}{
		{"bytes=0-99", true, 0, 100},
		{"bytes=500-", true, 500, 500},
		{"bytes=-200", true, 800, 200},
		{"bytes=-2000", true, 0, 1000},
		{"bytes=999-999", true, 999, 1},
		{"bytes=0-9999", true, 0, 1000},
		{"bytes=0-9223372036854775807", true, 0, 1000}, // end-start+1 overflows int64
		{" bytes=1-2", true, 1, 2},
		{"bytes=1000-", true, 0, -1},
		{"bytes=-0", true, 0, -1},
		{"", false, 0, 0},
		{"bytes=", false, 0, 0},
		{"bytes=5-2", false, 0, 0},
		{"bytes=-", false, 0, 0},
		{"bytes=a-b", false, 0, 0},
		{"bytes=0-1,5-6", false, 0, 0},
		{"chunks=0-5", false, 0, 0},
		{"bytes=--5", false, 0, 0},
		{"bytes=--0", false, 0, 0},
		{"bytes=+5-9", false, 0, 0},
		{"bytes=5-+9", false, 0, 0},
		{"bytes=-+5", false, 0, 0},
		{"bytes=1 -2", false, 0, 0},
		{"bytes=99999999999999999999-", false, 0, 0},
	}
	for _, c := range cases {
		off, length, ok := parseRange(c.header)
		if ok != c.ok {
			t.Errorf("parseRange(%q): ok=%v, want %v", c.header, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		win := rangeHeader(size).Cut(off, length)
		if c.length == -1 {
			if win != (shardfile.Window{}) {
				t.Errorf("Cut(%q) = %+v, want the empty window of an unsatisfiable range", c.header, win)
			}
			continue
		}
		if win.Off != c.off || win.Len != c.length {
			t.Errorf("Cut(%q) = %+v, want bytes (%d, %d)", c.header, win, c.off, c.length)
		}
	}
}

// TestClientForUnknownNode pins the typed error for a placement that
// names a node the current map does not know — the case that used to
// be a nil-map-lookup panic.
func TestClientForUnknownNode(t *testing.T) {
	tc := startCluster(t, 4, 2, 2)
	_, err := tc.gw.clientFor(tc.gw.snap(), "ghost")
	if !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err %v, want ErrUnknownNode", err)
	}
	if got := tc.reg.Counter("cluster_unknown_node_total", "",
		obs.Label{Key: "node", Value: "ghost"}).Value(); got != 1 {
		t.Fatalf("cluster_unknown_node_total = %d, want 1", got)
	}
	if cli, err := tc.gw.clientFor(tc.gw.snap(), tc.nodes[0].id); err != nil || cli == nil {
		t.Fatalf("known node: %v", err)
	}
}

// TestGatewayHTTPClusterMap exposes the serving map and its epoch.
func TestGatewayHTTPClusterMap(t *testing.T) {
	tc := startCluster(t, 4, 2, 2)
	srv := startHTTP(t, tc)
	resp, body, err := func() (*http.Response, []byte, error) {
		resp, err := srv.Client().Get(srv.URL + "/v1/cluster/map")
		if err != nil {
			t.Fatal(err)
		}
		b, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, b, rerr
	}()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster map: %d, %v", resp.StatusCode, err)
	}
	if !bytes.Contains(body, []byte(`"epoch":0`)) || !bytes.Contains(body, []byte(`"n0"`)) {
		t.Fatalf("cluster map body missing epoch/nodes: %s", body)
	}
}

// TestGatewayOpAllocs budgets the allocations of a 64 KiB GET, a 64 KiB
// range GET of an 8 MiB object and a 64 KiB put through the gateway's
// HTTP handler at dialga-node's stripe size over pooled connections,
// counted process-wide as
// AllocsPerRun counts: the test's client, the gateway and its six
// nodes together. Each budget is the measured count plus a margin of
// 5 %, so a change that adds per-request work shows here: resolving
// series per request, as the gateway once did, cost 67 more a GET,
// range GET and put alike (666, 708 and 884). The counts were measured
// with go1.24, and most of them are net/http's, so a failure under
// another toolchain is first re-measured there.
func TestGatewayOpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations swamp the measurement")
	}
	tc := startClusterOpts(t, 6, 4, 2, func(o *GatewayOptions) {
		o.StripeSize = 1 << 20
		o.HTTPClient = http.DefaultClient // pooled, dialga-node's

	})
	srv := startHTTP(t, tc)
	small, big := clusterPayload(1, 64<<10), clusterPayload(2, 8<<20)
	for object, payload := range map[string][]byte{"small": small, "big": big} {
		if resp := httpPut(t, srv, object, payload); resp.StatusCode != http.StatusCreated {
			t.Fatalf("put %s: %s", object, resp.Status)
		}
	}
	get := func(object, rng string, want []byte) func() {
		return func() {
			if _, body, err := httpGet(t, srv, object, rng); err != nil || !bytes.Equal(body, want) {
				t.Fatalf("get %s %q: %d bytes, err %v", object, rng, len(body), err)
			}
		}
	}
	for _, op := range []struct {
		name     string
		measured float64
		run      func()
	}{
		{"64 KiB GET", 599, get("small", "", small)},
		{"64 KiB range GET of an 8 MiB object", 641, get("big", "bytes=1048576-1114111", big[1<<20:1<<20+64<<10])},
		{"64 KiB put", 817, func() { httpPut(t, srv, "small", small) }},
	} {
		got := testing.AllocsPerRun(50, op.run)
		t.Logf("%s: %v allocations", op.name, got)
		if budget := op.measured * 1.05; got > budget {
			t.Errorf("%s allocates %v times, over its budget of %v (%v measured, plus 5 %%)", op.name, got, budget, op.measured)
		}
	}
}
