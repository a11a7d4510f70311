package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// muxNotFound is what run's prefix mux answers for a path no prefix
// covers; a route that reaches its handler never answers with it.
const muxNotFound = "404 page not found\n"

// testNode is one run on a loopback listener of its own.
type testNode struct {
	addr string
	ln   *countingListener
	hup  chan os.Signal
	done chan error
}

// countingListener counts the connections its server has accepted.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// startNodes runs one dialga-node per id, RS(1,1), on a -cluster-file
// naming them all, and returns them with the file's path once each
// answers /healthz. Cancelling ctx stops them.
func startNodes(t *testing.T, ctx context.Context, ids ...string) ([]*testNode, string) {
	t.Helper()
	var lns []*countingListener
	var spec []string
	for i, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, &countingListener{Listener: ln})
		spec = append(spec, fmt.Sprintf("%s=%s/r%d/z0", id, ln.Addr(), i))
	}
	file := filepath.Join(t.TempDir(), "cluster")
	if err := os.WriteFile(file, []byte(strings.Join(spec, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	var nodes []*testNode
	for i, id := range ids {
		cfg := nodeConfig{
			id: id, dir: t.TempDir(), clusterFile: file,
			k: 1, m: 1, stripeKiB: 64, route: "first-k", hedge: 30 * time.Millisecond,
		}
		n := &testNode{addr: "http://" + lns[i].Addr().String(), ln: lns[i], hup: make(chan os.Signal, 1), done: make(chan error, 1)}
		go func() { n.done <- run(ctx, cfg, lns[i], n.hup) }()
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		if code, body := do(t, http.MethodGet, n.addr+"/healthz", nil); code != http.StatusOK || body != "ok\n" {
			t.Fatalf("%s/healthz: %d %q", n.addr, code, body)
		}
	}
	return nodes, file
}

func do(t *testing.T, method, url string, body []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// stopNodes cancels the nodes' context and waits for each run to
// return nil.
func stopNodes(t *testing.T, cancel context.CancelFunc, nodes []*testNode) {
	t.Helper()
	cancel()
	for _, n := range nodes {
		select {
		case err := <-n.done:
			if err != nil {
				t.Fatalf("run returned %v after cancel, want nil", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("run did not return after cancel")
		}
	}
}

// TestRunServesEveryRoute: every route of node.Server.Handler and
// Gateway.Handler is reachable through run's prefix mux, and a node
// route's 404 is the node's answer, not the mux's.
func TestRunServesEveryRoute(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	nodes, _ := startNodes(t, ctx, "n0", "n1")
	base := nodes[0].addr
	payload := bytes.Repeat([]byte("dialga"), 10_000)

	for _, c := range []struct {
		method, path string
		body         []byte
		want         int
	}{
		// The gateway's routes.
		{"PUT", "/v1/object/obj", payload, http.StatusCreated},
		{"GET", "/v1/object/obj", nil, http.StatusOK},
		{"GET", "/v1/placement/obj", nil, http.StatusOK},
		{"GET", "/v1/cluster/map", nil, http.StatusOK},
		{"GET", "/v1/objects/all", nil, http.StatusOK},
		{"GET", "/v1/object/missing", nil, http.StatusNotFound},
		// The node's routes.
		{"GET", "/v1/objects", nil, http.StatusOK},
		{"GET", "/v1/shard/missing/0", nil, http.StatusNotFound},
		{"GET", "/v1/scrub/missing/0", nil, http.StatusNotFound},
		{"PUT", "/v1/shard/junk/0", []byte("not a shard"), http.StatusUnprocessableEntity},
		{"DELETE", "/v1/shard/missing/0", nil, http.StatusNoContent},
		{"GET", "/healthz", nil, http.StatusOK},
		{"GET", "/metrics", nil, http.StatusOK},
		{"DELETE", "/v1/object/obj", nil, http.StatusNoContent},
	} {
		code, body := do(t, c.method, base+c.path, c.body)
		if code != c.want || body == muxNotFound {
			t.Errorf("%s %s: %d %q, want %d from its handler", c.method, c.path, code, body, c.want)
		}
		if c.method == "GET" && c.path == "/v1/object/obj" && body != string(payload) {
			t.Errorf("GET /v1/object/obj: %d bytes back, want the %d put", len(body), len(payload))
		}
	}
	if code, body := do(t, "GET", base+"/v1/nothing", nil); code != http.StatusNotFound || body != muxNotFound {
		t.Errorf("GET /v1/nothing: %d %q, want the mux's 404", code, body)
	}
	stopNodes(t, cancel, nodes)
}

// TestRunDrainsRequestlessConnection: a connection dialed to the node
// that never sends a request does not hold up its shutdown; net/http's
// drain alone waits five seconds for one.
func TestRunDrainsRequestlessConnection(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	nodes, _ := startNodes(t, ctx, "n0", "n1")
	accepted := nodes[0].ln.accepted.Load()
	conn, err := net.Dial("tcp", strings.TrimPrefix(nodes[0].addr, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for nodes[0].ln.accepted.Load() == accepted {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	stopNodes(t, cancel, nodes)
	if d := time.Since(start); d > time.Second {
		t.Fatalf("run took %v to return with a request-less connection open, want under 1s", d)
	}
}

// TestRunReloadsClusterFile: a reload of a rewritten -cluster-file
// bumps the epoch /v1/cluster/map reports, and cancelling the context
// returns nil.
func TestRunReloadsClusterFile(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	nodes, file := startNodes(t, ctx, "n0", "n1")
	// served returns the epoch and first node's zone of the map n0 serves.
	served := func() (uint64, string) {
		t.Helper()
		code, body := do(t, "GET", nodes[0].addr+"/v1/cluster/map", nil)
		var info struct {
			Epoch uint64 `json:"epoch"`
			Nodes []struct {
				Zone string `json:"zone"`
			} `json:"nodes"`
		}
		if code != http.StatusOK || json.Unmarshal([]byte(body), &info) != nil || len(info.Nodes) == 0 {
			t.Fatalf("/v1/cluster/map: %d %q", code, body)
		}
		return info.Epoch, info.Nodes[0].Zone
	}
	before, _ := served()

	spec, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, bytes.ReplaceAll(spec, []byte("/z0"), []byte("/z1")), 0o644); err != nil {
		t.Fatal(err)
	}
	nodes[0].hup <- syscall.SIGHUP
	deadline := time.Now().Add(10 * time.Second)
	for {
		epoch, zone := served()
		if epoch == before+1 && zone == "z1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after the reload the map is epoch %d in zone %s, want epoch %d in z1", epoch, zone, before+1)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopNodes(t, cancel, nodes)
}
