package fixture

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"regexp"
	"testing"

	"dialga/internal/node"
)

// The fixture claims to be dialga-node's shipped configuration; this
// reads the flag defaults out of dialga-node's source and fails when
// they and Defaults part ways.
func TestDefaultsMatchDialgaNode(t *testing.T) {
	src, err := os.ReadFile("../../cmd/dialga-node/main.go")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"k":            fmt.Sprint(Defaults.K),
		"m":            fmt.Sprint(Defaults.M),
		"stripe":       fmt.Sprint(Defaults.StripeKiB),
		"route":        fmt.Sprintf("%q", Defaults.Route),
		"hedge":        "30*time.Millisecond",
		"write-quorum": fmt.Sprint(Defaults.WriteQuorum),
		"put-retries":  fmt.Sprint(Defaults.PutRetries),
		"fg-rps":       "0",
		"repair-rps":   "0",
	}
	if Defaults.Hedge.String() != "30ms" {
		t.Errorf("Defaults.Hedge = %v; update this test's literal with it", Defaults.Hedge)
	}
	for name, def := range want {
		re := regexp.MustCompile(`flag\.\w+Var\(&cfg\.\w+, "` + regexp.QuoteMeta(name) + `", ([^,]+),`)
		m := re.FindSubmatch(src)
		if m == nil {
			t.Errorf("dialga-node has no -%s flag any more", name)
			continue
		}
		if string(m[1]) != def {
			t.Errorf("dialga-node -%s defaults to %s, the fixture uses %s", name, m[1], def)
		}
	}
}

func TestStopRestartReplace(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a cluster; skipped with -short")
	}
	var wrapped int
	c, err := Start(Options{
		Dir: t.TempDir(),
		NodeMiddleware: func(id string, h http.Handler) http.Handler {
			wrapped++
			return h
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if len(c.Nodes) != Defaults.K+Defaults.M || wrapped != len(c.Nodes) {
		t.Fatalf("%d nodes, %d wrapped", len(c.Nodes), wrapped)
	}

	ctx := context.Background()
	body := bytes.Repeat([]byte("dialga"), 1000)
	if _, err := c.Gateway.PutObject(ctx, "o", bytes.NewReader(body), int64(len(body)), node.ClassForeground); err != nil {
		t.Fatal(err)
	}
	get := func() error {
		var out bytes.Buffer
		if err := c.Gateway.GetObject(ctx, "o", &out, node.ClassForeground); err != nil {
			return err
		}
		if !bytes.Equal(out.Bytes(), body) {
			return fmt.Errorf("read %d bytes that differ from what was put", out.Len())
		}
		return nil
	}
	stored, err := c.StoredBytes()
	if err != nil || stored < int64(len(body)) {
		t.Fatalf("StoredBytes = %d, %v", stored, err)
	}

	// Two nodes down: still readable (m = 2). Same address after restart.
	addr := c.Nodes[0].Addr
	c.Nodes[0].Stop()
	c.Nodes[1].Stop()
	if err := get(); err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	if err := c.Nodes[0].Restart(); err != nil {
		t.Fatal(err)
	}
	if c.Nodes[0].Addr != addr {
		t.Errorf("restart moved the node from %s to %s", addr, c.Nodes[0].Addr)
	}
	// Replaced with an empty store: its shard is gone, the rest serve.
	if err := c.Nodes[1].ReplaceEmpty(); err != nil {
		t.Fatal(err)
	}
	after, err := c.StoredBytes()
	if err != nil || after >= stored {
		t.Errorf("StoredBytes after replacing a node with an empty one = %d (was %d), %v", after, stored, err)
	}
	if err := get(); err != nil {
		t.Fatalf("read after replace: %v", err)
	}
}
