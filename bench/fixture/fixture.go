// Package fixture is the one in-process dialga cluster the benchmark's
// workloads and ladder rungs run against: shard nodes on real loopback
// listeners over real store directories, and a gateway configured from
// dialga-node's flag defaults, all sharing one obs.Registry. The
// program is only ever touched through seams it already offers — the
// handlers it returns and GatewayOptions.HTTPClient/Metrics — so spans
// and faults are added from outside.
package fixture

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"dialga/internal/cluster"
	"dialga/internal/node"
	"dialga/internal/obs"
)

// Defaults are cmd/dialga-node's flag defaults, read in this one place
// so every workload and rung measures the shipped configuration.
// TestDefaultsMatchDialgaNode fails when dialga-node's flags move.
var Defaults = struct {
	K, M        int
	StripeKiB   int
	Route       string
	Hedge       time.Duration
	WriteQuorum int
	PutRetries  int
}{K: 4, M: 2, StripeKiB: 1024, Route: "first-k", Hedge: 30 * time.Millisecond}

// Options shapes a cluster. Only Dir is required.
type Options struct {
	// Dir is the root the per-node store directories are created in.
	Dir string
	// NodeMiddleware, when set, wraps each node's handler.
	NodeMiddleware func(id string, h http.Handler) http.Handler
	// GatewayMiddleware, when set, wraps the gateway's handler.
	GatewayMiddleware func(h http.Handler) http.Handler
	// Transport, when set, wraps the transport the gateway's shard
	// requests ride (a clone of http.DefaultTransport, which is what
	// dialga-node's nil HTTPClient resolves to).
	Transport func(base http.RoundTripper) http.RoundTripper
}

// Node is one cluster member.
type Node struct {
	ID   string
	Addr string // host:port, fixed at first start

	dir  string
	gen  int // bumped by ReplaceEmpty so the new store gets a fresh directory
	wrap func(http.Handler) http.Handler
	reg  *obs.Registry
	srv  *http.Server
	done chan struct{}
}

// Dir returns the node's current store directory.
func (n *Node) Dir() string {
	if n.gen == 0 {
		return n.dir
	}
	return fmt.Sprintf("%s.%d", n.dir, n.gen)
}

// start opens the store and serves it on the node's address.
func (n *Node) start() error {
	store, err := node.OpenStore(n.Dir(), n.reg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", n.Addr)
	if err != nil {
		return err
	}
	n.Addr = ln.Addr().String()
	// dialga-node always mounts a limiter; its default rates are
	// unmetered.
	limiter := cluster.NewLimiter(map[string]cluster.Rate{
		node.ClassForeground: {},
		node.ClassRepair:     {},
	}, n.reg)
	h := node.NewServer(store, limiter, n.reg).Handler()
	if n.wrap != nil {
		h = n.wrap(h)
	}
	n.srv = &http.Server{Handler: h}
	n.done = serve(n.srv, ln)
	return nil
}

// Stop kills the node: the listener and every open connection close
// at once, as when the process dies. Its store directory stays.
func (n *Node) Stop() {
	if n.srv == nil {
		return
	}
	n.srv.Close()
	<-n.done
	n.srv = nil
}

// Restart brings a stopped node back on the same address and store.
func (n *Node) Restart() error {
	n.Stop()
	return n.start()
}

// ReplaceEmpty brings the node back on the same address with an empty
// store, as when a failed machine is swapped for a new one.
func (n *Node) ReplaceEmpty() error {
	n.Stop()
	n.gen++
	return n.start()
}

// serve runs srv on ln until it is closed; the returned channel closes
// once the serving goroutine has exited.
func serve(srv *http.Server, ln net.Listener) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // always returns ErrServerClosed after Close
	}()
	return done
}

// Cluster is a running fixture.
type Cluster struct {
	// Reg receives every node's and the gateway's series.
	Reg *obs.Registry
	// Gateway is the Go API; GatewayURL is the same gateway's
	// Handler() served over loopback.
	Gateway    *cluster.Gateway
	GatewayURL string
	Nodes      []*Node

	base   *http.Transport
	gwSrv  *http.Server
	gwDone chan struct{}
}

// Start boots the nodes and the gateway.
func Start(opts Options) (*Cluster, error) {
	c := &Cluster{Reg: obs.NewRegistry()}
	// One node per shard of a stripe, so every object keeps a shard on
	// every node.
	infos := make([]cluster.NodeInfo, Defaults.K+Defaults.M)
	for i := range infos {
		id := fmt.Sprintf("n%d", i)
		n := &Node{ID: id, Addr: "127.0.0.1:0", dir: filepath.Join(opts.Dir, id), reg: c.Reg}
		if opts.NodeMiddleware != nil {
			n.wrap = func(h http.Handler) http.Handler { return opts.NodeMiddleware(id, h) }
		}
		if err := n.start(); err != nil {
			c.Close()
			return nil, err
		}
		c.Nodes = append(c.Nodes, n)
		infos[i] = cluster.NodeInfo{ID: cluster.NodeID(id), Addr: n.Addr}
	}
	cmap, err := cluster.New(infos)
	if err != nil {
		c.Close()
		return nil, err
	}
	router, ok := cluster.NewRouter(Defaults.Route)
	if !ok {
		c.Close()
		return nil, fmt.Errorf("fixture: unknown route %q", Defaults.Route)
	}
	c.base = http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = c.base
	if opts.Transport != nil {
		rt = opts.Transport(rt)
	}
	c.Gateway, err = cluster.NewGateway(cluster.GatewayOptions{
		Map: cmap, K: Defaults.K, M: Defaults.M,
		StripeSize:  Defaults.StripeKiB * 1024,
		Router:      router,
		HedgeAfter:  Defaults.Hedge,
		Metrics:     c.Reg,
		WriteQuorum: Defaults.WriteQuorum,
		PutRetries:  Defaults.PutRetries,
		HTTPClient:  &http.Client{Transport: rt},
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, err
	}
	h := c.Gateway.Handler()
	if opts.GatewayMiddleware != nil {
		h = opts.GatewayMiddleware(h)
	}
	c.gwSrv = &http.Server{Handler: h}
	c.gwDone = serve(c.gwSrv, ln)
	c.GatewayURL = "http://" + ln.Addr().String()
	return c, nil
}

// Close stops every server and waits for their goroutines. Store
// directories are left for the caller to remove.
func (c *Cluster) Close() {
	if c.gwSrv != nil {
		c.gwSrv.Close()
		<-c.gwDone
	}
	for _, n := range c.Nodes {
		n.Stop()
	}
	if c.base != nil {
		c.base.CloseIdleConnections()
	}
}

// StoredBytes sums the sizes of every file under the live nodes' store
// directories.
func (c *Cluster) StoredBytes() (int64, error) {
	var total int64
	for _, n := range c.Nodes {
		err := filepath.Walk(n.Dir(), func(_ string, fi os.FileInfo, err error) error {
			if err == nil && fi.Mode().IsRegular() {
				total += fi.Size()
			}
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}
