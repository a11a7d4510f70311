// Command dialga-node serves one node of a dialga shard cluster: a
// shard store over HTTP plus an object gateway that stripes whole
// objects across the cluster with the streaming erasure pipeline, and
// a background repair loop that scrubs and rebuilds damaged shards.
//
//	dialga-node -id n0 -dir /srv/dialga \
//	    -cluster 'n0=127.0.0.1:7070/r0/z0,n1=127.0.0.1:7071/r1/z0,...'
//
// Every node is equivalent: placement is a deterministic function of
// the cluster map and the object name, so any node's gateway can serve
// any object and there is no metadata service. The process drains
// gracefully on SIGINT/SIGTERM, giving in-flight requests up to
// node.Serve's drain timeout.
//
// With -cluster-file the map comes from a spec file instead, and
// SIGHUP reloads it live: the new map (with a bumped epoch) swaps in
// atomically without dropping in-flight streams, and the repair loop
// rebalances — every shard whose placement changed is migrated
// copy-then-delete to its new home, always yielding to real repairs.
// The serving map and its epoch are visible at /v1/cluster/map.
//
// With -write-quorum below k+m the gateway acknowledges puts once a
// quorum of shards is durable. Every shard header carries its put's
// generation, so a shard a put missed is absent or older than the rest
// of its object, and the repair loop's scan finds and rebuilds it, also
// after a restart. The store itself recovers crash debris (orphaned
// temp files, torn shards) every time it opens.
//
// Repair yields to foreground: a node holds back repair while its
// foreground shard reads run 1.1× slower beside it (cluster.Limiter).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"dialga/internal/cluster"
	"dialga/internal/node"
	"dialga/internal/obs"
)

// nodeConfig collects the flag values; run is kept separate from flag
// parsing so tests can drive it directly.
type nodeConfig struct {
	id, dir, spec, listen string
	clusterFile           string
	k, m, stripeKiB       int
	route                 string
	hedge                 time.Duration
	fgRPS, repairRPS      float64
	repairInterval        time.Duration

	writeQuorum int
	putRetries  int
}

func main() {
	var cfg nodeConfig
	flag.StringVar(&cfg.id, "id", "", "this node's ID in the cluster map (required)")
	flag.StringVar(&cfg.dir, "dir", "", "shard storage directory (required)")
	flag.StringVar(&cfg.spec, "cluster", "", "cluster map: id=addr[/rack[/zone]],... (this or -cluster-file required)")
	flag.StringVar(&cfg.clusterFile, "cluster-file", "", "file holding the cluster map spec; SIGHUP reloads it live")
	flag.StringVar(&cfg.listen, "listen", "", "listen address (default: this node's address in the map)")
	flag.IntVar(&cfg.k, "k", 4, "data shards per stripe")
	flag.IntVar(&cfg.m, "m", 2, "parity shards per stripe")
	flag.IntVar(&cfg.stripeKiB, "stripe", 1024, "stripe size in KiB for object puts")
	flag.StringVar(&cfg.route, "route", "first-k", "read routing policy: first-k, the only one (slow nodes are sidelined whatever it is)")
	flag.DurationVar(&cfg.hedge, "hedge", 30*time.Millisecond, "hedged-read deadline floor for object gets (0 disables hedging)")
	flag.Float64Var(&cfg.fgRPS, "fg-rps", 0, "foreground admission rate, requests/s per node (0 = unmetered; below 1 still admits one request per 1/rate seconds)")
	flag.Float64Var(&cfg.repairRPS, "repair-rps", 0, "repair admission rate, requests/s per node (0 = unmetered; below 1 still admits one request per 1/rate seconds)")
	flag.DurationVar(&cfg.repairInterval, "repair-interval", 0, "background scrub+repair period (0 disables the repair loop)")
	flag.IntVar(&cfg.writeQuorum, "write-quorum", 0, "shards that must be durable before a put is acked (0 = all k+m; else in [k+1, k+m])")
	flag.IntVar(&cfg.putRetries, "put-retries", 0, "per-shard retries on transient put errors (0 = default 2, -1 disables)")
	flag.Parse()
	ctx, stop := node.SignalContext(context.Background())
	hup := make(chan os.Signal, 1)
	if cfg.clusterFile != "" {
		signal.Notify(hup, syscall.SIGHUP)
	}
	err := run(ctx, cfg, nil, hup)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// loadSpec reads the cluster map from -cluster-file (if set) or the
// inline -cluster spec.
func loadSpec(cfg nodeConfig) (*cluster.Map, error) {
	if cfg.clusterFile != "" {
		b, err := os.ReadFile(cfg.clusterFile)
		if err != nil {
			return nil, fmt.Errorf("dialga-node: reading -cluster-file: %w", err)
		}
		return cluster.ParseSpec(strings.TrimSpace(string(b)))
	}
	return cluster.ParseSpec(cfg.spec)
}

// run serves the node until ctx is cancelled. It serves on ln, or, when
// ln is nil, on -listen (default: the node's address in the map). With
// -cluster-file, each value received on hup reloads the map.
func run(ctx context.Context, cfg nodeConfig, ln net.Listener, hup <-chan os.Signal) error {
	if cfg.id == "" || cfg.dir == "" || (cfg.spec == "" && cfg.clusterFile == "") {
		return fmt.Errorf("dialga-node needs -id, -dir and -cluster or -cluster-file")
	}
	cmap, err := loadSpec(cfg)
	if err != nil {
		return err
	}
	self, ok := cmap.Get(cluster.NodeID(cfg.id))
	if !ok {
		return fmt.Errorf("dialga-node: -id %s is not in the cluster map", cfg.id)
	}
	switch {
	case ln != nil:
		cfg.listen = ln.Addr().String()
	case cfg.listen == "":
		cfg.listen = self.Addr
	}
	router, ok := cluster.NewRouter(cfg.route)
	if !ok {
		return fmt.Errorf("dialga-node: unknown -route %q (first-k is the only policy)", cfg.route)
	}

	reg := obs.NewRegistry()
	limiter := cluster.NewLimiter(map[string]cluster.Rate{
		node.ClassForeground: {PerSecond: cfg.fgRPS},
		node.ClassRepair:     {PerSecond: cfg.repairRPS},
	}, reg)

	store, err := node.OpenStore(cfg.dir, reg)
	if err != nil {
		return err
	}
	defer store.Close() // last: after the server and the loops are done
	gw, err := cluster.NewGateway(cluster.GatewayOptions{
		Map: cmap, K: cfg.k, M: cfg.m,
		StripeSize:  cfg.stripeKiB * 1024,
		Router:      router,
		HedgeAfter:  cfg.hedge,
		Metrics:     reg,
		WriteQuorum: cfg.writeQuorum,
		PutRetries:  cfg.putRetries,
	})
	if err != nil {
		return err
	}

	mux := http.NewServeMux()
	nh := node.NewServer(store, limiter, reg).Handler()
	gh := gw.Handler()
	mux.Handle("/v1/shard/", nh)
	mux.Handle("/v1/scrub/", nh)
	mux.Handle("/v1/objects", nh)
	mux.Handle("/healthz", nh)
	mux.Handle("/metrics", nh)
	mux.Handle("/v1/object/", gh)
	mux.Handle("/v1/objects/all", gh)
	mux.Handle("/v1/placement/", gh)
	mux.Handle("/v1/cluster/", gh)

	// Serve returns once ctx is cancelled or the server fails; either
	// way the background loops stop and run waits for them.
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()

	// The repair queue also executes rebalance migrations, so a node
	// with a reloadable map needs one even without a scrub loop. Both
	// kinds of data movement pass the node's limiter as repair.
	var rep *cluster.Repairer
	if cfg.repairInterval > 0 || cfg.clusterFile != "" {
		rep = cluster.NewRepairer(gw, limiter, reg)
		// A shard a put could not land is found by the next scan, like
		// any other damage, once its node answers.
		if cfg.repairInterval > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = rep.Run(ctx, cfg.repairInterval) // ctx.Err(), once run stops
			}()
		}
	}

	if cfg.clusterFile != "" {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case <-hup:
				}
				if err := reload(ctx, cfg, gw, rep, &wg); err != nil {
					fmt.Fprintf(os.Stderr, "dialga-node %s: reload: %v\n", cfg.id, err)
				}
			}
		}()
	}

	fmt.Fprintf(os.Stderr, "dialga-node %s: serving %s (dir %s, RS(%d,%d), route %s, %d-node map)\n",
		cfg.id, cfg.listen, cfg.dir, cfg.k, cfg.m, cfg.route, cmap.Len())
	return node.Serve(ctx, &http.Server{Addr: cfg.listen, Handler: mux}, ln)
}

// reload swaps in the map -cluster-file now holds, one epoch past the
// serving map, and rebalances toward it in the background, counted in
// wg: every shard whose placement changed is migrated through rep's
// queue.
func reload(ctx context.Context, cfg nodeConfig, gw *cluster.Gateway, rep *cluster.Repairer, wg *sync.WaitGroup) error {
	next, err := loadSpec(cfg)
	if err != nil {
		return err
	}
	prev := gw.Map()
	if err := gw.UpdateMap(next.WithEpoch(prev.Epoch() + 1)); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dialga-node %s: cluster map reloaded, epoch %d (%d nodes)\n",
		cfg.id, prev.Epoch()+1, next.Len())
	wg.Add(1)
	go func() {
		defer wg.Done()
		moves, err := rep.Rebalance(ctx, prev)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dialga-node %s: rebalance: %v\n", cfg.id, err)
			return
		}
		if moves > 0 {
			done, failed := rep.DrainOnce(ctx)
			fmt.Fprintf(os.Stderr, "dialga-node %s: rebalance: %d moves enqueued, %d done, %d failed\n",
				cfg.id, moves, done, failed)
		}
	}()
	return nil
}
