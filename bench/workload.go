package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dialga/bench/fixture"
	"dialga/internal/cluster"
	"dialga/internal/fault"
	"dialga/internal/shardfile"
)

type opClass uint8

const (
	opPut opClass = iota
	opGet
	opRange
	opRepair
	opScan // timed, but neither an attempted op nor part of any latency or throughput
)

func (c opClass) String() string {
	return [...]string{"put", "get", "range", "repair", "scan"}[c]
}

// workload is one named traffic shape. Every workload boots the same
// fixture; they differ in what is preloaded, what is broken before the
// clock starts, and what the clients do.
type workload struct {
	name string
	why  string
	// mixed selects small_mixed's key space; the rest preload bigObjects
	// 8 MiB objects.
	mixed bool
	// perBusy: throughput is per second of op time, not of wall time.
	perBusy bool
	// prepare breaks the cluster after preload, before warm-up.
	prepare func(r *run) error
	// load drives ops until r.deadline and returns every op it ran.
	load func(r *run) []opRec
	// check runs after the load has stopped.
	check func(r *run) error
}

const bigObjects = 32

// stragglerPlan is the repo's own seeded fault grammar: every body read
// from the straggling node first sleeps about 4 ms.
const stragglerPlan = "slow@0+4000"

var workloads = []workload{
	{
		name: "put_8m",
		why:  "closed-loop 8 MiB PUTs over 32 keys: the only workload that computes parity; encode, shard fan-out and Store.Put carry it",
		load: func(r *run) []opRec { return r.closedLoop(opPut) },
		check: func(r *run) error {
			// Every key holds the last version written to it.
			for i, slot := range r.lastSlot {
				if err := r.readBack(bigKey(i), r.pay.window(slot, bigSize)); err != nil {
					return err
				}
			}
			return nil
		},
	},
	{
		name: "get_8m",
		why:  "closed-loop 8 MiB GETs, all nodes up: the healthy read path with no GF math; the bypass workload for reconstruct, hedge and encode changes",
		load: func(r *run) []opRec { return r.closedLoop(opGet) },
	},
	{
		name: "degraded_get_8m",
		why:  "8 MiB GETs with two seeded nodes stopped: every object lacks two shards, so reconstruct and the decode-plan cache carry the load",
		prepare: func(r *run) error {
			for _, i := range rng(r.cfg.seed, streamNodes).Perm(len(r.fx.Nodes))[:2] {
				r.fx.Nodes[i].Stop()
			}
			return nil
		},
		load: func(r *run) []opRec { return r.closedLoop(opGet) },
	},
	{
		name: "straggler_get_8m",
		why:  "8 MiB GETs with one seeded node about 4 ms slow on every body read: the paper's regime, where hedging and readahead can pay",
		prepare: func(r *run) error {
			plan, err := fault.Parse(stragglerPlan)
			if err != nil {
				return err
			}
			n := r.fx.Nodes[rng(r.cfg.seed, streamNodes).Intn(len(r.fx.Nodes))]
			r.faults.Set(n.Addr, plan)
			return nil
		},
		load: func(r *run) []opRec { return r.closedLoop(opGet) },
	},
	{
		name:  "small_mixed",
		why:   "open loop at 100 ops/s of 64 KiB GET, PUT and range GET: payload work is negligible, so per-request costs and fan-out set the latency",
		mixed: true,
		load:  func(r *run) []opRec { return r.openLoop() },
		check: func(r *run) error {
			for i, slot := range r.lastSlot {
				if slot < 0 {
					continue
				}
				if err := r.readBack(writeKey(i), r.pay.window(slot, smallSize)); err != nil {
					return err
				}
			}
			return nil
		},
	},
	{
		name:    "repair_8m",
		why:     "one worker deletes a node's shard of every object, scans, and rebuilds each: the background path users feel as time at reduced redundancy",
		perBusy: true,
		load:    func(r *run) []opRec { return r.repairLoop() },
		check: func(r *run) error {
			rep := cluster.NewRepairer(r.fx.Gateway, nil, r.fx.Reg)
			n, err := rep.ScanOnce(context.Background())
			if err != nil {
				return err
			}
			if n != 0 {
				return fmt.Errorf("scan after repair enqueued %d shards, want 0", n)
			}
			for i := 0; i < bigObjects; i++ {
				if err := r.readBack(bigKey(i), r.pay.window(bigSlot(i), bigSize)); err != nil {
					return err
				}
			}
			return nil
		},
	},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// config is one run's knobs.
type config struct {
	seed    int64
	warmup  time.Duration
	window  time.Duration
	clients int
	dir     string // store directories are created under it
	out     string // traces are written here
	trace   bool
	setups  int // how many times set-up is repeated for setup_s
}

// run is the state of one workload run.
type run struct {
	cfg config
	wl  *workload
	pay *payloads
	hc  *http.Client // the load generator's own connections, one per client
	url string

	fx     *fixture.Cluster
	root   string           // this run's store root
	rec    *recorder        // nil on an untraced run
	faults *fault.Transport // straggler workload only

	epoch    time.Time
	deadline time.Duration // load stops issuing ops here

	// lastSlot is the payload slot last written to each written key; -1
	// for a write-set key never written. Each entry has one writer.
	lastSlot []int
}

func (r *run) since() time.Duration { return time.Since(r.epoch) }

// setup boots a fresh cluster and preloads the workload's objects.
func (r *run) setup() error {
	root, err := os.MkdirTemp(r.cfg.dir, "store-")
	if err != nil {
		return err
	}
	r.root = root
	opts := fixture.Options{Dir: root}
	if r.rec != nil {
		opts.NodeMiddleware = func(_ string, h http.Handler) http.Handler { return r.rec.middleware(layerNode, h) }
		opts.GatewayMiddleware = func(h http.Handler) http.Handler { return r.rec.middleware(layerGateway, h) }
	}
	if r.wl.name == "straggler_get_8m" || r.rec != nil {
		opts.Transport = func(base http.RoundTripper) http.RoundTripper {
			if r.wl.name == "straggler_get_8m" {
				r.faults = fault.NewTransport(base)
				base = r.faults
			}
			if r.rec != nil {
				base = r.rec.transport(base)
			}
			return base
		}
	}
	if r.fx, err = fixture.Start(opts); err != nil {
		return err
	}
	r.url = r.fx.GatewayURL + "/v1/object/"

	type item struct {
		key  string
		body []byte
	}
	var items []item
	if r.wl.mixed {
		for i := 0; i < mixedBigKeys; i++ {
			items = append(items, item{bigKey(i), r.pay.window(bigSlot(i), bigSize)})
		}
		for i := 0; i < mixedReadKeys; i++ {
			items = append(items, item{readKey(i), r.pay.window(readSlot(i), smallSize)})
		}
	} else {
		for i := 0; i < bigObjects; i++ {
			items = append(items, item{bigKey(i), r.pay.window(bigSlot(i), bigSize)})
		}
	}
	var next atomic.Int64
	errs := make([]error, r.cfg.clients)
	var wg sync.WaitGroup
	for c := 0; c < r.cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				if op := r.put(items[i].key, items[i].body); op.failed {
					errs[c] = fmt.Errorf("preload %s failed", items[i].key)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// teardown stops the cluster and removes its store directories.
func (r *run) teardown() {
	if r.fx != nil {
		r.fx.Close()
		r.fx = nil
	}
	r.hc.CloseIdleConnections()
	if r.root != "" {
		os.RemoveAll(r.root)
		r.root = ""
	}
}

// userBytesStored is the payload the preload stored.
func (r *run) userBytesStored() int64 {
	if r.wl.mixed {
		return mixedBigKeys*bigSize + mixedReadKeys*smallSize
	}
	return bigObjects * bigSize
}

// opSpan opens a load generator span when the recorder is on. The
// returned func closes it.
func (r *run) opSpan(class opClass, key string, h http.Header, claim ...string) func(op opRec) {
	if r.rec == nil || !r.rec.on.Load() {
		return func(opRec) {}
	}
	id := r.rec.newID()
	if h != nil {
		setSpanHeader(h, id, id)
	}
	for _, object := range claim {
		r.rec.claim(object, id, id)
	}
	return func(op opRec) {
		for _, object := range claim {
			r.rec.release(object)
		}
		r.rec.add(span{ID: id, Op: id, Layer: layerLoadgen, Name: class.String(), Key: key,
			Start: int64(op.sent), End: int64(op.end), Bytes: op.bytes, Failed: op.failed})
	}
}

// put PUTs body to key over gateway HTTP.
func (r *run) put(key string, body []byte) opRec {
	req, err := http.NewRequest(http.MethodPut, r.url+key, bytes.NewReader(body))
	if err != nil {
		return opRec{failed: true}
	}
	op := opRec{class: opPut, sent: r.since(), bytes: int64(len(body))}
	op.due = op.sent
	done := r.opSpan(opPut, key, req.Header)
	resp, err := r.hc.Do(req)
	if err != nil {
		op.end, op.failed = r.since(), true
		done(op)
		return op
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	op.end = r.since()
	op.failed = resp.StatusCode != http.StatusCreated
	done(op)
	return op
}

// get GETs key (rangeOff >= 0: the len(want) bytes at that offset) into
// buf, which must be longer than want, and compares what arrived with
// want after the op's end is stamped.
func (r *run) get(class opClass, key string, want, buf []byte, rangeOff int64) opRec {
	req, err := http.NewRequest(http.MethodGet, r.url+key, nil)
	if err != nil {
		return opRec{failed: true}
	}
	wantStatus := http.StatusOK
	if rangeOff >= 0 {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", rangeOff, rangeOff+int64(len(want))-1))
		wantStatus = http.StatusPartialContent
	}
	op := opRec{class: class, sent: r.since(), bytes: int64(len(want))}
	op.due = op.sent
	done := r.opSpan(class, key, req.Header)
	resp, err := r.hc.Do(req)
	if err != nil {
		op.end, op.failed = r.since(), true
		done(op)
		return op
	}
	n := 0
	for n < len(buf) {
		m, err := resp.Body.Read(buf[n:])
		if m > 0 && op.first == 0 {
			op.first = r.since()
		}
		n += m
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	op.end = r.since()
	op.failed = resp.StatusCode != wantStatus || !bytes.Equal(buf[:n], want)
	done(op)
	return op
}

// readBack verifies one key after the load has stopped.
func (r *run) readBack(key string, want []byte) error {
	if op := r.get(opGet, key, want, make([]byte, len(want)+1), -1); op.failed {
		return fmt.Errorf("read-back of %s does not match what was written", key)
	}
	return nil
}

// closedLoop runs cfg.clients clients, each issuing its next op when
// the previous one completes. Client c owns keys c, c+clients, ..., so
// no two in-flight ops share a key.
func (r *run) closedLoop(class opClass) []opRec {
	r.lastSlot = make([]int, bigObjects)
	for i := range r.lastSlot {
		r.lastSlot[i] = bigSlot(i)
	}
	per := make([][]opRec, r.cfg.clients)
	var wg sync.WaitGroup
	for c := 0; c < r.cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := make([]byte, bigSize+1)
			for j := 0; r.since() < r.deadline; j++ {
				i := (c + j*r.cfg.clients) % bigObjects
				if class == opPut {
					slot := versionSlot(j*r.cfg.clients + c)
					op := r.put(bigKey(i), r.pay.window(slot, bigSize))
					if !op.failed {
						r.lastSlot[i] = slot
					}
					per[c] = append(per[c], op)
				} else {
					per[c] = append(per[c], r.get(opGet, bigKey(i), r.pay.window(bigSlot(i), bigSize), buf, -1))
				}
			}
		}(c)
	}
	wg.Wait()
	return flatten(per)
}

// openLoop runs small_mixed's pre-drawn schedule: cfg.clients workers
// take ops in due order, wait for the due time, and send. Latency
// counts from the due time, so a worker that is still busy when an op
// falls due shows up as that op's latency.
func (r *run) openLoop() []opRec {
	sched := mixedSchedule(r.cfg.seed, r.deadline)
	r.lastSlot = make([]int, mixedWriteKeys)
	for i := range r.lastSlot {
		r.lastSlot[i] = -1
	}
	var next atomic.Int64
	per := make([][]opRec, r.cfg.clients)
	var wg sync.WaitGroup
	for c := 0; c < r.cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			buf := make([]byte, smallSize+1)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				s := sched[i]
				free := r.since()
				if wait := s.due - free; wait > 0 {
					time.Sleep(wait)
				}
				var op opRec
				switch s.class {
				case opGet:
					op = r.get(opGet, readKey(s.key), r.pay.window(readSlot(s.key), smallSize), buf, -1)
				case opPut:
					op = r.put(writeKey(s.key), r.pay.window(s.slot, smallSize))
					if !op.failed {
						r.lastSlot[s.key] = s.slot
					}
				case opRange:
					want := r.pay.window(bigSlot(s.key), bigSize)[s.off : s.off+smallSize]
					op = r.get(opRange, bigKey(s.key), want, buf, s.off)
				}
				op.due, op.free = s.due, free
				per[c] = append(per[c], op)
			}
		}(c)
	}
	wg.Wait()
	return flatten(per)
}

// repairLoop is the single repair worker (the Repairer is serial).
// Each cycle picks the next victim node round-robin from a seeded
// start, deletes its shard of every object, times one ScanOnce, then
// times one RepairOne per missing shard. The cycle in progress at the
// deadline is finished, so the cluster is whole for the check.
func (r *run) repairLoop() []opRec {
	ctx := context.Background()
	gw := r.fx.Gateway
	hdr := shardfile.Header{
		Version: shardfile.VersionV3, Algo: shardfile.AlgoCRC32C,
		K: uint32(fixture.Defaults.K), M: uint32(fixture.Defaults.M),
		ShardSize:   uint32(fixture.Defaults.StripeKiB * 1024 / fixture.Defaults.K),
		StripeCount: bigSize / uint64(fixture.Defaults.StripeKiB*1024),
	}
	shardBytes := hdr.ExpectedFileSize()
	objects := make([]string, bigObjects)
	for i := range objects {
		objects[i] = bigKey(i)
	}
	var ops []opRec
	fail := func(class opClass, sent time.Duration) {
		ops = append(ops, opRec{class: class, due: sent, sent: sent, end: r.since(), failed: true})
	}
	victim := rng(r.cfg.seed, streamNodes).Intn(len(r.fx.Nodes))
	for ; r.since() < r.deadline; victim = (victim + 1) % len(r.fx.Nodes) {
		id := cluster.NodeID(r.fx.Nodes[victim].ID)
		cli, _ := gw.Client(id)
		missing := make([]int, len(objects))
		for i, object := range objects {
			placement, err := gw.Place(object)
			if err != nil {
				fail(opRepair, r.since())
				return ops
			}
			for idx, n := range placement {
				if n.ID == id {
					missing[i] = idx
				}
			}
			if err := cli.DeleteShard(ctx, object, missing[i]); err != nil {
				fail(opRepair, r.since())
				return ops
			}
		}

		// A fresh queue per cycle: ScanOnce only counts shards it had not
		// already queued, and RepairOne does not dequeue.
		rep := cluster.NewRepairer(gw, nil, r.fx.Reg)
		scan := opRec{class: opScan, sent: r.since()}
		scan.due = scan.sent
		done := r.opSpan(opScan, "", nil, objects...)
		found, err := rep.ScanOnce(ctx)
		scan.end = r.since()
		scan.failed = err != nil || found != len(objects)
		done(scan)
		ops = append(ops, scan)
		if scan.failed {
			return ops
		}

		for i, object := range objects {
			op := opRec{class: opRepair, sent: r.since(), bytes: shardBytes}
			op.due = op.sent
			done := r.opSpan(opRepair, object, nil, object)
			err := rep.RepairOne(ctx, object, missing[i])
			op.end = r.since()
			op.failed = err != nil
			done(op)
			ops = append(ops, op)
		}
	}
	return ops
}

func flatten(per [][]opRec) []opRec {
	var all []opRec
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// tracePath is where a workload's spans are written.
func tracePath(out, workload string) string {
	return filepath.Join(out, "trace-"+workload+".json")
}
