package cluster

import (
	"bytes"
	"container/heap"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dialga/internal/node"
	"dialga/internal/obs"
	"dialga/internal/shardfile"
)

// repairTask names one damaged shard: rebuild shard Index of Object.
type repairTask struct {
	Object string
	Index  int
}

// repairItem is a queued task with its scheduling state. redundancy is
// the object's remaining parity headroom (live shards minus K) when
// the task was enqueued: an object one shard from unreadable sorts
// before one that can still lose a node, because the cost of being
// wrong about the ordering is data loss on one side and latency on the
// other. seq breaks ties FIFO so same-priority work is not starved.
//
// A migration item (migrate set) moves a healthy shard from src — its
// home under a previous map — to the object's placement under the
// current map. Migrations ride the same heap at redundancy m, so any
// genuine repair (redundancy < m) preempts rebalancing, and within a
// priority level repairs still go first.
type repairItem struct {
	repairTask
	redundancy int
	attempts   int
	seq        uint64
	pos        int // index in the heap, maintained by the heap interface

	migrate bool
	srcID   NodeID // node holding the shard under the old map
	srcAddr string // its address (the node may be gone from the current map)
}

type repairHeap []*repairItem

// repairAttempts is how many rebuild attempts a task gets before it is
// dropped. A later scan re-discovers the shard and starts it fresh, so
// a drop bounds queue churn, not durability.
const repairAttempts = 5

// scrubRotation is R: each scan checks the block trailers of the 1/R
// of the placed slots at its turn of the rotation (scrubTurn) and
// judges the rest by header alone, so R scans read every stored byte
// once, not R times.
const scrubRotation = 16

// scrubTurn is the scan of each rotation that block-scrubs slot idx of
// object: a hash of the pair, so the share spreads across objects and
// nodes alike.
func scrubTurn(object string, idx int) uint64 {
	return mix(fnv64(object)+uint64(idx)) % scrubRotation
}

func (h repairHeap) Len() int { return len(h) }
func (h repairHeap) Less(i, j int) bool {
	if h[i].redundancy != h[j].redundancy {
		return h[i].redundancy < h[j].redundancy
	}
	if h[i].migrate != h[j].migrate {
		return !h[i].migrate // repair before rebalance at equal urgency
	}
	return h[i].seq < h[j].seq
}
func (h repairHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos, h[j].pos = i, j
}
func (h *repairHeap) Push(x any) {
	it := x.(*repairItem)
	it.pos = len(*h)
	*h = append(*h, it)
}
func (h *repairHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// Repairer is the background repair queue: it scrubs every placed
// shard of every object in the cluster (reusing the same shardfile
// scrub that dialga-encode -mode verify runs locally), by header on
// every scan and block by block on one scan in scrubRotation, queues
// the damaged and missing ones, and rebuilds each in the shard domain:
// k of the object's other shards stream through a stream.Rebuilder that
// computes only the damaged shard's row, so a rebuild reads k shards
// and writes one — it never decodes the object or re-encodes the
// shards that are fine.
//
// The queue is a priority queue ordered by remaining redundancy:
// objects at redundancy zero (one more loss and they are unreadable)
// rebuild before objects that still have parity headroom, FIFO within
// a priority. Failed rebuilds are retried with a capped attempt
// counter. A shard a quorum put acknowledged without, or a rebalance
// did not move before a crash, is absent, or its header carries an
// older generation than the object's, so the next scan finds it like
// any other damage.
//
// All repair traffic — scrub probes, source reads, the rebuilt-shard
// write — is tagged node.ClassRepair and admitted by the Limiter at
// both ends, where it yields to foreground reads, so however deep the
// damage backlog is, foreground reads keep their own token budget and
// their own node capacity.
type Repairer struct {
	gw  *Gateway
	lim *Limiter
	reg *obs.Registry

	// scans is the rotation's position: a random turn at construction,
	// plus one per completed scan. The random start keeps a node that
	// restarts often from re-scrubbing the same low turns, and the N
	// nodes' whole-cluster Repairers from scrubbing one share in
	// lockstep.
	scans atomic.Uint64

	// The series the Repairer counts, all resolved in NewRepairer, each
	// named for its series; a map holds a family's series by label value.
	scrubOK, scrubUnreachable, scanErrors                  *obs.Counter
	scrubDamaged, repairs, migrations                      map[string]*obs.Counter
	repairFailures, repairDropped, repairBytes             *obs.Counter
	readBytes, rebalanceRuns, rebalanceMoves, migrateBytes *obs.Counter
	redundancyMin, repairQueue, rebalanceQueue             *obs.Gauge
	queuePriority                                          []*obs.Gauge // by redundancy, 0..m

	mu     sync.Mutex
	heap   repairHeap
	queued map[repairTask]*repairItem
	seq    uint64
	depth  []int // queued items by redundancy, 0..m
	moving int   // queued migrations
}

// NewRepairer wires a repair queue over the gateway's cluster view.
// lim may be nil (unpaced); reg may be nil (unmetered).
func NewRepairer(gw *Gateway, lim *Limiter, reg *obs.Registry) *Repairer {
	statuses := []string{"stale"}
	for s := shardfile.ShardMissing; s <= shardfile.ShardCorrupt; s++ {
		statuses = append(statuses, s.String())
	}
	r := &Repairer{
		gw: gw, lim: lim, reg: reg, queued: make(map[repairTask]*repairItem), depth: make([]int, gw.m+1),
		scrubOK: reg.Counter("cluster_scrub_ok_total", "Placed shards that passed a repair-scan scrub."),
		scrubUnreachable: reg.Counter("cluster_scrub_unreachable_total",
			"Placed shards the repair scan could not probe (node down)."),
		scanErrors:   reg.Counter("cluster_scan_errors_total", "Repair scans that aborted with an error."),
		scrubDamaged: byLabel(reg, "cluster_scrub_damaged_total", scrubDamagedHelp, "status", statuses...),
		repairs:      byLabel(reg, "cluster_repairs_total", "Shard rebuilds, by result.", "result", "ok", "error"),
		migrations: byLabel(reg, "cluster_migrations_total",
			"Shard migrations completed by rebalancing, by how the shard reached its new home.",
			"result", "already", "copied", "rebuilt"),
		repairFailures: reg.Counter("cluster_repair_failures_total", "Shard rebuild attempts that failed."),
		repairDropped: reg.Counter("cluster_repair_dropped_total",
			"Repair tasks dropped after exhausting their attempt budget."),
		repairBytes: reg.Counter("cluster_repair_bytes_total",
			"Bytes of rebuilt shard data written by the repair queue."),
		readBytes: reg.Counter("cluster_repair_read_bytes_total",
			"Bytes of source shard data the repair queue opened to rebuild shards from."),
		rebalanceRuns:  reg.Counter("cluster_rebalance_runs_total", "Placement-diff rebalance passes started."),
		rebalanceMoves: reg.Counter("cluster_rebalance_moves_total", "Shard migrations enqueued by rebalance passes."),
		migrateBytes:   reg.Counter("cluster_migrate_bytes_total", "Shard bytes moved to new homes by rebalancing."),
		redundancyMin: reg.Gauge("cluster_redundancy_min",
			"Lowest live-shard count across all objects at the last repair scan."),
		repairQueue:    reg.Gauge("cluster_repair_queue", "Damaged shards currently queued for rebuild."),
		rebalanceQueue: reg.Gauge("cluster_rebalance_queue", "Shard migrations currently queued by rebalancing."),
	}
	for red := 0; red <= gw.m; red++ {
		r.queuePriority = append(r.queuePriority, reg.Gauge("cluster_repair_queue_priority",
			"Damaged shards queued for rebuild, by the object's remaining redundancy.",
			obs.Label{Key: "redundancy", Value: strconv.Itoa(red)}))
	}
	// Until the first scan, what a scan of no objects reports: full width.
	r.redundancyMin.Set(float64(gw.k + gw.m))
	r.scans.Store(rand.Uint64N(scrubRotation))
	return r
}

const scrubDamagedHelp = "Placed shards found damaged by repair scans, by kind."

// enqueue adds or re-prioritizes a task. A task already queued keeps
// its attempt count and takes the lower (more urgent) redundancy.
func (r *Repairer) enqueue(t repairTask, redundancy, attempts int) bool {
	return r.enqueueItem(repairItem{repairTask: t, redundancy: redundancy, attempts: attempts})
}

// enqueueItem adds or re-prioritizes a task, preserving the incoming
// item's kind (repair vs migration) and source when it is new. A slot
// already queued only gets more urgent: it takes the lower redundancy
// and keeps its attempt count, and redundancy is clamped to [0, m]. A
// queued migration is not demoted to a rebuild by a later repair
// enqueue for the same slot — the copy is cheaper, and migrateOne falls
// back to rebuilding if its source is gone.
func (r *Repairer) enqueueItem(it repairItem) bool {
	it.redundancy = min(max(it.redundancy, 0), r.gw.m)
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.queued[it.repairTask]; ok {
		if it.redundancy < cur.redundancy {
			r.countLocked(cur, -1)
			cur.redundancy = it.redundancy
			r.countLocked(cur, 1)
			heap.Fix(&r.heap, cur.pos)
		}
		return false
	}
	r.seq++
	it.seq = r.seq
	queued := new(repairItem) // only now: re-prioritizing allocates nothing
	*queued = it
	r.queued[it.repairTask] = queued
	heap.Push(&r.heap, queued)
	r.countLocked(queued, 1)
	return true
}

// pop takes the most urgent task off the queue.
func (r *Repairer) pop() (*repairItem, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.heap) == 0 {
		return nil, false
	}
	it := heap.Pop(&r.heap).(*repairItem)
	delete(r.queued, it.repairTask)
	r.countLocked(it, -1)
	return it, true
}

// countLocked adds d to the queue's counts at its redundancy and kind
// and sets the queue-depth gauges from them: the depth of each kind,
// and one series per redundancy level so dashboards can see whether the
// backlog is annoying (redundancy m-1) or dangerous (redundancy 0).
func (r *Repairer) countLocked(it *repairItem, d int) {
	r.depth[it.redundancy] += d
	if it.migrate {
		r.moving += d
	}
	r.queuePriority[it.redundancy].Set(float64(r.depth[it.redundancy]))
	r.repairQueue.Set(float64(len(r.heap) - r.moving))
	r.rebalanceQueue.Set(float64(r.moving))
}

// ScanOnce scrubs every placed shard of every object, enqueues the
// damaged ones at a priority reflecting the object's remaining
// redundancy, and publishes cluster_redundancy_min — the lowest live
// shard count across everything it scanned. It returns how many new
// tasks it queued. It hears every placed shard of an object before it
// judges any: a shard is damaged when its node answers 404, when its
// scrub fails, or when it scrubs clean outside the set of at least k
// clean shards that shardfile.Vote picks, the one every read decodes —
// a stale shard a put or a rebalance left behind. A shard whose node is
// unreachable is skipped — under the persistent-memory fault model the
// node's shards survive it, so rebuilding them elsewhere while the node
// is down would churn data that will reappear.
//
// Every slot's scrub reads its header, slot and size, which show a
// missing, torn, misplaced, unreadable or stale shard, so one scan
// queues all of those. Only the slots at this scan's turn of the
// rotation (scrubTurn) have their block trailers checked too, so bit
// rot inside a block is queued by the R-th scan of one Repairer at the
// latest, R being scrubRotation; a Repairer starts its rotation at a
// random turn. Every read still checks the trailers of the blocks it
// reads.
func (r *Repairer) ScanOnce(ctx context.Context) (int, error) {
	turn := r.scans.Load() % scrubRotation
	st := r.gw.snap()
	names, err := listObjects(ctx, st.nodeClients(), node.ClassRepair, "repair scan")
	if err != nil {
		return 0, err
	}
	enqueued := 0
	n := r.gw.k + r.gw.m
	minLive := n
	for _, object := range names {
		placement, err := st.cmap.Place(object, n)
		if err != nil {
			return enqueued, err
		}
		verdicts := make([]string, n) // "" where the node could not be probed
		heads := make([]shardfile.Header, n)
		var clean []int // the shards that scrubbed clean
		for idx, info := range placement {
			if err := r.lim.Admit(ctx, node.ClassRepair); err != nil {
				return enqueued, err
			}
			cli, cerr := r.gw.clientFor(st, info.ID)
			if cerr != nil {
				r.scrubUnreachable.Inc()
				continue
			}
			blocks := scrubTurn(object, idx) == turn
			status, err := cli.WithClass(node.ClassRepair).ScrubShard(ctx, object, idx, blocks)
			switch {
			case errors.Is(err, node.ErrNotFound):
				verdicts[idx] = "missing"
			case err != nil:
				r.scrubUnreachable.Inc()
			case status.Damaged:
				verdicts[idx] = status.Status
			default:
				verdicts[idx], heads[idx] = "ok", status.Header
				clean = append(clean, idx)
			}
		}
		// The object is the set of clean shards every read decodes. With
		// fewer than k members no read decodes it, and no shard can be
		// called stale.
		lead, members := shardfile.Vote(len(clean), func(i int) shardfile.Header { return heads[clean[i]] })
		var damaged []int
		for idx, v := range verdicts {
			if v == "ok" && members >= r.gw.k && !heads[idx].SameEncoding(heads[clean[lead]]) {
				v = "stale"
			}
			switch v {
			case "":
			case "ok":
				r.scrubOK.Inc()
			default:
				c, ok := r.scrubDamaged[v]
				if !ok {
					// A lookup on the scan's path: a status from another build.
					c = r.reg.Counter("cluster_scrub_damaged_total", scrubDamagedHelp,
						obs.Label{Key: "status", Value: v})
				}
				c.Inc()
				damaged = append(damaged, idx)
			}
		}
		live := n - len(damaged)
		if live < minLive {
			minLive = live
		}
		for _, idx := range damaged {
			if r.enqueue(repairTask{Object: object, Index: idx}, live-r.gw.k, 0) {
				enqueued++
			}
		}
	}
	r.redundancyMin.Set(float64(minLive))
	r.scans.Add(1)
	return enqueued, nil
}

// RepairOne rebuilds one damaged shard in the shard domain: k of the
// object's other shards stream through a stream.Rebuilder, which
// computes only the damaged shard's blocks, straight into a validated
// upload to its placed node. The sources are the first k shards in
// router order (sidelined nodes last), opened concurrently; another is
// opened only when one of them fails to open, disagrees with the rest
// about the object's generation or geometry, or dies or serves a corrupt block
// mid-stream — the rule every read follows (stream.SpareFunc).
// The rebuilt shard carries the sources' generation.
func (r *Repairer) RepairOne(ctx context.Context, object string, idx int) error {
	st := r.gw.snap()
	placement, err := st.cmap.Place(object, r.gw.k+r.gw.m)
	if err != nil {
		return err
	}
	if idx < 0 || idx >= len(placement) {
		return fmt.Errorf("cluster: repair %q shard %d out of range", object, idx)
	}
	if err := r.lim.Admit(ctx, node.ClassRepair); err != nil {
		return err
	}
	dst, err := r.gw.clientFor(st, placement[idx].ID)
	if err != nil {
		return fmt.Errorf("cluster: repair %q shard %d: %w", object, idx, err)
	}

	// Everything below runs under this context: cancelling it on the way
	// out aborts whichever of the source reads and the upload is still
	// in flight.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	src := r.gw.newShardOpener(st, object, placement, node.ClassRepair)
	src.skip(idx)
	readers, err := src.open(ctx, 0, -1)
	if err != nil {
		return fmt.Errorf("cluster: repair %q shard %d: %w", object, idx, err)
	}
	h := src.header
	h.Index = uint32(idx)
	p, err := r.gw.pipelinesFor(int(h.ShardSize))
	if err != nil {
		closeReaders(readers)
		return err
	}
	r.countRead(int64(r.gw.k) * h.ExpectedFileSize())

	// The rebuilt blocks reach the node through a pipe: a failed rebuild
	// fails the request body, so the node never commits a short shard,
	// and a failed upload fails the rebuild's next write. The header
	// already says how long the file will be, so the upload says it too.
	pr, pw := io.Pipe()
	putErr := make(chan error, 1) // one send, so the uploader never blocks
	go func() {
		body := sizedReader{io.MultiReader(bytes.NewReader(h.Marshal()), pr), h.ExpectedFileSize()}
		err := dst.WithClass(node.ClassRepair).PutShard(ctx, object, idx, body)
		pr.CloseWithError(err)
		putErr <- err
	}()
	// A spare's remaining bytes are counted like the sources'.
	spare := func(ctx context.Context, block int64, reason string) (int, io.Reader, error) {
		i, body, err := src.spare(ctx, block, reason)
		if err == nil {
			r.countRead(h.ExpectedFileSize() - block*h.BlockSize())
		}
		return i, body, err
	}
	rbErr := p.rb.Rebuild(ctx, readers, idx, pw, int64(h.StripeCount), spare)
	pw.CloseWithError(rbErr)
	upErr := <-putErr
	if rbErr != nil {
		return fmt.Errorf("cluster: repair %q shard %d: %w", object, idx, rbErr)
	}
	if upErr != nil {
		return fmt.Errorf("cluster: repair %q shard %d: upload: %w", object, idx, upErr)
	}
	r.repairBytes.Add(uint64(h.ExpectedFileSize()))
	return nil
}

// sizedReader is an upload body of known length: node.Client.PutShard
// looks for Len, as net/http does on a *bytes.Reader, and sends a
// Content-Length instead of chunking.
type sizedReader struct {
	io.Reader
	size int64
}

func (s sizedReader) Len() int { return int(s.size) }

// countRead counts n source bytes a rebuild opened for reading.
func (r *Repairer) countRead(n int64) {
	r.readBytes.Add(uint64(n))
}

// DrainOnce works the queue until it is empty or ctx ends, returning
// how many tasks (repairs and migrations) succeeded and failed. A
// failed task is re-queued (its nodes may be back next pass) with its
// attempt counter bumped, until repairAttempts; after that it is dropped
// — a later scan that still finds the shard damaged starts it over
// with a fresh budget.
func (r *Repairer) DrainOnce(ctx context.Context) (repaired, failed int) {
	var requeue []*repairItem
	for {
		it, ok := r.pop()
		if !ok {
			break
		}
		var err error
		if it.migrate {
			err = r.migrateOne(ctx, it)
		} else {
			err = r.RepairOne(ctx, it.Object, it.Index)
		}
		if err == nil {
			repaired++
			if !it.migrate {
				r.repairs["ok"].Inc()
			}
			continue
		}
		failed++
		if !it.migrate {
			r.repairs["error"].Inc()
			r.repairFailures.Inc()
		}
		if ctx.Err() != nil {
			// Put the interrupted task back so nothing is stranded.
			requeue = append(requeue, it)
			break
		}
		it.attempts++
		if it.attempts >= repairAttempts {
			r.repairDropped.Inc()
			continue
		}
		requeue = append(requeue, it)
	}
	for _, it := range requeue {
		// Re-inserting the popped item keeps its kind, source, and
		// attempt count — a requeued migration stays a migration.
		r.enqueueItem(*it)
	}
	return repaired, failed
}

// Run scans and drains on every tick until ctx ends — the background
// repair loop a node runs for the life of the process. Scan errors are
// counted and retried next tick, never fatal.
func (r *Repairer) Run(ctx context.Context, interval time.Duration) error {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			if _, err := r.ScanOnce(ctx); err != nil {
				r.scanErrors.Inc()
				continue
			}
			r.DrainOnce(ctx)
		}
	}
}
