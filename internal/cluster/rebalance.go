// Rebalancing: when the cluster map changes, shards do not move by
// themselves — placement is a pure function of the map, so a swapped
// map silently re-homes every object while the bytes stay where the
// old map put them. Rebalance closes that gap: it diffs each object's
// placement under the old and current maps and enqueues one bounded
// migration per moved shard. A crash mid-rebalance leaves a shard not
// yet moved missing at its new home, and the next repair scan rebuilds
// it there.
//
// Migrations ride the repair queue itself, at redundancy m (the best
// possible health), so any genuine repair — an object actually missing
// shards — preempts every migration, and redundancy-0 work preempts
// everything. Each migration is copy-then-delete: the shard is copied
// to its new home as exact shardfile bytes (the destination validates
// it like any upload), and only then removed from the old one, so no
// step of rebalancing ever reduces the number of live copies. Moves are
// repair-class traffic, which yields to foreground reads (Limiter).

package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"dialga/internal/node"
)

// Rebalance diffs every object's placement under old against the
// gateway's current map and enqueues a migration for each shard whose
// home changed. It returns how many migrations it enqueued. Objects
// are discovered from every node in either map, so shards stranded on
// removed nodes are found. Run DrainOnce (or the background Run loop)
// afterwards to execute the queue.
func (r *Repairer) Rebalance(ctx context.Context, old *Map) (int, error) {
	if old == nil {
		return 0, errors.New("cluster: rebalance needs the previous map")
	}
	// Ask every node of either map: the current members, plus transient
	// clients for nodes only the old map knows, whose shards still need
	// to move off.
	st := r.gw.snap()
	clients := st.nodeClients()
	asked := make(map[string]bool, len(clients))
	for _, info := range st.cmap.Nodes() {
		asked[info.Addr] = true
	}
	for _, info := range old.Nodes() {
		if !asked[info.Addr] {
			asked[info.Addr] = true
			clients = append(clients, r.gw.dial(info.Addr))
		}
	}
	names, err := listObjects(ctx, clients, node.ClassRepair, "rebalance scan")
	if err != nil {
		return 0, err
	}
	n := r.gw.k + r.gw.m
	moves := 0
	for _, object := range names {
		po, err := old.Place(object, n)
		if err != nil {
			return moves, fmt.Errorf("cluster: rebalance %q under old map: %w", object, err)
		}
		pn, err := st.cmap.Place(object, n)
		if err != nil {
			return moves, fmt.Errorf("cluster: rebalance %q: %w", object, err)
		}
		for i := 0; i < n; i++ {
			if po[i].ID == pn[i].ID {
				continue
			}
			if r.enqueueItem(repairItem{
				repairTask: repairTask{Object: object, Index: i},
				redundancy: r.gw.m,
				migrate:    true,
				srcID:      po[i].ID,
				srcAddr:    po[i].Addr,
			}) {
				moves++
			}
		}
	}
	r.rebalanceRuns.Inc()
	r.rebalanceMoves.Add(uint64(moves))
	return moves, nil
}

// migrateOne executes one queued migration: move shard it.Index of
// it.Object from its old home to its placement under the current map.
// The happy path is a byte copy (the shard travels as exact
// shardfile bytes, validated by the destination); if the source no
// longer has a healthy copy, the shard is rebuilt at its new home from
// k of the object's other shards instead. Either way the source's copy
// is removed afterwards. A transient failure returns an error so
// DrainOnce requeues the item.
func (r *Repairer) migrateOne(ctx context.Context, it *repairItem) error {
	st := r.gw.snap()
	object, idx := it.Object, it.Index
	placement, err := st.cmap.Place(object, r.gw.k+r.gw.m)
	if err != nil {
		return err
	}
	if idx < 0 || idx >= len(placement) {
		return fmt.Errorf("cluster: migrate %q shard %d out of range", object, idx)
	}

	// Source: the old home. Reuse the pooled client if the node is
	// still a member at the same address; otherwise dial it directly —
	// a removed node keeps serving its shards until they are drained.
	var src *node.Client
	if cur, ok := st.cmap.Get(it.srcID); ok && cur.Addr == it.srcAddr {
		src = st.clients[it.srcID]
	} else {
		src = r.gw.dial(it.srcAddr)
	}
	src = src.WithClass(node.ClassRepair)

	dstInfo := placement[idx]
	if dstInfo.ID == it.srcID {
		// The map changed again and the shard's home moved back;
		// nothing to move.
		return nil
	}
	if err := r.lim.Admit(ctx, node.ClassRepair); err != nil {
		return err
	}
	dstCli, err := r.gw.clientFor(st, dstInfo.ID)
	if err != nil {
		return fmt.Errorf("cluster: migrate %q shard %d: %w", object, idx, err)
	}
	dst := dstCli.WithClass(node.ClassRepair)

	// What the destination holds already, if anything: the copy a
	// previous attempt landed before it died, or a shard of another
	// version.
	landed, landedErr := dst.StatShard(ctx, object, idx)

	// One request to the source: the header arrives with the body. A
	// missing or damaged copy (a 404 or a 409, neither transient) is
	// rebuilt at the new home instead.
	h, body, err := src.OpenShard(ctx, object, idx, 0, -1)
	if err != nil {
		if node.Transient(err) {
			return fmt.Errorf("cluster: migrate %q shard %d: source %s: %w", object, idx, it.srcID, err)
		}
		return r.migrateByRebuild(ctx, it, src)
	}
	// Fast path: the destination already holds this shard at its
	// generation, or a newer one a put wrote there since the map
	// changed — finish the delete. An older copy is a stale shard, and
	// the move overwrites it.
	if landedErr == nil && landed.Generation >= h.Generation {
		body.Close()
		src.DeleteShard(ctx, object, idx)
		r.migrations["already"].Inc()
		return nil
	}

	shardBytes := h.ExpectedFileSize()
	err = dst.PutShard(ctx, object, idx, sizedReader{io.MultiReader(bytes.NewReader(h.Marshal()), body), shardBytes})
	body.Close()
	if err != nil {
		if node.Transient(err) {
			return fmt.Errorf("cluster: migrate %q shard %d: write %s: %w", object, idx, dstInfo.ID, err)
		}
		// The destination rejected the bytes (e.g. the source copy is
		// corrupt); a rebuild produces a fresh validated shard.
		return r.migrateByRebuild(ctx, it, src)
	}
	// Copy landed and is validated; only now drop the source's copy.
	// A failed delete strands a harmless extra copy the next scan's
	// drain pass can retry; it never loses data.
	src.DeleteShard(ctx, object, idx)
	r.migrations["copied"].Inc()
	r.migrateBytes.Add(uint64(shardBytes))
	return nil
}

// migrateByRebuild converges a migration whose source cannot supply a
// healthy copy: the shard is rebuilt at its new placement by the
// repair path's shard-domain rebuild (RepairOne), then whatever stale
// copy the old home still holds is dropped.
func (r *Repairer) migrateByRebuild(ctx context.Context, it *repairItem, src *node.Client) error {
	if err := r.RepairOne(ctx, it.Object, it.Index); err != nil {
		return err
	}
	src.DeleteShard(ctx, it.Object, it.Index)
	r.migrations["rebuilt"].Inc()
	return nil
}
