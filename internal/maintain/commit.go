package maintain

import (
	"fmt"
	"sort"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/view"
)

// commitRec is one undo-log entry: the content of a (node, array, key) slot
// before the commit phase wrote it. had=false records that the slot was
// empty, so rollback deletes whatever the commit created there.
type commitRec struct {
	node int
	name string
	key  array.ChunkKey
	prev *array.Chunk
	had  bool
}

// committer applies the batch's mutations with write-ahead undo records:
// every put and delete first reads and logs the destination's prior
// content. The pre-image is captured before the write is attempted, so even
// an ambiguous outcome (the write applied but its ack was lost) rolls back
// cleanly. All operations are idempotent puts and deletes — no merges — so
// retrying or rolling back a partially committed batch is always safe.
type committer struct {
	cl   *cluster.Cluster
	es   *execState
	undo []commitRec
}

func (es *execState) beginCommit(cl *cluster.Cluster) *committer {
	es.cm = &committer{cl: cl, es: es}
	return es.cm
}

// write stores ch at node, recording the slot's prior content first.
// Node-down errors are returned for the caller to redirect.
//
// The pre-image read for the undo log doubles as the delta base: when the
// fabric speaks the wire protocol, only the cells that changed against the
// resident content travel (an ACHΔ patch). A patch that errors or reports
// applied=false — base drifted, delta not smaller, or a replayed patch
// finding the new content already resident — falls back to the idempotent
// full put, so retry semantics are unchanged.
func (cm *committer) write(node int, name string, key array.ChunkKey, ch *array.Chunk) error {
	resident, err := cm.cl.HasAt(node, name, key)
	if err != nil {
		return err
	}
	var prev *array.Chunk
	if resident {
		prev, err = cm.cl.GetAt(node, name, key)
		if err != nil {
			return err
		}
	}
	cm.undo = append(cm.undo, commitRec{node, name, key, prev, resident})
	// The same pre-image read that feeds the undo log retains the chunk's
	// published version for pinned snapshot readers — retention must precede
	// the overwrite so a racing reader either misses it (and then provably
	// read pre-overwrite content) or finds it.
	cm.cl.Epochs().Retain(name, key, prev)
	if prev != nil && node != cluster.Coordinator {
		if wf, ok := cm.cl.Fabric().(cluster.WireFabric); ok {
			if delta, ok := array.ComputeDelta(prev, ch); ok {
				applied, perr := wf.Patch(node, name, key, prev.ContentHash(), delta, ch.EncodedSize())
				if perr == nil && applied {
					return nil
				}
			}
		}
	}
	return cm.cl.PutAtRetry(node, name, ch)
}

// writeRedirect writes with bounded redirection: a dead target is marked
// dead and the write moves to a surviving node. Returns the node actually
// written.
func (cm *committer) writeRedirect(node int, name string, key array.ChunkKey, ch *array.Chunk) (int, error) {
	for {
		err := cm.write(node, name, key, ch)
		if err == nil {
			return node, nil
		}
		if !cluster.IsNodeDown(err) {
			return node, err
		}
		cm.es.markDead(node)
		next, aerr := cm.es.pickAlive(cm.cl.NumNodes())
		if aerr != nil {
			return node, err
		}
		node = next
	}
}

// delete evicts a chunk, recording its content for rollback. A dead node is
// tolerated: the copy it holds is unreachable anyway and the catalog no
// longer points at it. A lost delete ack is retried once — deletion is
// idempotent.
func (cm *committer) delete(node int, name string, key array.ChunkKey) error {
	resident, err := cm.cl.HasAt(node, name, key)
	if err != nil {
		if cluster.IsNodeDown(err) {
			cm.es.markDead(node)
			return nil
		}
		return err
	}
	if !resident {
		return nil
	}
	prev, err := cm.cl.GetAt(node, name, key)
	if err != nil {
		if cluster.IsNodeDown(err) {
			cm.es.markDead(node)
			return nil
		}
		return err
	}
	cm.undo = append(cm.undo, commitRec{node, name, key, prev, true})
	cm.cl.Epochs().Retain(name, key, prev)
	if _, err := cm.cl.DeleteAt(node, name, key); err != nil {
		if cluster.IsNodeDown(err) {
			cm.es.markDead(node)
			return nil
		}
		if _, rerr := cm.cl.DeleteAt(node, name, key); rerr != nil {
			return err
		}
	}
	return nil
}

// rollback undoes every logged write in reverse order, best-effort: slots
// that held content get it back, slots that were empty are re-emptied. A
// node that is down never durably received the write being undone (or, for
// ack-lost faults, receives the restore the same way it received the
// write), so errors here are not actionable and are swallowed.
func (cm *committer) rollback() {
	for i := len(cm.undo) - 1; i >= 0; i-- {
		r := cm.undo[i]
		if r.had {
			_ = cm.cl.PutAtRetry(r.node, r.name, r.prev)
		} else {
			_, _ = cm.cl.DeleteAt(r.node, r.name, r.key)
		}
	}
	cm.undo = nil
}

// commitBatch applies the staged batch: view chunks first, then the delta
// ingest (or erase) into the base arrays, then array rehomes. Iteration is
// key-sorted everywhere so a re-executed batch replays the same write
// sequence.
func commitBatch(ctx *Context, p *Plan, es *execState) error {
	cm := es.beginCommit(ctx.Cluster)
	if err := commitView(ctx, p, es, cm); err != nil {
		return err
	}
	if ctx.Deleting {
		return commitErase(ctx, es, cm)
	}
	return commitIngest(ctx, p, es, cm)
}

// commitView folds each view chunk's staged differential into its prior
// content and writes the result at the planned home (or a surviving node),
// moving chunks whose home changed and refreshing the catalog.
func commitView(ctx *Context, p *Plan, es *execState, cm *committer) error {
	cl := ctx.Cluster
	cat := cl.Catalog()
	fold, err := ctx.Def.StateMergeSpec().Func()
	if err != nil {
		return err
	}

	keys := make([]array.ChunkKey, 0, len(p.ViewHome))
	for v := range p.ViewHome {
		keys = append(keys, v)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	for _, v := range keys {
		j := p.ViewHome[v]
		cur, exists := ctx.ViewHomeOf(v)
		es.mu.Lock()
		stageNode := es.stageHome[v]
		staged := es.stageCount[v] > 0
		es.mu.Unlock()
		if !staged && (!exists || cur == j) {
			continue // untouched and already home (or never materialized)
		}
		var old, final *array.Chunk
		if exists {
			old, _, err = cl.ReadReplica(ctx.ViewName, v, cur)
			if err != nil {
				return fmt.Errorf("maintain: reading view chunk %v: %w", v.Coord(), err)
			}
		}
		if staged {
			stagedCh, err := cl.GetAt(stageNode, es.staging, v)
			if err != nil {
				return fmt.Errorf("maintain: reading staged view chunk %v: %w", v.Coord(), err)
			}
			if old != nil {
				final = old
				if err := fold(final, stagedCh); err != nil {
					return err
				}
			} else {
				final = stagedCh
			}
		} else {
			final = old
		}
		target := j
		if es.isDead(target) {
			if target, err = es.pickAlive(cl.NumNodes()); err != nil {
				return err
			}
		}
		actual, err := cm.writeRedirect(target, ctx.ViewName, v, final)
		if err != nil {
			return err
		}
		if exists && cur != actual {
			if err := cm.delete(cur, ctx.ViewName, v); err != nil {
				return err
			}
		}
		if err := cat.SetChunk(ctx.ViewName, v, actual, final.SizeBytes(), final.NumCells()); err != nil {
			return err
		}
	}
	return nil
}

// rehash re-records a base chunk's content hash after the commit rewrote
// it: SetChunk drops the recorded hash because the content changed, which
// is fine for wire dedup (senders re-hash lazily) but starves the adaptive
// path's content-addressed join memo — a base chunk without a catalog hash
// can never hit. Only runs when a memo is active, so the all-eager path
// keeps its exact cost profile.
func rehash(ctx *Context, name string, key array.ChunkKey, ch *array.Chunk) {
	if ctx.JoinMemo == nil {
		return
	}
	_ = ctx.Cluster.Catalog().SetChunkHash(name, key, ch.ContentHash(), ch.EncodedSize())
}

// commitIngest folds the staged insert chunks into the base array and
// applies the plan's array chunk reassignments.
func commitIngest(ctx *Context, p *Plan, es *execState, cm *committer) error {
	cl := ctx.Cluster
	cat := cl.Catalog()
	n := cl.NumNodes()
	cellsFold, err := cluster.MergeSpec{Kind: cluster.MergeCells}.Func()
	if err != nil {
		return err
	}

	handled := make(map[view.ChunkRef]bool)
	for _, dn := range es.deltaNames {
		baseName := ctx.BaseNameFor(dn)
		for _, key := range cat.Keys(dn) {
			ref := view.ChunkRef{Array: dn, Key: key}
			dch, err := cl.FetchChunk(dn, key, cluster.Coordinator)
			if err != nil {
				return err
			}
			if baseHome, exists := cat.Home(baseName, key); exists {
				// Fold new cells into the existing base chunk — at its
				// rehome target when the plan moved it and a live fresh
				// replica is already there (free: the join plan shipped
				// it), else at its current home.
				baseRef := view.ChunkRef{Array: baseName, Key: key}
				target := baseHome
				if j, ok := p.ArrayRehome[baseRef]; ok && j != baseHome && !es.isDead(j) && cat.HasReplica(baseName, key, j) {
					if resident, err := cl.HasAt(j, baseName, key); err == nil && resident {
						target = j
					}
				}
				old, _, err := cl.ReadReplica(baseName, key, target)
				if err != nil {
					return err
				}
				if err := cellsFold(old, dch); err != nil {
					return err
				}
				if es.isDead(target) {
					if target, err = es.pickAlive(n); err != nil {
						return err
					}
				}
				actual, err := cm.writeRedirect(target, baseName, key, old)
				if err != nil {
					return err
				}
				if actual != baseHome {
					if err := cm.delete(baseHome, baseName, key); err != nil {
						return err
					}
				}
				if err := cat.SetChunk(baseName, key, actual, old.SizeBytes(), old.NumCells()); err != nil {
					return err
				}
				if bb, ok := old.BoundingBox(); ok {
					if err := cat.SetChunkBBox(baseName, key, bb); err != nil {
						return err
					}
				}
				rehash(ctx, baseName, key, old)
				handled[baseRef] = true
				continue
			}
			// Brand-new chunk: home from the plan, falling back to static
			// placement; dead homes divert to a survivor.
			home, ok := p.ArrayRehome[ref]
			if !ok {
				home = ctx.ArrayPlacement.Place(key, n)
			}
			if es.isDead(home) {
				if home, err = es.pickAlive(n); err != nil {
					return err
				}
			}
			actual, err := cm.writeRedirect(home, baseName, key, dch)
			if err != nil {
				return err
			}
			if err := cat.SetChunk(baseName, key, actual, dch.SizeBytes(), dch.NumCells()); err != nil {
				return err
			}
			if bb, ok := dch.BoundingBox(); ok {
				if err := cat.SetChunkBBox(baseName, key, bb); err != nil {
					return err
				}
			}
			rehash(ctx, baseName, key, dch)
		}
	}

	// Reassign existing base chunks that gained a replica this batch and
	// were not already handled by the delta fold above.
	for _, rh := range sortedRehomes(p.ArrayRehome) {
		ref, j := rh.ref, rh.to
		if ctx.IsDelta(ref) || handled[ref] {
			continue
		}
		cur, exists := cat.Home(ref.Array, ref.Key)
		if !exists || cur == j {
			continue
		}
		if !cat.HasReplica(ref.Array, ref.Key, j) {
			continue // plan promised a replica; be safe if it is absent
		}
		if resident, err := cl.HasAt(j, ref.Array, ref.Key); err != nil || !resident {
			continue
		}
		if err := cm.delete(cur, ref.Array, ref.Key); err != nil {
			return err
		}
		if err := cat.Rehome(ref.Array, ref.Key, j, true); err != nil {
			return err
		}
	}
	return nil
}

// commitErase removes the staged deletion cells from the base array,
// dropping chunks that become empty.
func commitErase(ctx *Context, es *execState, cm *committer) error {
	cl := ctx.Cluster
	cat := cl.Catalog()
	eraseFold, err := cluster.MergeSpec{Kind: cluster.MergeErase}.Func()
	if err != nil {
		return err
	}
	for _, dn := range es.deltaNames {
		baseName := ctx.BaseNameFor(dn)
		for _, key := range cat.Keys(dn) {
			dch, err := cl.FetchChunk(dn, key, cluster.Coordinator)
			if err != nil {
				return err
			}
			baseHome, exists := cat.Home(baseName, key)
			if !exists {
				return fmt.Errorf("maintain: deleting from absent chunk %v of %s", key.Coord(), baseName)
			}
			old, _, err := cl.ReadReplica(baseName, key, baseHome)
			if err != nil {
				return err
			}
			if err := eraseFold(old, dch); err != nil {
				return err
			}
			if old.NumCells() == 0 {
				if err := cm.delete(baseHome, baseName, key); err != nil {
					return err
				}
				cat.DropChunk(baseName, key)
				continue
			}
			target := baseHome
			if es.isDead(target) {
				if target, err = es.pickAlive(cl.NumNodes()); err != nil {
					return err
				}
			}
			actual, err := cm.writeRedirect(target, baseName, key, old)
			if err != nil {
				return err
			}
			if actual != baseHome {
				if err := cm.delete(baseHome, baseName, key); err != nil {
					return err
				}
			}
			if err := cat.SetChunk(baseName, key, actual, old.SizeBytes(), old.NumCells()); err != nil {
				return err
			}
			if bb, ok := old.BoundingBox(); ok {
				if err := cat.SetChunkBBox(baseName, key, bb); err != nil {
					return err
				}
			}
			rehash(ctx, baseName, key, old)
		}
	}
	return nil
}

// cleanupBatch tears down the batch's scratch state best-effort: the
// staging namespace, the delta namespaces (workers and coordinator — the
// coordinator's copy used to leak), plan transfers and failover ships that
// landed away from a chunk's final home, and scratch replica entries.
// Cleanup runs after the commit point (or after a rollback), so failures
// here must never change the batch's outcome; errors are swallowed.
//
// With Context.KeepScratch installed (pipelined execution), replicas the predicate
// claims survive the scrub, and the base arrays' replica records are left
// intact instead of being cleared wholesale: in-flight successor batches
// resolve transfer sources and failover reads from those records, and every
// surviving record still names a physically present copy (only the scrubbed
// ones are deleted, record and chunk together).
func cleanupBatch(ctx *Context, p *Plan, es *execState) {
	cl := ctx.Cluster
	cat := cl.Catalog()
	n := cl.NumNodes()
	tasks := make(map[int][]cluster.Task)
	for node := 0; node < n; node++ {
		node := node
		tasks[node] = append(tasks[node], func() error {
			_, _ = cl.DropArrayAt(node, es.staging)
			return nil
		})
		for _, dn := range es.deltaNames {
			dn := dn
			tasks[node] = append(tasks[node], func() error {
				_, _ = cl.DropArrayAt(node, dn)
				return nil
			})
		}
	}
	type scrub struct {
		ref view.ChunkRef
		to  int
	}
	seen := make(map[scrub]bool, len(p.Transfers)+len(es.extra))
	addScrub := func(ref view.ChunkRef, to int) {
		if ctx.IsDelta(ref) {
			return // already dropped with the namespace
		}
		s := scrub{ref, to}
		if seen[s] {
			return
		}
		seen[s] = true
		home, exists := cat.Home(ref.Array, ref.Key)
		if exists && to == home {
			return // the scratch replica became the chunk's home; keep it
		}
		if ctx.KeepScratch != nil && ctx.KeepScratch(ref, to) {
			return // an in-flight successor batch claimed this replica
		}
		tasks[to] = append(tasks[to], func() error {
			_, _ = cl.DeleteAt(to, ref.Array, ref.Key)
			cat.RemoveReplica(ref.Array, ref.Key, to)
			return nil
		})
	}
	for _, t := range p.Transfers {
		addScrub(t.Ref, t.To)
	}
	for _, x := range es.extraShips() {
		addScrub(x.ref, x.to)
	}
	_ = cl.RunPerNode(tasks)
	dropDeltas(cl, es.deltaNames)
	if ctx.KeepScratch == nil {
		for _, name := range []string{ctx.BaseAlpha, ctx.BaseBeta} {
			cat.ClearReplicas(name)
		}
	}
}

// dropDeltas removes staged delta namespaces from the coordinator's store and
// the catalog, best-effort.
func dropDeltas(cl *cluster.Cluster, names []string) {
	for _, dn := range names {
		_, _ = cl.DropArrayAt(cluster.Coordinator, dn)
		cl.Catalog().Drop(dn)
	}
}

// rehomeEntry is one ArrayRehome assignment in deterministic order.
type rehomeEntry struct {
	ref view.ChunkRef
	to  int
}

func sortedRehomes(m map[view.ChunkRef]int) []rehomeEntry {
	out := make([]rehomeEntry, 0, len(m))
	for ref, to := range m {
		out = append(out, rehomeEntry{ref, to})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ref.Array != out[j].ref.Array {
			return out[i].ref.Array < out[j].ref.Array
		}
		return out[i].ref.Key < out[j].ref.Key
	})
	return out
}
