package query

import (
	"context"
	"fmt"
	"sync/atomic"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/shape"
	"github.com/arrayview/arrayview/internal/simjoin"
	"github.com/arrayview/arrayview/internal/view"
)

// AnswerSnapshot evaluates the query against a snapshot instead of the live
// cluster. It is the one query evaluator: Answer and the serving daemon both
// end here. It is strictly read-only — no transfers, no scratch arrays, no
// catalog writes — so any number of these can run concurrently with each
// other and with maintenance commits. The view is gathered at the
// snapshot's epoch and the Δ-shape (or complete) similarity join is
// evaluated locally at the caller over snapshot base chunk reads, every one
// of which resolves through the epoch's retained versions. The optional
// read cache absorbs repeated chunk fetches across queries by content hash.
//
// Chunk-pair joins fan out across a worker pool either way. With
// Engine.Fast attached, two caches engage as well: the assembled view comes
// from the epoch-keyed view cache (shared read-only; this answer's signed
// merge lands on a copy-on-write overlay), and the Δ decomposition, plan
// costs and chunk pairs come from the memos. All of it is exact: the result
// is byte-identical to the cold path's.
//
// The cost-model decision under Auto still prices plans against the live
// catalog — pricing tracks the current layout, while correctness is pinned
// to the snapshot.
func (e *Engine) AnswerSnapshot(ctx context.Context, snap *cluster.Snapshot, rc *cluster.ReadCache, queryShape *shape.Shape, mode Mode) (*Result, error) {
	ch, err := e.decideForMode(ctx, queryShape, mode)
	if err != nil {
		return nil, err
	}
	if !ch.UseView {
		pred := simjoin.NewPred(queryShape, e.Def.Pred.Mapping)
		out, err := e.snapshotJoin(ctx, snap, rc, pred, nil)
		if err != nil {
			return nil, err
		}
		return &Result{Array: out, Choice: ch}, nil
	}

	out, release, err := e.snapshotView(snap, rc)
	if err != nil {
		return nil, err
	}
	defer release()
	if ch.Delta == nil {
		// The query IS the view: the assembled view is the whole answer.
		return &Result{Array: out, Choice: ch}, nil
	}
	pred := simjoin.NewPred(ch.Delta, e.Def.Pred.Mapping)
	diff, err := e.snapshotJoin(ctx, snap, rc, pred, ch.signOf)
	if err != nil {
		return nil, err
	}
	// MergeDelta mutates matched state tuples in place through Get, which
	// on a shared cached view would write through to the cache. Owning the
	// overlay's diff-touched chunks first keeps the base immutable.
	diff.EachChunk(func(c *array.Chunk) bool {
		out.EnsureOwned(c.Key())
		return true
	})
	if err := view.MergeDelta(e.Def, out, diff); err != nil {
		return nil, err
	}
	return &Result{Array: out, Choice: ch}, nil
}

// snapshotView returns the assembled view at the snapshot's epoch. Through
// the view cache it is a shallow copy-on-write overlay of the shared warmed
// base (chunks clone lazily on first write); without a cache the caller
// owns a fresh gather outright.
func (e *Engine) snapshotView(snap *cluster.Snapshot, rc *cluster.ReadCache) (*array.Array, func(), error) {
	if e.Fast != nil && e.Fast.Views != nil {
		base, release, err := e.Fast.Views.Acquire(e.Def.Name, snap, rc)
		if err != nil {
			return nil, nil, err
		}
		return base.ShallowClone(), release, nil
	}
	arr, err := snap.GatherCached(e.Def.Name, rc)
	if err != nil {
		return nil, nil, err
	}
	return arr, func() {}, nil
}

// snapshotJoin runs the similarity join over the snapshot's base chunks,
// accumulating aggregate state into a local result array. The chunk-pair
// enumeration mirrors fullJoinUnits, but against the snapshot's chunk map
// and without any placement concern: every pair evaluates here, at the
// caller.
//
// Each pair is evaluated into its own partial and the partials fold into
// the result in ascending pair order — on one goroutine or many, the same
// additions happen in the same order, so the parallel kernel is bitwise
// identical to the serial one.
func (e *Engine) snapshotJoin(ctx context.Context, snap *cluster.Snapshot, rc *cluster.ReadCache, pred simjoin.Pred, signOf func(off []int64) float64) (*array.Array, error) {
	def := e.Def
	baseName := def.Alpha.Name
	schema := snap.Schema(baseName)
	if schema == nil {
		return nil, fmt.Errorf("query: base array %q not in snapshot %d", baseName, snap.Epoch())
	}
	vs := def.Schema()
	out := array.New(vs)

	pairs := e.snapshotPairs(snap, pred)
	if len(pairs) == 0 {
		return out, nil
	}

	// Fetch each distinct chunk once, up front. The fetch order is the
	// first-use order of the serial loop, so the cold path's read pattern
	// (and read-cache behavior) is unchanged.
	chunks := make(map[array.ChunkKey]*array.Chunk)
	for _, pr := range pairs {
		for _, key := range pr {
			if _, ok := chunks[key]; ok {
				continue
			}
			ch, err := snap.CachedChunk(baseName, key, rc)
			if err != nil {
				return nil, err
			}
			chunks[key] = ch
		}
	}

	workers := e.Fast.workers()
	if workers > len(pairs) {
		workers = len(pairs)
	}
	if workers <= 1 {
		for _, pr := range pairs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			part, err := pairPartial(def, vs, pred, chunks[pr[0]], chunks[pr[1]], signOf)
			if err != nil {
				return nil, err
			}
			if err := mergePartial(def, out, part); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	// Parallel kernel. Shared chunks must serve concurrent readers, so
	// every lazy per-chunk cache is built before fan-out.
	for _, ch := range chunks {
		ch.Warm()
	}
	type pairResult struct {
		idx  int
		part map[array.ChunkKey]*array.Chunk
		err  error
	}
	var next atomic.Int64
	results := make(chan pairResult, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pairs) {
					return
				}
				if err := ctx.Err(); err != nil {
					// Still emit one result per claimed index so the
					// merger's receive count stays exact.
					results <- pairResult{idx: i, err: err}
					continue
				}
				pr := pairs[i]
				part, err := pairPartial(def, vs, pred, chunks[pr[0]], chunks[pr[1]], signOf)
				results <- pairResult{idx: i, part: part, err: err}
			}
		}()
	}
	// Merge in ascending pair order through a reorder buffer: out-of-order
	// arrivals park until their turn.
	parked := make(map[int]map[array.ChunkKey]*array.Chunk, workers)
	var firstErr error
	nextMerge := 0
	for received := 0; received < len(pairs); received++ {
		r := <-results
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		if firstErr != nil {
			continue
		}
		parked[r.idx] = r.part
		for {
			part, ok := parked[nextMerge]
			if !ok {
				break
			}
			delete(parked, nextMerge)
			nextMerge++
			if err := mergePartial(def, out, part); err != nil {
				firstErr = err
				break
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// snapshotPairs enumerates the ordered chunk pairs of the base array that
// can match under the predicate, in deterministic (sorted-key) order. With
// a FastPath the list memoizes per (epoch, join-shape fingerprint): the
// epoch freezes the occupied chunk set, so a hit is exact.
func (e *Engine) snapshotPairs(snap *cluster.Snapshot, pred simjoin.Pred) [][2]array.ChunkKey {
	baseName := e.Def.Alpha.Name
	schema := snap.Schema(baseName)
	f := e.Fast
	fp := ""
	if f != nil {
		if sfp, err := pred.Shape.Fingerprint(); err == nil {
			fp = sfp
			if pairs, ok := f.lookupPairs(snap.Epoch(), fp); ok {
				f.countMemo(true)
				return pairs
			}
		}
	}
	var pairs [][2]array.ChunkKey
	for _, pk := range snap.Keys(baseName) {
		pr := schema.ChunkRegion(pk.Coord())
		reach := pred.ReachRegion(pr)
		for _, cc := range schema.ChunksOverlapping(reach) {
			qk := cc.Key()
			if _, _, _, ok := snap.ChunkMeta(baseName, qk); !ok {
				continue
			}
			qr := schema.ChunkRegion(qk.Coord())
			if !pred.PairChunks(pr, qr) {
				continue
			}
			pairs = append(pairs, [2]array.ChunkKey{pk, qk})
		}
	}
	if f != nil && fp != "" {
		f.countMemo(false)
		f.storePairs(snap.Epoch(), fp, pairs)
	}
	return pairs
}

// pairPartial evaluates one chunk pair of the similarity join into a
// private set of partial result chunks. It never touches shared state, so
// any number of pairs may evaluate concurrently over warmed chunks.
func pairPartial(def *view.Definition, vs *array.Schema, pred simjoin.Pred, cp, cq *array.Chunk, signOf func(off []int64) float64) (map[array.ChunkKey]*array.Chunk, error) {
	partials := make(map[array.ChunkKey]*array.Chunk)
	var joinErr error
	pred.JoinChunkPair(cp, cq, func(a, b array.Point, ta, tb array.Tuple) bool {
		if !def.AlphaMatch(ta) || !def.BetaMatch(tb) {
			return true
		}
		sign := 1.0
		if signOf != nil {
			ma := pred.Mapping.Map(a)
			o := make([]int64, len(b))
			for d := range b {
				o[d] = b[d] - ma[d]
			}
			sign = signOf(o)
			if sign == 0 {
				return true
			}
		}
		g := def.GroupPoint(a)
		key := vs.ChunkCoordOf(g).Key()
		part, ok := partials[key]
		if !ok {
			part = array.NewChunk(vs, key.Coord())
			partials[key] = part
		}
		contrib := def.Contribution(tb)
		if sign != 1 {
			for ci := range contrib {
				contrib[ci] *= sign
			}
		}
		if cur, found := part.Get(g); found {
			def.AddState(cur, contrib)
			joinErr = part.Set(g, cur)
		} else {
			joinErr = part.Set(g, contrib)
		}
		return joinErr == nil
	})
	if joinErr != nil {
		return nil, joinErr
	}
	return partials, nil
}

// mergePartial folds one pair's partial chunks into the result array.
// Cells are independent, so only the per-pair fold order (the caller's
// ascending pair order) affects floating-point results.
func mergePartial(def *view.Definition, out *array.Array, partials map[array.ChunkKey]*array.Chunk) error {
	var err error
	for _, part := range partials {
		part.Each(func(g array.Point, st array.Tuple) bool {
			if cur, found := out.Get(g); found {
				def.AddState(cur, st)
				err = out.Set(g, cur)
			} else {
				err = out.Set(g, st)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}
