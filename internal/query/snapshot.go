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
// merge lands on a copy-on-write overlay), and the Δ decomposition and
// chunk pairs come from the memos. All of it is exact: the result is
// byte-identical to the cold path's.
//
// The cost-model decision under Auto is priced on the same snapshot, over
// the chunk pairs the chosen path then joins, so a decision is as pinned to
// its epoch as the answer it picks.
func (e *Engine) AnswerSnapshot(ctx context.Context, snap *cluster.Snapshot, rc *cluster.ReadCache, queryShape *shape.Shape, mode Mode) (*Result, error) {
	ch, err := e.decideForMode(ctx, snap, queryShape, mode)
	if err != nil {
		return nil, err
	}
	if !ch.UseView {
		out, err := e.snapshotJoin(ctx, snap, rc, queryShape, ch.pairs, nil)
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
	diff, err := e.snapshotJoin(ctx, snap, rc, ch.Delta, ch.pairs, ch.signOf)
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

// snapshotJoin runs the similarity join of one shape over the snapshot's
// base chunks, accumulating aggregate state into a local result array.
// Every pair evaluates here, at the caller. pl is the decision's priced
// pair list for the shape; nil enumerates it (see snapshotPairs).
//
// Each pair is evaluated into its own partial and the partials fold into
// the result in ascending pair order — on one goroutine or many, the same
// additions happen in the same order, so the parallel kernel is bitwise
// identical to the serial one.
func (e *Engine) snapshotJoin(ctx context.Context, snap *cluster.Snapshot, rc *cluster.ReadCache, sh *shape.Shape, pl *pairList, signOf func(off []int64) float64) (*array.Array, error) {
	def := e.Def
	baseName := def.Alpha.Name
	if pl == nil {
		var err error
		if pl, err = e.snapshotPairs(snap, sh); err != nil {
			return nil, err
		}
	}
	vs := def.Schema()
	out := array.New(vs)
	pairs := pl.pairs
	if len(pairs) == 0 {
		return out, nil
	}
	pred := simjoin.NewPred(sh, def.Pred.Mapping)

	// Fetch each distinct chunk once, up front. The fetch order is the
	// first-use order of the serial loop, so the cold path's read pattern
	// (and read-cache behavior) is unchanged.
	chunks := make([]*array.Chunk, len(pl.keys))
	for _, pr := range pairs {
		for _, i := range pr {
			if chunks[i] != nil {
				continue
			}
			ch, err := snap.CachedChunk(baseName, pl.keys[i], rc)
			if err != nil {
				return nil, err
			}
			chunks[i] = ch
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
		if ch != nil {
			ch.Warm()
		}
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

// pairList is one join shape's ordered chunk pairs at one snapshot, as
// index pairs into the snapshot's sorted base keys, with the two byte
// totals Eq. 3 prices them by: joinBytes is Σ(B_p + B_q) over the pairs and
// fetchBytes the bytes of the distinct chunks they read.
type pairList struct {
	keys                  []array.ChunkKey
	pairs                 [][2]int32
	joinBytes, fetchBytes int64
}

// snapshotPairs enumerates the ordered chunk pairs of the base array that
// can match under the shape, in deterministic (sorted-key) order, with
// their sizes at the snapshot's epoch. With a FastPath the list memoizes
// per (epoch, shape box): the epoch freezes the occupied chunk set and
// their sizes, and Pred.PairChunks reads only the box, so a hit is exact.
func (e *Engine) snapshotPairs(snap *cluster.Snapshot, sh *shape.Shape) (*pairList, error) {
	baseName := e.Def.Alpha.Name
	schema := snap.Schema(baseName)
	if schema == nil {
		return nil, fmt.Errorf("query: base array %q not in snapshot %d", baseName, snap.Epoch())
	}
	f := e.Fast
	box := boxKey(sh)
	if pl := f.lookupPairs(snap.Epoch(), box); pl != nil {
		f.countMemo(true)
		return pl, nil
	}
	pl := &pairList{keys: snap.Keys(baseName)}
	slot := make(map[array.ChunkKey]int32, len(pl.keys))
	sizes := make([]int64, len(pl.keys))
	for i, k := range pl.keys {
		slot[k] = int32(i)
		_, sizes[i], _, _ = snap.ChunkMeta(baseName, k)
	}
	pred := simjoin.NewPred(sh, e.Def.Pred.Mapping)
	fetched := make([]bool, len(pl.keys))
	for pi, pk := range pl.keys {
		// ChunksOverlapping yields exactly the chunks whose region meets the
		// reach region: the pairs Pred.PairChunks admits.
		for _, cc := range schema.ChunksOverlapping(pred.ReachRegion(schema.ChunkRegion(pk.Coord()))) {
			qi, ok := slot[cc.Key()]
			if !ok {
				continue
			}
			pl.pairs = append(pl.pairs, [2]int32{int32(pi), qi})
			pl.joinBytes += sizes[pi] + sizes[qi]
			fetched[pi], fetched[qi] = true, true
		}
	}
	for i, ok := range fetched {
		if ok {
			pl.fetchBytes += sizes[i]
		}
	}
	if f != nil {
		f.countMemo(false)
		f.storePairs(snap.Epoch(), box, pl)
	}
	return pl, nil
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
