package maintain

import (
	"context"
	"fmt"
	"sync"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/view"
)

// AdaptiveConfig tunes the heavy-light adaptive maintenance layer.
type AdaptiveConfig struct {
	// HeavyThreshold / TopK / Hysteresis / Project configure the
	// classifier (see Classifier). TopK > 0 switches to relative mode.
	HeavyThreshold float64
	TopK           float64
	Hysteresis     float64
	Project        func(array.ChunkKey) array.ChunkKey

	// MaxPendingBatches bounds staleness debt: at most this many distinct
	// batches may have deferred deltas outstanding before the drainer
	// materializes the oldest. <= 0 means unbounded.
	MaxPendingBatches int
	// MaxPendingCells bounds the total deferred cell count the same way.
	MaxPendingCells int
	// PromoteEntries force-promotes a light class once its chunks hold
	// this many pending entries — the log itself is evidence the chunk is
	// not actually cold. <= 0 disables.
	PromoteEntries int
	// PromoteTouches force-promotes a class after this many query-driven
	// lazy materializations hit it. <= 0 disables.
	PromoteTouches int
	// MemoCap bounds the cached-join-state entries (DefaultJoinMemoCap
	// when 0).
	MemoCap int

	// Counters receives the layer's observability gauges and counters; nil
	// gets a private set nobody reads.
	Counters *obs.AdaptiveCounters
}

// DefaultAdaptiveConfig returns the tuning used by the skew benchmark: an
// absolute promotion score of 1.5 (a class must have been touched in the
// current batch and at least once recently), 0.5 hysteresis, a staleness
// bound of 4 batches, and pressure promotion after 3 pending entries.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		HeavyThreshold:    1.5,
		Hysteresis:        0.5,
		MaxPendingBatches: 4,
		PromoteEntries:    3,
		PromoteTouches:    2,
	}
}

// AdaptiveReport summarizes one adaptively maintained batch.
type AdaptiveReport struct {
	// Heavy is the eager part's report; nil when every chunk deferred.
	Heavy *Report
	// Drains are the reports of materializations this batch forced
	// (conflict fences, pressure promotions, the staleness drainer).
	Drains []*Report

	HeavyChunks   int // delta chunks maintained eagerly
	LightChunks   int // delta chunks deferred to the pending log
	DeferredCells int
	// MaterializedEntries counts pending entries replayed during this
	// batch (for any reason).
	MaterializedEntries int
	Promoted, Demoted   int
}

// ExecSeconds sums measured execution wall-clock across the eager part and
// every forced materialization — the number comparable to an all-eager
// batch's ExecSeconds.
func (r *AdaptiveReport) ExecSeconds() float64 {
	var s float64
	if r.Heavy != nil {
		s += r.Heavy.ExecSeconds
	}
	for _, d := range r.Drains {
		s += d.ExecSeconds
	}
	return s
}

// AdaptiveMaintainer wraps a Maintainer with the heavy-light split: per
// batch it reclassifies chunks from the decaying update-frequency window,
// maintains heavy chunks eagerly (with two layers of cross-batch scratch —
// a content-addressed join-state memo and a per-footprint plan cache), and
// defers light chunks to the catalog's pending-delta log, materializing
// them on first query touch, on conflict with incoming eager work, on
// pressure promotion, or when the staleness bound trips.
//
// Exactness: the final view is bit-identical to all-eager maintenance.
// Two ingredients make that hold with no restrictions on the workload:
//
//  1. Order within a chunk: pending entries replay grouped by original
//     batch seq, ascending, each seq as its own executor batch — so a
//     chunk's cells apply in arrival order even when a later batch
//     overwrites an earlier one's cells (the PTF replay pattern).
//  2. Order across chunks: deferral reorders updates only where that is
//     provably invisible. A single deferred entry under a never-repeated
//     chunk key commutes with everything — any pair it can form is picked
//     up from the committed base by whichever side applies second, exactly
//     once either way. Where a chunk key repeats (an incoming chunk
//     overwriting base or deferred cells, or a multi-entry overwrite chain
//     in the log), the conflict fence materializes the hazardous pending
//     chunks and their join-reachable pending closure per-seq before the
//     eager part runs, so every pair involving overwritten content is
//     derived in eager-schedule order (see fenceConflicts).
//
// Snapshot isolation needs no extra machinery: deferred cells live only in
// the log (never in live arrays), and a materialization is a normal staged
// commit that publishes its own epoch — a pinned reader either sees the
// epoch before it (no pending content) or after it (all of it).
//
// All entry points serialize on one mutex; concurrent queries only contend
// when a materialization is actually needed.
type AdaptiveMaintainer struct {
	mu  sync.Mutex
	m   *Maintainer
	cls *Classifier
	cfg AdaptiveConfig

	seq     int
	touches map[array.ChunkKey]int // query-driven materializations per class
	seen    map[array.ChunkKey]bool
}

// NewAdaptiveMaintainer wires the adaptive layer over a fresh Maintainer.
func NewAdaptiveMaintainer(cl *cluster.Cluster, def *view.Definition, planner Planner, params Params, cfg AdaptiveConfig) (*AdaptiveMaintainer, error) {
	m, err := NewMaintainer(cl, def, planner, params)
	if err != nil {
		return nil, err
	}
	if !def.SelfJoin() {
		return nil, fmt.Errorf("maintain: adaptive maintenance of %s: %w", def.Name, view.ErrSelfJoinOnly)
	}
	cls := &Classifier{
		HeavyThreshold: cfg.HeavyThreshold,
		TopK:           cfg.TopK,
		Hysteresis:     cfg.Hysteresis,
		Project:        cfg.Project,
	}
	if err := cls.Validate(); err != nil {
		return nil, err
	}
	if cfg.Counters == nil {
		cfg.Counters = &obs.AdaptiveCounters{}
	}
	m.memo = NewJoinMemo(cfg.MemoCap)
	m.scratch = NewPlanScratch(0)
	return &AdaptiveMaintainer{
		m:       m,
		cls:     cls,
		cfg:     cfg,
		touches: make(map[array.ChunkKey]int),
		seen:    make(map[array.ChunkKey]bool),
	}, nil
}

// Inner exposes the wrapped eager maintainer.
func (a *AdaptiveMaintainer) Inner() *Maintainer { return a.m }

// ShareMemo makes another maintainer of the same view on the same cluster
// (the streaming graph's) consult and fill this layer's join-state cache, so
// the two paths reuse each other's join results. Call it before m's first
// batch.
func (a *AdaptiveMaintainer) ShareMemo(m *Maintainer) { m.memo = a.m.memo }

func (a *AdaptiveMaintainer) pending() *cluster.PendingLog {
	return a.m.cl.Catalog().Pending()
}

// Observe records a batch's delta chunk keys into the classification
// window and reclassifies, without maintaining anything. The streaming
// graph calls this per micro-batch: the pipelined path maintains every
// chunk eagerly, but observing keeps the classifier learning (and the
// router's drift weighting current) across both paths.
func (a *AdaptiveMaintainer) Observe(keys []array.ChunkKey) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.observe(keys)
	a.publishGauges()
}

// observe counts every delta chunk toward its class's update frequency —
// regardless of which path will handle it — and reclassifies.
func (a *AdaptiveMaintainer) observe(keys []array.ChunkKey) (promoted, demoted int) {
	classes := make([]array.ChunkKey, len(keys))
	for i, k := range keys {
		classes[i] = a.cls.ProjectKey(k)
		a.seen[classes[i]] = true
	}
	a.m.history.RecordUpdates(classes)
	return a.cls.Reclassify(a.m.history.UpdateScores(a.m.params.Decay))
}

// IsHeavy reports the current classification of a chunk key. Safe for
// concurrent use (the stream router reads it while batches apply).
func (a *AdaptiveMaintainer) IsHeavy(k array.ChunkKey) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cls.IsHeavy(k)
}

// ApplyBatch adaptively maintains the view under a batch of insertions.
func (a *AdaptiveMaintainer) ApplyBatch(delta *array.Array) (*AdaptiveReport, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	rep := &AdaptiveReport{}
	a.seq++
	seq := a.seq

	rep.Promoted, rep.Demoted = a.observe(delta.ChunkKeys())

	// Split the batch. A chunk whose key already exists in the base (or in
	// the pending log) is routed eagerly regardless of its class score:
	// deferring an overwrite would immediately fence its whole join
	// neighborhood (see fenceConflicts), so the lazy path can only ever
	// profit on fresh chunk keys — and keeping replayed chunks eager keeps
	// the eager footprint reproducible, which is what lets the plan scratch
	// and the join memo hit on replay workloads.
	heavy := array.New(delta.Schema())
	var light []*array.Chunk
	cat := a.m.cl.Catalog()
	baseName := a.m.def.Alpha.Name
	delta.EachChunk(func(c *array.Chunk) bool {
		_, inBase := cat.Home(baseName, c.Key())
		if !inBase {
			if n, _ := a.pending().EntriesFor(c.Key()); n > 0 {
				inBase = true
			}
		}
		if inBase || a.cls.IsHeavy(c.Key()) {
			heavy.PutChunk(c)
			rep.HeavyChunks++
		} else {
			light = append(light, c)
			rep.LightChunks++
			rep.DeferredCells += c.NumCells()
		}
		return true
	})

	// Conflict fence: every pending chunk join-reachable from the eager
	// part (closure included) must apply no later than the eager part so
	// cross-chunk pair order matches the eager schedule. When the whole
	// conflicted closure is chunk-disjoint — from the incoming batch and
	// internally — it is folded into the eager batch itself (disjoint
	// inserts commute, and the combined delta×delta join derives exactly
	// the cross-batch pairs the sequential schedule would); only closures
	// with repeated chunk keys, where overwrite order is load-bearing, pay
	// for separate per-seq pre-applies.
	// The fence runs first, against the pre-batch pending log only; the
	// batch's own deferred deltas then enter the log *before* the eager
	// part runs, so the eager part's single retiring commit barrier
	// snapshots the whole input batch atomically — heavy chunks folded
	// into the stores, light chunks in the pending log. Appending after
	// the eager commit (the old order) left a crash window between the two
	// barriers of one input batch in which the lights were silently lost.
	var folded []cluster.PendingEntry
	if rep.HeavyChunks > 0 {
		var err error
		if folded, err = a.fenceConflicts(rep, heavy); err != nil {
			return nil, err
		}
	}
	epoch := a.m.cl.Epochs().Current()
	for _, c := range light {
		a.pending().Append(cluster.PendingEntry{Seq: seq, Key: c.Key(), Chunk: c.Clone(), Epoch: epoch})
	}
	a.cfg.Counters.Deferred.Add(int64(len(light)))
	// takeLight undoes the appends when the batch fails: the keys were
	// fresh, never pending before, so Take removes exactly them — a failed
	// batch leaves the deferred state exactly as it found it.
	takeLight := func() {
		if len(light) == 0 {
			return
		}
		lightKeys := make([]array.ChunkKey, len(light))
		for i, c := range light {
			lightKeys[i] = c.Key()
		}
		a.pending().Take(lightKeys)
		a.cfg.Counters.Deferred.Add(-int64(len(light)))
	}
	if rep.HeavyChunks > 0 {
		hr, err := a.m.apply(Batch{Alpha: heavy})
		if err != nil {
			// The eager part rolled back; the batch's own light appends come
			// out of the log, and the folded pending entries that rode in
			// the eager part go back into it.
			takeLight()
			if len(folded) > 0 {
				a.pending().Restore(folded)
				a.cfg.Counters.Drained.Add(-int64(len(folded)))
			}
			return nil, err
		}
		rep.Heavy = hr
	} else if len(light) > 0 && a.m.cl.Durable() != nil {
		// All-light batch: nothing commits eagerly, so the appends need
		// their own retiring barrier before the batch is acked.
		if err := durableCommit(a.m.cl, true); err != nil {
			takeLight()
			return nil, err
		}
	}

	// Pressure promotion: a light class whose chunks pile up pending
	// entries is evidently not cold — promote it and clear its backlog.
	if a.cfg.PromoteEntries > 0 {
		perClass := make(map[array.ChunkKey]int)
		var hot []array.ChunkKey
		for _, k := range a.pending().Keys() {
			n, _ := a.pending().EntriesFor(k)
			cls := a.cls.ProjectKey(k)
			perClass[cls] += n
			if perClass[cls] >= a.cfg.PromoteEntries && a.cls.Promote(cls) {
				rep.Promoted++
				hot = append(hot, k)
			}
		}
		if len(hot) > 0 {
			if err := a.materializeKeys(rep, hot); err != nil {
				return nil, err
			}
		}
	}

	// Staleness-debt drainer: bound how far behind the lazy path may lag.
	if err := a.drainDebt(rep); err != nil {
		return nil, err
	}
	a.publishGauges()
	return rep, nil
}

// ApplyDelete adaptively maintains the view under a batch of deletions.
// Deletions retract against materialized content (view.SubsetOf validates
// cell-by-cell), so all pending deltas are materialized first and the
// deletion itself always runs eagerly.
func (a *AdaptiveMaintainer) ApplyDelete(del *array.Array) (*AdaptiveReport, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	rep := &AdaptiveReport{}
	a.seq++
	rep.Promoted, rep.Demoted = a.observe(del.ChunkKeys())
	if err := a.materializeKeys(rep, a.pending().Keys()); err != nil {
		return nil, err
	}
	hr, err := a.m.apply(Batch{Alpha: del, Deleting: true})
	if err != nil {
		return nil, err
	}
	rep.Heavy = hr
	rep.HeavyChunks = del.NumChunks()
	a.publishGauges()
	return rep, nil
}

// EnsureFresh materializes every outstanding pending delta — the query
// path's lazy hook. Serving gathers the whole view per answer, so any
// pending chunk anywhere could contribute to the result; freshness is
// all-or-nothing there. It returns quickly when the log is empty.
func (a *AdaptiveMaintainer) EnsureFresh(ctx context.Context) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	keys := a.pending().Keys()
	if len(keys) == 0 {
		return nil
	}
	rep := &AdaptiveReport{}
	err := a.materializeKeys(rep, keys)
	if err == nil {
		a.cfg.Counters.LazyMats.Add(int64(rep.MaterializedEntries))
		// materializeKeys booked them as drains; reclassify as lazy.
		a.cfg.Counters.Drained.Add(-int64(rep.MaterializedEntries))
		a.noteTouches(keys, rep)
	}
	a.publishGauges()
	return err
}

// Drain materializes the entire pending log (shutdown / end-of-run).
func (a *AdaptiveMaintainer) Drain() (*AdaptiveReport, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	rep := &AdaptiveReport{}
	err := a.materializeKeys(rep, a.pending().Keys())
	a.publishGauges()
	return rep, err
}

// noteTouches counts query-driven materializations per class and promotes
// classes queried repeatedly — a chunk that is cold to writes but hot to
// reads should not keep paying the materialization latency.
func (a *AdaptiveMaintainer) noteTouches(keys []array.ChunkKey, rep *AdaptiveReport) {
	if a.cfg.PromoteTouches <= 0 {
		return
	}
	for _, k := range keys {
		cls := a.cls.ProjectKey(k)
		a.touches[cls]++
		if a.touches[cls] >= a.cfg.PromoteTouches && a.cls.Promote(cls) {
			rep.Promoted++
		}
	}
}

// fenceConflicts resolves the conflict fence for an incoming eager batch.
// Fencing is needed only where chunk-key overwrites make apply order
// load-bearing: a pending chunk with a single deferred entry whose key
// collides with nothing always commutes with the incoming batch (for any
// pair the two can form, whichever side applies second picks the pair up
// from the committed base — it is counted exactly once either way). Order
// matters only around overwrites, where the earlier content must have
// joined before the later content replaces it:
//
//   - an incoming chunk whose key already exists in the base (or in the
//     pending log) overwrites cells, so every pending chunk it can pair
//     with must materialize first;
//   - a pending chunk with multiple deferred entries is an overwrite chain
//     itself, so it must materialize before any incoming chunk it can pair
//     with.
//
// The risky set seeds a transitive closure over the pending log (pending
// chunks reachable from an overwrite chain carry the same hazard one hop
// out), which is materialized per-seq ahead of the batch. Fresh-slab
// insert-only workloads — where every chunk key is new — never trigger the
// fence at all, which is what lets their deferrals survive to a coalesced
// drain.
// The returned entries are the ones folded into heavy: they have been taken
// from the pending log and now ride the eager batch, so if that batch fails
// the caller must Restore them.
func (a *AdaptiveMaintainer) fenceConflicts(rep *AdaptiveReport, heavy *array.Array) ([]cluster.PendingEntry, error) {
	incoming := heavy.ChunkKeys()
	pendKeys := a.pending().Keys()
	if len(pendKeys) == 0 {
		return nil, nil
	}
	cat := a.m.cl.Catalog()
	baseName := a.m.def.Alpha.Name
	schema := cat.Schema(baseName)
	pred := a.m.def.Pred
	regionOf := func(k array.ChunkKey) array.Region { return schema.ChunkRegion(k.Coord()) }
	reachable := func(x, y array.ChunkKey) bool {
		xr, yr := regionOf(x), regionOf(y)
		return pred.PairChunks(xr, yr) || pred.PairChunks(yr, xr)
	}

	pendSet := make(map[array.ChunkKey]bool, len(pendKeys))
	for _, pk := range pendKeys {
		pendSet[pk] = true
	}
	// risky incoming chunks can overwrite committed or deferred cells.
	var risky []array.ChunkKey
	for _, ik := range incoming {
		if pendSet[ik] {
			risky = append(risky, ik)
			continue
		}
		if _, ok := cat.Home(baseName, ik); ok {
			risky = append(risky, ik)
		}
	}

	// Strict hazards need their pending cells committed in original seq
	// order BEFORE the batch: a pending key the incoming batch overwrites
	// (the old cells must join the world before the new cells replace
	// them), and any multi-entry overwrite chain the batch can pair with —
	// plus, for chains only, their join-reachable pending closure, which
	// must interleave with the chain's intermediate states in seq order.
	// Single-entry hazards need no closure: their neighbors commit this
	// batch via the fold below, which derives the same pairs. (With the
	// overwrite-eager routing in ApplyBatch, chains cannot actually form —
	// a repeat of a pending key runs eagerly and fences first — so the
	// chain arm is belt-and-braces.)
	strict := make(map[array.ChunkKey]bool)
	for _, ik := range incoming {
		if pendSet[ik] {
			strict[ik] = true
		}
	}
	chains := make(map[array.ChunkKey]bool)
	for _, pk := range pendKeys {
		if n, _ := a.pending().EntriesFor(pk); n > 1 {
			for _, ik := range incoming {
				if pk == ik || reachable(pk, ik) {
					chains[pk] = true
					strict[pk] = true
					break
				}
			}
		}
	}
	for grew := len(chains) > 0; grew; {
		grew = false
		for _, pk := range pendKeys {
			if chains[pk] {
				continue
			}
			for ck := range chains {
				if reachable(pk, ck) {
					chains[pk] = true
					strict[pk] = true
					grew = true
					break
				}
			}
		}
	}
	if len(strict) > 0 {
		keys := make([]array.ChunkKey, 0, len(strict))
		for _, pk := range pendKeys { // preserve deterministic order
			if strict[pk] {
				keys = append(keys, pk)
			}
		}
		if err := a.materializeKeys(rep, keys); err != nil {
			return nil, err
		}
	}

	// The remaining conflicted chunks — single-entry pending keys the risky
	// incoming (or just-materialized strict) chunks can pair with — fold
	// into the eager batch itself instead of paying a separate apply: every
	// key involved is distinct (disjoint inserts commute cell-wise), the
	// combined delta×delta join derives exactly the cross-batch pairs the
	// sequential schedule would, and a folded chunk joins a strict chunk's
	// pre-overwrite content through the base (the strict pre-apply
	// committed it) exactly as the eager schedule orders them. Base-side
	// pairs see the same base either way: any base chunk reachable from a
	// pending single is provably un-overwritten since its deferral — an
	// overwrite would have fenced it then.
	var fold []array.ChunkKey
	for _, pk := range pendKeys {
		if strict[pk] {
			continue
		}
		for _, ik := range risky {
			if reachable(pk, ik) {
				fold = append(fold, pk)
				break
			}
		}
	}
	if len(fold) == 0 {
		return nil, nil
	}
	entries := a.pending().Take(fold)
	for _, e := range entries {
		heavy.PutChunk(e.Chunk.Clone())
		rep.HeavyChunks++
	}
	rep.MaterializedEntries += len(entries)
	a.cfg.Counters.Drained.Add(int64(len(entries)))
	return entries, nil
}

// materializeKeys replays all pending entries of the given chunk keys
// through the eager executor, in original batch seq order. Consecutive seq
// groups are coalesced into one executor batch while their chunk keys stay
// pairwise distinct: chunk-disjoint groups cannot overwrite each other's
// cells, and a combined batch derives exactly the pair contributions the
// per-seq schedule would (the combined delta×delta join covers the
// cross-seq pairs the later seq would otherwise pick up from the updated
// base). A repeated chunk key — the replay pattern, where apply order is
// load-bearing — cuts the group, falling back to per-seq replay. A failed
// replay restores the untaken entries to the log and returns the error
// (the executor already rolled the failed batch back).
func (a *AdaptiveMaintainer) materializeKeys(rep *AdaptiveReport, keys []array.ChunkKey) error {
	if len(keys) == 0 {
		return nil
	}
	entries := a.pending().Take(keys)
	for len(entries) > 0 {
		j := 0
		batch := array.New(a.m.cl.Catalog().Schema(a.m.def.Alpha.Name))
		inBatch := make(map[array.ChunkKey]bool)
		for ; j < len(entries); j++ {
			if entries[j].Seq != entries[0].Seq {
				// Next seq group: include it only if it is chunk-disjoint
				// from everything already coalesced.
				end, ok := j, true
				for ; end < len(entries) && entries[end].Seq == entries[j].Seq; end++ {
					if inBatch[entries[end].Key] {
						ok = false
					}
				}
				if !ok {
					break
				}
			}
			inBatch[entries[j].Key] = true
			batch.PutChunk(entries[j].Chunk.Clone())
		}
		group, rest := entries[:j], entries[j:]
		// The not-yet-applied remainder goes back into the log across the
		// apply, so the apply's durable commit barrier snapshots it: a crash
		// between coalesced applies then recovers to applied-prefix +
		// still-pending remainder instead of losing the remainder.
		if len(rest) > 0 {
			a.pending().Restore(rest)
		}
		dr, err := a.m.apply(Batch{Alpha: batch, Replay: true})
		if err != nil {
			// This seq rolled back; put it back too (the rest already is).
			a.pending().Restore(group)
			return err
		}
		rep.Drains = append(rep.Drains, dr)
		rep.MaterializedEntries += len(group)
		a.cfg.Counters.Drained.Add(int64(len(group)))
		if len(rest) == 0 {
			break
		}
		restKeys := make([]array.ChunkKey, 0, len(rest))
		seen := make(map[array.ChunkKey]bool)
		for _, e := range rest {
			if !seen[e.Key] {
				seen[e.Key] = true
				restKeys = append(restKeys, e.Key)
			}
		}
		entries = a.pending().Take(restKeys)
	}
	return nil
}

// drainDebt enforces the staleness bounds: once the pending log holds more
// deferred batches (or cells) than allowed, the whole log is flushed in one
// coalesced materialization. Flushing everything — rather than evicting the
// oldest batch each time — keeps the drainer off the per-batch critical
// path in steady state: one amortized apply every MaxPendingBatches batches
// instead of one every batch.
func (a *AdaptiveMaintainer) drainDebt(rep *AdaptiveReport) error {
	if a.cfg.MaxPendingBatches <= 0 && a.cfg.MaxPendingCells <= 0 {
		return nil
	}
	st := a.pending().Stats()
	over := (a.cfg.MaxPendingBatches > 0 && st.Batches > a.cfg.MaxPendingBatches) ||
		(a.cfg.MaxPendingCells > 0 && st.Cells > a.cfg.MaxPendingCells)
	if !over {
		return nil
	}
	return a.materializeKeys(rep, a.pending().Keys())
}

// publishGauges refreshes the gauge-style counters from current state.
func (a *AdaptiveMaintainer) publishGauges() {
	c := a.cfg.Counters
	st := a.pending().Stats()
	heavy := a.cls.HeavyCount()
	c.HeavyChunks.Store(int64(heavy))
	c.LightChunks.Store(int64(len(a.seen) - heavy))
	c.PendingChunks.Store(int64(st.Chunks))
	c.PendingCells.Store(int64(st.Cells))
	promos, demos := a.cls.Flips()
	c.Promotions.Store(promos)
	c.Demotions.Store(demos)
	ms := a.m.memo.Stats()
	c.MemoHits.Store(ms.Hits)
	c.MemoMisses.Store(ms.Misses)
}

// Stats snapshots the adaptive layer's state.
func (a *AdaptiveMaintainer) Stats() AdaptiveStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	promos, demos := a.cls.Flips()
	return AdaptiveStats{
		HeavyClasses: a.cls.HeavyCount(),
		SeenClasses:  len(a.seen),
		Promotions:   promos,
		Demotions:    demos,
		Pending:      a.pending().Stats(),
		Memo:         a.m.memo.Stats(),
		Plans:        a.m.scratch.Stats(),
	}
}

// AdaptiveStats is a point-in-time view of the adaptive layer.
type AdaptiveStats struct {
	HeavyClasses int
	SeenClasses  int
	Promotions   int64
	Demotions    int64
	Pending      cluster.PendingStats
	Memo         JoinMemoStats
	Plans        PlanScratchStats
}
