package maintain

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/view"
)

// Planner produces a maintenance plan for one batch.
type Planner interface {
	// Name identifies the strategy in reports.
	Name() string
	// Plan solves the batch.
	Plan(ctx *Context) (*Plan, error)
}

// Execute applies a validated plan to the cluster with crash-consistent,
// fault-tolerant semantics: the batch either commits fully or leaves the
// view and base arrays provably unchanged.
//
// The pipeline stages all mutations before touching any live state. Phase 1
// replicates chunks per the plan (transfers whose endpoints are dead are
// skipped — the join phase re-plans around them). Phase 2 runs every
// chunk-pair join at its assigned node, accumulating partial view state
// under a shadow staging namespace ("<view>#stage") instead of merging into
// the view directly; joins and staging merges that hit a dead node fail over
// to surviving nodes with the ledger re-charged. Phase 3 commits: for every
// touched view and base chunk it reads the pre-image, records it in an undo
// log, and applies the final content with idempotent put/delete operations,
// so an ack-lost write can be retried and a failed commit rolls back to the
// exact pre-batch state (including a catalog snapshot). Phase 4 tears down
// staging data, delta namespaces, and scratch replicas best-effort — cleanup
// hiccups never fail a committed batch.
//
// It returns the plan's deterministic cost ledger (the modeled maintenance
// time of the batch, plus any failover re-charges).
func Execute(ctx *Context, p *Plan) (*cluster.Ledger, error) {
	ledger, _, err := execute(ctx, p)
	return ledger, err
}

// execute is Execute, also returning the epoch the commit published (0 while
// epochs are disabled).
func execute(ctx *Context, p *Plan) (*cluster.Ledger, uint64, error) {
	s, err := BeginStaged(ctx, p)
	if err != nil {
		return nil, 0, err
	}
	s.CaptureSnapshots()
	if err := s.RunTransfers(nil); err != nil {
		return nil, 0, s.Abort(err)
	}
	if err := s.RunJoins(); err != nil {
		return nil, 0, s.Abort(err)
	}
	if err := s.Commit(); err != nil {
		return nil, 0, s.Abort(err)
	}
	s.Cleanup()
	// The batch is now fully committed and scrubbed; publish the new epoch
	// so snapshot readers pinning from here see post-batch state. (No-op
	// unless serving has enabled the epoch manager.)
	return s.Ledger(), ctx.Cluster.Epochs().Publish(), nil
}

// Staged drives one batch through the executor's stages individually, so a
// pipelined caller (internal/stream) can interleave the stages of several
// batches: batch N+1's transfers may run while batch N is joining, as long
// as the batches stage under disjoint scratch namespaces (Context.
// ScratchSuffix) and commits stay serialized in admission order.
//
// The stage protocol is: BeginStaged → RunTransfers → RunJoins →
// CaptureSnapshots → Commit → Cleanup, with Abort replacing the remainder
// after any failed stage. Execute is exactly that sequence for one batch
// (with snapshots captured up front, since nothing commits concurrently).
// Unlike Execute, the staged path leaves epoch publication to the caller —
// the commit sink owns ordering.
type Staged struct {
	ctx    *Context
	plan   *Plan
	es     *execState
	ledger *cluster.Ledger
}

// BeginStaged validates and prices the plan and initializes the batch's
// execution state. No cluster state is touched yet.
func BeginStaged(ctx *Context, p *Plan) (*Staged, error) {
	tr := ctx.Trace
	stop := tr.Start(obs.PhaseValidate)
	defer stop()
	if err := p.Validate(ctx); err != nil {
		return nil, err
	}
	ledger := p.Charge(ctx)
	return &Staged{ctx: ctx, plan: p, es: newExecState(ctx, ledger), ledger: ledger}, nil
}

// Ledger exposes the batch's cost ledger (mutated by failover re-charges
// as stages run).
func (s *Staged) Ledger() *cluster.Ledger { return s.ledger }

// CaptureSnapshots records the catalog metadata of every array the batch
// mutates, as the rollback baseline. The batch-at-a-time path captures
// before its transfers; a pipelined caller must defer the capture until all
// predecessor batches have committed or aborted, so an abort of this batch
// never rolls the catalog back over a predecessor's committed state.
// Calling it more than once keeps the first capture.
func (s *Staged) CaptureSnapshots() {
	stop := s.ctx.Trace.Start(obs.PhaseSnapshot)
	defer stop()
	s.es.captureSnaps(s.ctx, s.plan)
}

// RunTransfers executes the plan's Phase-1 replications. A non-nil skip
// predicate exempts individual ships — the streaming pipeline defers
// transfers whose source chunk an in-flight predecessor batch is about to
// rewrite, re-issuing them (against the then-live catalog) after the
// predecessor commits.
func (s *Staged) RunTransfers(skip func(ref view.ChunkRef, to int) bool) error {
	stop := s.ctx.Trace.Start(obs.PhaseTransfer)
	defer stop()
	return runTransfers(s.ctx, s.plan, skip)
}

// RunJoins evaluates every unit at its planned node, staging partial
// differentials under the batch's scratch namespace.
func (s *Staged) RunJoins() error {
	stop := s.ctx.Trace.Start(obs.PhaseJoin)
	defer stop()
	return runJoins(s.ctx, s.plan, s.es)
}

// Commit folds the staged state into the view and base arrays with
// undo-logged idempotent writes. CaptureSnapshots must have been called.
func (s *Staged) Commit() error {
	stop := s.ctx.Trace.Start(obs.PhaseCommit)
	defer stop()
	if !s.es.snapped {
		return fmt.Errorf("maintain: Commit before CaptureSnapshots")
	}
	if err := commitBatch(s.ctx, s.plan, s.es); err != nil {
		return err
	}
	// Harden the committed batch before acknowledging it: the durable
	// barrier (when a sink is installed) fsyncs the batch's journaled writes
	// and appends the commit cut. On failure the caller aborts, rolling the
	// in-memory commit back, so acked state never outruns recoverable state.
	return durableCommit(s.ctx.Cluster, s.ctx.RetireOnCommit)
}

// Cleanup tears down the batch's scratch state best-effort.
func (s *Staged) Cleanup() {
	stop := s.ctx.Trace.Start(obs.PhaseCleanup)
	defer stop()
	cleanupBatch(s.ctx, s.plan, s.es)
}

// Abort undoes the batch — rolls back committed writes, restores catalog
// snapshots, tears down scratch state — and returns the original cause.
// Safe to call after a failure in any stage. Unlike Commit, Abort publishes
// the rollback epoch itself (the live state equals a consistent pre-batch
// state again the moment it returns); a pipelined caller must therefore
// invoke it serialized with commits, from the sink.
func (s *Staged) Abort(cause error) error {
	return s.es.abort(s.ctx, s.plan, cause)
}

// extraShip records a failover-driven chunk copy not present in the plan's
// transfer list, so cleanup can scrub it.
type extraShip struct {
	ref view.ChunkRef
	to  int
}

// execState is the mutable bookkeeping of one Execute call: dead-node
// tracking, the staging location of every view chunk, failover re-charges
// against the (not thread-safe) ledger, and the commit undo log.
type execState struct {
	mu         sync.Mutex
	ledger     *cluster.Ledger
	dead       map[int]bool
	stageHome  map[array.ChunkKey]int
	stageCount map[array.ChunkKey]int
	keyLocks   map[array.ChunkKey]*sync.Mutex
	extra      []extraShip
	snaps      map[string]*cluster.MetaPatch
	snapped    bool
	staging    string
	deltaNames []string
	cm         *committer
}

func newExecState(ctx *Context, ledger *cluster.Ledger) *execState {
	es := &execState{
		ledger:     ledger,
		dead:       make(map[int]bool),
		stageHome:  make(map[array.ChunkKey]int),
		stageCount: make(map[array.ChunkKey]int),
		keyLocks:   make(map[array.ChunkKey]*sync.Mutex),
		snaps:      make(map[string]*cluster.MetaPatch),
		staging:    ctx.StagingName(),
		deltaNames: []string{ctx.DeltaAlpha},
	}
	if ctx.DeltaBeta != ctx.DeltaAlpha {
		es.deltaNames = append(es.deltaNames, ctx.DeltaBeta)
	}
	return es
}

// captureSnaps records the rollback baseline of every chunk the batch can
// mutate, so a failed batch restores the catalog to its exact pre-commit
// state. The capture is scoped: join inputs, ingest targets (delta keys
// land in the base namespace), transfer and rehome refs, and the affected
// view chunks. Nothing else changes its catalog entry during the batch, so
// the baseline costs O(batch footprint) instead of O(base size) — with a
// full-array snapshot the capture dominated per-batch overhead and grew
// linearly with the base, breaking the cost-∝-|Δ| contract. First capture
// wins.
func (es *execState) captureSnaps(ctx *Context, p *Plan) {
	if es.snapped {
		return
	}
	es.snapped = true
	cat := ctx.Cluster.Catalog()
	keys := map[string]map[array.ChunkKey]bool{
		ctx.ViewName:  {},
		ctx.BaseAlpha: {},
		ctx.BaseBeta:  {},
	}
	addRef := func(r view.ChunkRef) {
		name := r.Array
		switch name {
		case ctx.DeltaAlpha:
			name = ctx.BaseAlpha
		case ctx.DeltaBeta:
			name = ctx.BaseBeta
		}
		if set, ok := keys[name]; ok {
			set[r.Key] = true
		}
	}
	for i := range ctx.Units {
		u := &ctx.Units[i]
		addRef(u.P)
		addRef(u.Q)
		for _, vk := range u.Views {
			keys[ctx.ViewName][vk] = true
		}
	}
	if p != nil {
		for _, t := range p.Transfers {
			addRef(t.Ref)
		}
		for vk := range p.ViewHome {
			keys[ctx.ViewName][vk] = true
		}
		for r := range p.ArrayRehome {
			addRef(r)
		}
	}
	for name, set := range keys {
		if _, dup := es.snaps[name]; dup {
			continue
		}
		ks := make([]array.ChunkKey, 0, len(set))
		for k := range set {
			ks = append(ks, k)
		}
		if mp, ok := cat.SnapshotMetaScoped(name, ks); ok {
			es.snaps[name] = mp
		}
	}
}

func (es *execState) isDead(node int) bool {
	es.mu.Lock()
	defer es.mu.Unlock()
	return es.dead[node]
}

func (es *execState) markDead(node int) {
	es.mu.Lock()
	es.dead[node] = true
	es.mu.Unlock()
}

// pickAlive returns the lowest-numbered surviving worker.
func (es *execState) pickAlive(n int) (int, error) {
	es.mu.Lock()
	defer es.mu.Unlock()
	return es.pickAliveLocked(n)
}

func (es *execState) pickAliveLocked(n int) (int, error) {
	for node := 0; node < n; node++ {
		if !es.dead[node] {
			return node, nil
		}
	}
	return 0, fmt.Errorf("maintain: no surviving nodes")
}

// chargeTransfer re-charges the ledger for a failover ship. The ledger is
// not thread-safe and join tasks run concurrently, so charges serialize here.
func (es *execState) chargeTransfer(from, to int, size int64) {
	es.mu.Lock()
	es.ledger.ChargeTransferTo(from, to, size)
	es.mu.Unlock()
}

// chargeJoin re-charges a join re-planned onto a surviving node.
func (es *execState) chargeJoin(at int, size int64) {
	es.mu.Lock()
	es.ledger.ChargeJoin(at, size)
	es.mu.Unlock()
}

func (es *execState) keyLock(v array.ChunkKey) *sync.Mutex {
	es.mu.Lock()
	defer es.mu.Unlock()
	lk, ok := es.keyLocks[v]
	if !ok {
		lk = &sync.Mutex{}
		es.keyLocks[v] = lk
	}
	return lk
}

func (es *execState) addExtraShip(ref view.ChunkRef, to int) {
	es.mu.Lock()
	es.extra = append(es.extra, extraShip{ref, to})
	es.mu.Unlock()
}

func (es *execState) extraShips() []extraShip {
	es.mu.Lock()
	defer es.mu.Unlock()
	return append([]extraShip(nil), es.extra...)
}

// abort undoes a failed batch: roll back every committed write, restore the
// catalog snapshots, and tear down staging state. The original cause is
// returned; rollback itself is best-effort (a node that is down never
// received the write being undone).
func (es *execState) abort(ctx *Context, p *Plan, cause error) error {
	if es.cm != nil {
		es.cm.rollback()
	}
	cat := ctx.Cluster.Catalog()
	for _, m := range es.snaps {
		cat.RestoreMetaScoped(m)
	}
	cleanupBatch(ctx, p, es)
	durableRollback(ctx.Cluster)
	// Publish after the rollback completes: live state equals the pre-batch
	// state again, so the new epoch is consistent. Versions retained during
	// the partial commit stay until every reader pinned at or before the
	// aborted epoch releases — a reader racing the rollback itself still
	// resolves them through the retained-live-retained protocol.
	ctx.Cluster.Epochs().Publish()
	return cause
}

// runTransfers executes the plan's Phase-1 replications (x variables)
// concurrently: identical ships — the same chunk bound for the same
// destination — are deduplicated, the rest are grouped by (source,
// destination) route and shipped through Cluster.TransferBatch, so one
// route's whole wave moves in a single pipelined offer/read/write exchange
// instead of two round trips per chunk. Routes are drained through the
// cluster's bounded per-node worker pools, so a batch shipping to k
// destinations overlaps its network transfers instead of serializing them.
// The first error aborts the remaining queues.
//
// Plans may chain ships (the baseline stages a delta chunk at its placed
// node and fans out from there), so transfers are scheduled in waves: a
// transfer whose source replica is itself created by this plan runs one
// wave after the transfer creating it, preserving the in-order residency
// guarantee Validate checks while everything within a wave runs in
// parallel.
//
// A transfer that fails because a node is down — dead destination, or dead
// source with no surviving replica — is skipped rather than fatal: the join
// phase re-plans work around dead nodes and re-fetches from replicas, and a
// chunk that is truly unreachable everywhere fails the batch there,
// atomically. Application failures (chunk not resident on a live node)
// still abort immediately.
// A non-nil skip predicate exempts ships (see Staged.RunTransfers); a
// skipped ship never enters a wave. Callers passing skip must use plans
// without chained ships (a ship sourced from a replica another ship
// creates): the streaming router's plans ship every chunk directly from its
// home, so deferring any subset stays safe.
func runTransfers(ctx *Context, p *Plan, skip func(ref view.ChunkRef, to int) bool) error {
	cl := ctx.Cluster
	type ship struct {
		ref view.ChunkRef
		to  int
	}
	type route struct {
		from, to int
	}
	seen := make(map[ship]int, len(p.Transfers)) // destination replica → wave it lands in
	var waves []map[route][]cluster.TransferItem
	for _, t := range p.Transfers {
		s := ship{t.Ref, t.To}
		if _, dup := seen[s]; dup {
			continue
		}
		if skip != nil && skip(t.Ref, t.To) {
			continue
		}
		w := 0
		if src, created := seen[ship{t.Ref, t.From}]; created {
			w = src + 1
		}
		seen[s] = w
		for len(waves) <= w {
			waves = append(waves, make(map[route][]cluster.TransferItem))
		}
		r := route{t.From, t.To}
		waves[w][r] = append(waves[w][r], cluster.TransferItem{Array: t.Ref.Array, Key: t.Ref.Key})
	}
	for _, wave := range waves {
		tasks := make(map[int][]cluster.Task, len(wave))
		for r, items := range wave {
			r, items := r, items
			tasks[r.to] = append(tasks[r.to], func() error {
				err := cl.TransferBatch(nil, items, r.from, r.to)
				if err == nil || !cluster.IsNodeDown(err) {
					return err
				}
				// A dead endpoint surfaced mid-batch: retry per chunk so
				// live transfers in the group still land (Transfer is
				// idempotent for chunks the batch already moved), skipping
				// the dead ones for the join phase to re-plan around.
				for _, it := range items {
					err := cl.Transfer(nil, it.Array, it.Key, r.from, r.to)
					if err != nil && !cluster.IsNodeDown(err) {
						return err
					}
				}
				return nil
			})
		}
		if err := cl.RunPerNode(tasks); err != nil {
			return err
		}
	}
	return nil
}

// runJoins executes every unit at its planned node with the cluster's
// per-node worker pools. Each task joins one chunk pair (both orientations
// when required) and stages the per-view-chunk partial state chunks under
// the shadow namespace at each view chunk's planned home. On a JoinFabric
// with the view registered, the join itself executes on the remote node
// (only the differential partials travel back); otherwise the chunks are
// fetched through the fabric and joined here.
//
// A unit whose site is unreachable is re-planned onto a surviving node: the
// input chunks are re-fetched from catalog replicas (shipping them to the
// fallback node when the fabric pushes joins down), the join re-executes
// there, and the ledger is re-charged for the extra work.
func runJoins(ctx *Context, p *Plan, es *execState) error {
	cl := ctx.Cluster
	def := ctx.Def
	tr := ctx.Trace
	stateSpec := def.StateMergeSpec()
	joinFabric, _ := cl.Fabric().(cluster.JoinFabric)

	tasks := make(map[int][]cluster.Task)
	for i := range ctx.Units {
		i := i
		u := ctx.Units[i]
		site := p.JoinSite[i]
		// Under a deletion batch, contributions retract per the identity
		// ΔV = −(D⋈A) − (A⋈D) + (D⋈D): pairs wholly inside the staged
		// deletion are over-subtracted by the two mixed terms and come back
		// positive.
		sign := 1.0
		if ctx.Deleting && !(ctx.IsDelta(u.P) && ctx.IsDelta(u.Q)) {
			sign = -1
		}
		tasks[site] = append(tasks[site], func() error {
			taskStart := time.Now()
			defer func() { tr.AddNode(site, time.Since(taskStart)) }()
			at := site
			// Content-addressed join reuse: when both input hashes are
			// known and a prior batch already joined identical content,
			// stage clones of the cached partials instead of re-running
			// the kernel (or the pushdown round-trip).
			var mk memoKey
			memoable := false
			if ctx.JoinMemo != nil {
				mk, memoable = memoKeyFor(ctx, u, sign)
				if memoable {
					if parts, ok := ctx.JoinMemo.get(mk); ok {
						mergeStart := time.Now()
						defer func() { tr.Add(obs.PhaseMerge, time.Since(mergeStart)) }()
						for _, part := range parts {
							if err := es.stagePartial(ctx, p, part, at, stateSpec); err != nil {
								return err
							}
						}
						return nil
					}
				}
			}
			partials, err := joinUnitAt(ctx, es, u, at, sign, joinFabric)
			if err != nil && cluster.IsNodeDown(err) {
				es.markDead(at)
				partials, at, err = failoverJoin(ctx, es, u, i, sign, joinFabric)
			}
			if err != nil {
				return fmt.Errorf("maintain: unit %d at node %d: %w", i, site, err)
			}
			if memoable {
				ctx.JoinMemo.put(mk, partials)
			}
			mergeStart := time.Now()
			defer func() { tr.Add(obs.PhaseMerge, time.Since(mergeStart)) }()
			for _, part := range partials {
				if err := es.stagePartial(ctx, p, part, at, stateSpec); err != nil {
					return err
				}
			}
			return nil
		})
	}
	return cl.RunPerNode(tasks)
}

// joinUnitAt evaluates one unit at the given node, pushing the join down
// when the fabric supports it.
func joinUnitAt(ctx *Context, es *execState, u view.Unit, at int, sign float64, joinFabric cluster.JoinFabric) ([]*array.Chunk, error) {
	cl := ctx.Cluster
	if joinFabric != nil {
		return joinFabric.ExecuteJoin(at, cluster.JoinRequest{
			View:   ctx.ViewName,
			PArray: u.P.Array, PKey: u.P.Key,
			QArray: u.Q.Array, QKey: u.Q.Key,
			BothDirections: u.BothDirections,
			Sign:           sign,
		})
	}
	cp, err := cl.GetAt(at, u.P.Array, u.P.Key)
	if err != nil {
		return nil, err
	}
	cq, err := cl.GetAt(at, u.Q.Array, u.Q.Key)
	if err != nil {
		return nil, err
	}
	parts, err := view.JoinPartials(ctx.Def, cp, cq, u.BothDirections, sign)
	if err != nil {
		return nil, err
	}
	return sortedPartials(parts), nil
}

// failoverJoin re-plans a unit whose planned site is dead onto surviving
// nodes. On a pushdown fabric the input chunks are first made resident on
// the fallback node from catalog replicas (recorded as extra ships for
// cleanup and re-charged on the ledger); without pushdown the chunks are
// fetched from any replica and joined in-process. The node that ran the
// join is returned for per-node accounting.
func failoverJoin(ctx *Context, es *execState, u view.Unit, i int, sign float64, joinFabric cluster.JoinFabric) ([]*array.Chunk, int, error) {
	cl := ctx.Cluster
	n := cl.NumNodes()
	for {
		s, err := es.pickAlive(n)
		if err != nil {
			return nil, 0, fmt.Errorf("maintain: unit %d: %w", i, err)
		}
		var parts []*array.Chunk
		if joinFabric != nil {
			err = es.ensureResident(ctx, s, u.P)
			if err == nil {
				err = es.ensureResident(ctx, s, u.Q)
			}
			if err == nil {
				parts, err = joinUnitAt(ctx, es, u, s, sign, joinFabric)
			}
		} else {
			var cp, cq *array.Chunk
			cp, _, err = cl.ReadReplica(u.P.Array, u.P.Key, s)
			if err == nil {
				cq, _, err = cl.ReadReplica(u.Q.Array, u.Q.Key, s)
			}
			if err == nil {
				var pm map[array.ChunkKey]*array.Chunk
				pm, err = view.JoinPartials(ctx.Def, cp, cq, u.BothDirections, sign)
				parts = sortedPartials(pm)
			}
		}
		if err == nil {
			es.chargeJoin(s, ctx.PairBytes(u))
			return parts, s, nil
		}
		if !cluster.IsNodeDown(err) {
			return nil, 0, err
		}
		es.markDead(s)
	}
}

// ensureResident ships a chunk to the node from the nearest live replica
// unless it is already there, re-charging the ledger for the failover copy.
func (es *execState) ensureResident(ctx *Context, node int, ref view.ChunkRef) error {
	cl := ctx.Cluster
	if resident, err := cl.HasAt(node, ref.Array, ref.Key); err == nil && resident {
		return nil
	}
	ch, src, err := cl.ReadReplica(ref.Array, ref.Key, ctx.HomeOf(ref))
	if err != nil {
		return err
	}
	if err := cl.PutAtRetry(node, ref.Array, ch); err != nil {
		return err
	}
	if err := cl.Catalog().AddReplica(ref.Array, ref.Key, node); err != nil {
		return err
	}
	es.chargeTransfer(src, node, ctx.SizeOf(ref))
	es.addExtraShip(ref, node)
	return nil
}

// stagePartial folds one partial view-state chunk into the shadow staging
// namespace at the view chunk's staging home (the planned home while it is
// alive). The first merge for a key may relocate its staging home to a
// surviving node; once any merge has landed, the home is pinned — losing it
// mid-batch means staged contributions are gone and the batch must abort
// (atomically) rather than silently drop state. State merges do not consume
// their source, so re-merging the same partial at a fallback node is safe.
func (es *execState) stagePartial(ctx *Context, p *Plan, part *array.Chunk, site int, spec cluster.MergeSpec) error {
	cl := ctx.Cluster
	v := part.Key()
	home, ok := p.ViewHome[v]
	if !ok {
		return fmt.Errorf("maintain: partial for unplanned view chunk %v", v.Coord())
	}
	lk := es.keyLock(v)
	lk.Lock()
	defer lk.Unlock()

	es.mu.Lock()
	target, pinned := es.stageHome[v]
	if !pinned {
		target = home
		if es.dead[target] {
			alt, err := es.pickAliveLocked(cl.NumNodes())
			if err != nil {
				es.mu.Unlock()
				return err
			}
			target = alt
		}
	}
	count := es.stageCount[v]
	es.mu.Unlock()

	size := part.SizeBytes()
	err := cl.MergeAt(target, es.staging, part, spec)
	if err != nil && cluster.IsNodeDown(err) && count == 0 {
		es.markDead(target)
		alt, aerr := es.pickAlive(cl.NumNodes())
		if aerr != nil {
			return err
		}
		if merr := cl.MergeAt(alt, es.staging, part, spec); merr != nil {
			return merr
		}
		target = alt
		err = nil
	}
	if err != nil {
		return err
	}
	es.mu.Lock()
	es.stageHome[v] = target
	es.stageCount[v] = count + 1
	if target != home {
		// Failover overhead: the plan charged the ship to the planned home.
		es.ledger.ChargeTransferTo(site, target, size)
	}
	es.mu.Unlock()
	return nil
}

// sortedPartials flattens a partials map into view-chunk-key order so every
// execution of the same batch stages merges in the same sequence.
func sortedPartials(m map[array.ChunkKey]*array.Chunk) []*array.Chunk {
	keys := make([]array.ChunkKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]*array.Chunk, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}
