package maintain

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/view"
)

// Maintainer owns one materialized array view on a cluster and applies
// batch updates to it with a chosen planning strategy. It keeps the
// history window across batches so array reassignment can learn the
// workload.
//
// It is the one batch pipeline: Prepare stages the delta namespace,
// generates the update triples and builds the maintenance Context; Plan
// solves (or replays a cached solve); Run walks the plan through the staged
// executor and records the batch. ApplyBatch and friends are those three
// steps back to back; the adaptive layer calls them through the same Batch
// descriptor, and the streaming graph calls them from its stages, keeping
// only what is pipelined (fences, deferred ships, claims, the drift router)
// to itself. A batch that dies before the executor has begun leaves no
// delta namespace behind, whichever step it died in.
//
// The steps of one batch run in order on one goroutine at a time; steps of
// different batches may run concurrently (the graph prepares batch N+1 while
// batch N runs) as long as no plan scratch is attached.
type Maintainer struct {
	cl      *cluster.Cluster
	def     *view.Definition
	planner Planner
	params  Params
	history *History

	mu       sync.Mutex // guards rng and batchSeq
	rng      *rand.Rand
	batchSeq int

	// memo, when non-nil, is the content-addressed join-state cache shared
	// across this maintainer's batches (the adaptive layer's; see
	// AdaptiveMaintainer.ShareMemo); Execute consults it per unit.
	memo *JoinMemo
	// scratch, when non-nil, caches unit lists and optimizer solutions per
	// delta footprint (the adaptive layer attaches one).
	scratch *PlanScratch

	arrayPlacement cluster.Placement
	viewPlacement  cluster.Placement
}

// Report summarizes one maintained batch.
type Report struct {
	Strategy string
	// MaintenanceSeconds is the plan's simulated cost (Eq. 1): the batch's
	// view maintenance time on the modeled cluster.
	MaintenanceSeconds float64
	// OptimizationSeconds is the measured wall-clock time of triple
	// generation plus planning — the Figure 5 quantity.
	OptimizationSeconds float64
	// TripleGenSeconds is the triple-generation share of optimization,
	// common to all strategies (the paper's "baseline" optimization time).
	TripleGenSeconds float64
	// ExecSeconds is the measured wall-clock time of plan execution — the
	// real data movement and join work on whatever fabric the cluster runs
	// on. Compare against MaintenanceSeconds to validate the cost model.
	ExecSeconds  float64
	NumUnits     int
	NumTriples   int
	NumTransfers int
	Plan         *Plan
	Ledger       *cluster.Ledger
	// Trace is the phase-span breakdown of Execute: where ExecSeconds went
	// (validate, snapshot, transfer, join, merge, commit, cleanup) and
	// per-node task busy time.
	Trace *obs.Trace
	// Epoch is the epoch the batch's commit published (0 while epochs are
	// disabled).
	Epoch uint64
}

// NewMaintainer wires a maintainer for the given view on the cluster. The
// base array(s) and the materialized view must already be loaded (see
// BuildView).
func NewMaintainer(cl *cluster.Cluster, def *view.Definition, planner Planner, params Params) (*Maintainer, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if planner == nil {
		planner = Reassign{}
	}
	if cl.Catalog().Schema(def.Alpha.Name) == nil {
		return nil, fmt.Errorf("maintain: base array %q not loaded", def.Alpha.Name)
	}
	if cl.Catalog().Schema(def.Beta.Name) == nil {
		return nil, fmt.Errorf("maintain: base array %q not loaded", def.Beta.Name)
	}
	// Join pushdown on a remote fabric evaluates the join at the node
	// holding the chunks, which needs the view definition on that side.
	if rf, ok := cl.Fabric().(interface {
		RegisterView(*view.Definition) error
	}); ok {
		if err := rf.RegisterView(def); err != nil {
			return nil, fmt.Errorf("maintain: registering view on fabric: %w", err)
		}
	}
	return &Maintainer{
		cl:             cl,
		def:            def,
		planner:        planner,
		params:         params,
		history:        NewHistory(params.Window),
		rng:            rand.New(rand.NewSource(params.Seed)),
		arrayPlacement: cluster.HashPlacement{},
		viewPlacement:  cluster.HashPlacement{},
	}, nil
}

// SetPlacements overrides the static placement strategies used for new
// chunks by the baseline/differential strategies and fallbacks.
func (m *Maintainer) SetPlacements(arrayP, viewP cluster.Placement) {
	if arrayP != nil {
		m.arrayPlacement = arrayP
	}
	if viewP != nil {
		m.viewPlacement = viewP
	}
	if m.scratch != nil {
		m.scratch.InvalidatePlacement()
	}
}

// Planner returns the active planning strategy.
func (m *Maintainer) Planner() Planner { return m.planner }

// History exposes the maintained history window (for inspection/tests).
func (m *Maintainer) History() *History { return m.history }

// BuildView materializes the view from the cluster-resident base array(s)
// and distributes it with the given placement. This is the eager initial
// evaluation of the view definition.
func BuildView(cl *cluster.Cluster, def *view.Definition, p cluster.Placement) error {
	alpha, err := cl.Gather(def.Alpha.Name)
	if err != nil {
		return err
	}
	beta := alpha
	if !def.SelfJoin() {
		beta, err = cl.Gather(def.Beta.Name)
		if err != nil {
			return err
		}
	}
	v, err := view.Materialize(def, alpha, beta)
	if err != nil {
		return err
	}
	return cl.LoadArray(v, p)
}

// ApplyBatch incrementally maintains the view under a batch of insertions
// to the base array (self-join views). The delta must be disjoint from the
// current base content at cell granularity.
func (m *Maintainer) ApplyBatch(delta *array.Array) (*Report, error) {
	if !m.def.SelfJoin() {
		return nil, fmt.Errorf("maintain: view %s joins two arrays; use ApplyBatch2", m.def.Name)
	}
	return m.apply(Batch{Alpha: delta})
}

// ApplyDelete incrementally maintains the view under a batch of deletions
// from the base array (self-join views): the staged cells must exist in
// the base (see view.SubsetOf) and every aggregate must be retractable
// (MIN/MAX are not).
func (m *Maintainer) ApplyDelete(del *array.Array) (*Report, error) {
	if !m.def.SelfJoin() {
		return nil, fmt.Errorf("maintain: view %s joins two arrays; deletions are supported for self joins", m.def.Name)
	}
	if !m.def.Retractable() {
		return nil, fmt.Errorf("maintain: view %s has non-retractable aggregates (MIN/MAX)", m.def.Name)
	}
	return m.apply(Batch{Alpha: del, Deleting: true})
}

// ApplyBatch2 maintains a two-array view under simultaneous insertions to
// α and/or β (either may be nil).
func (m *Maintainer) ApplyBatch2(dAlpha, dBeta *array.Array) (*Report, error) {
	if m.def.SelfJoin() {
		return nil, fmt.Errorf("maintain: view %s is a self join; use ApplyBatch", m.def.Name)
	}
	return m.apply(Batch{Alpha: dAlpha, Beta: dBeta})
}

// Batch describes one maintenance batch to the pipeline.
type Batch struct {
	// Alpha and Beta hold the batch's cells per base array. A self-join view
	// reads Alpha only; a two-array view takes either or both.
	Alpha, Beta *array.Array
	// Deleting marks the cells as retractions (see Context.Deleting).
	Deleting bool
	// Replay marks a pending-log materialization of the adaptive layer: the
	// batch re-applies deltas of input batches that already retired, so its
	// commit barrier does not advance the applied cursor (see
	// Context.RetireOnCommit), and it stays out of the planner's history
	// window — its pairs replay activity from original batches in bulk, and
	// letting a large coalesced drain haunt the window would inflate every
	// subsequent solve's scoring pass.
	Replay bool

	// The remaining fields are for a pipelined caller that keeps several
	// batches in flight on one cluster.

	// Tag, when set, marks the batch's scratch namespaces
	// ("<base>#<tag>delta<seq>", "<view>#stage-<tag><seq>") so concurrently
	// staged batches never collide — with each other or with an untagged
	// maintainer's "<base>#delta<seq>" and "<view>#stage" on the same cluster.
	Tag string
	// Pending lists base chunk keys that in-flight predecessors' commits will
	// create; Dirty reports base chunks their commits will rewrite (see
	// view.UnitGen.PendingAlpha and DirtyBase).
	Pending []array.ChunkKey
	Dirty   func(name string, key array.ChunkKey) bool
	// Keep protects scratch replicas from the batch's cleanup (see
	// Context.KeepScratch).
	Keep func(ref view.ChunkRef, node int) bool
}

// Prepared is a batch between Prepare and Run: its delta is staged under its
// own namespace and its Context is built.
type Prepared struct {
	// Seq numbers the batch's scratch namespaces.
	Seq int
	Ctx *Context

	batch  Batch
	deltas []string // staged delta namespaces

	// Plan-scratch admission (see Prepare).
	useScratch  bool
	footprint   string
	cached      *scratchEntry
	newBaseKeys bool

	tripleGen, planning time.Duration
}

// apply runs one batch through the three steps.
func (m *Maintainer) apply(b Batch) (*Report, error) {
	p, err := m.Prepare(b)
	if err != nil {
		return nil, err
	}
	plan, err := m.Plan(p)
	if err != nil {
		return nil, err
	}
	return m.Run(p, plan)
}

// Prepare registers the batch's delta namespace(s), stages the delta chunks
// at the coordinator, generates the update triples from catalog metadata and
// builds the maintenance Context. On error nothing of the batch is left
// staged.
func (m *Maintainer) Prepare(b Batch) (*Prepared, error) {
	p := &Prepared{batch: b}
	if err := m.prepare(p); err != nil {
		m.Discard(p)
		return nil, err
	}
	return p, nil
}

func (m *Maintainer) prepare(p *Prepared) error {
	b, alpha, beta := p.batch, m.def.Alpha, m.def.Beta
	m.mu.Lock()
	m.batchSeq++
	p.Seq = m.batchSeq
	m.mu.Unlock()
	deltaAlpha := fmt.Sprintf("%s#%sdelta%d", alpha.Name, b.Tag, p.Seq)
	deltaBeta := deltaAlpha
	p.deltas = []string{deltaAlpha}
	if !m.def.SelfJoin() {
		deltaBeta = fmt.Sprintf("%s#%sdelta%d", beta.Name, b.Tag, p.Seq)
		p.deltas = append(p.deltas, deltaBeta)
	}
	if err := m.stage(deltaAlpha, alpha, b.Alpha); err != nil {
		return err
	}
	if !m.def.SelfJoin() {
		if err := m.stage(deltaBeta, beta, b.Beta); err != nil {
			return err
		}
	}

	// Footprint cache: with cell pruning off, the unit set and the solved
	// placement are pure functions of the delta chunk-key footprint and the
	// base chunk-key generation, so replayed footprints skip triple
	// generation and the optimizer solve entirely. Deletions shrink the
	// base key set, so they bypass and invalidate the scratch.
	p.useScratch = m.scratch != nil && m.def.SelfJoin() && !b.Deleting && !m.params.CellPruning
	if p.useScratch {
		p.footprint = scratchFootprint(b.Alpha.ChunkKeys())
		p.cached = m.scratch.lookup(p.footprint)
		for _, k := range b.Alpha.ChunkKeys() {
			if _, ok := m.cl.Catalog().Home(alpha.Name, k); !ok {
				p.newBaseKeys = true
				break
			}
		}
	}

	tripleStart := time.Now()
	var units []view.Unit
	if p.cached != nil {
		units = p.cached.rebuildUnits(alpha.Name, deltaAlpha)
	} else {
		gen := &view.UnitGen{
			Catalog: m.cl.Catalog(), Def: m.def,
			BaseAlpha: alpha.Name, BaseBeta: beta.Name,
			DeltaAlpha: deltaAlpha, DeltaBeta: deltaBeta,
			CellPruning:  m.params.CellPruning,
			PendingAlpha: b.Pending,
			DirtyBase:    b.Dirty,
		}
		var err error
		if units, err = gen.Generate(); err != nil {
			return err
		}
	}
	p.tripleGen = time.Since(tripleStart)

	params := m.params
	m.mu.Lock()
	params.Seed = m.rng.Int63() // fresh randomized order per batch, reproducibly
	m.mu.Unlock()
	ctx, err := NewContext(m.cl, m.def, units,
		alpha.Name, beta.Name, deltaAlpha, deltaBeta,
		m.def.Name, m.history, params)
	if err != nil {
		return err
	}
	ctx.ArrayPlacement = m.arrayPlacement
	ctx.ViewPlacement = m.viewPlacement
	ctx.Deleting = b.Deleting
	ctx.RetireOnCommit = !b.Replay
	ctx.JoinMemo = m.memo
	ctx.Trace = obs.NewTrace()
	ctx.KeepScratch = b.Keep
	if b.Tag != "" {
		ctx.ScratchSuffix = fmt.Sprintf("-%s%d", b.Tag, p.Seq)
	}
	p.Ctx = ctx
	return nil
}

// Plan solves the prepared batch: the cached solution when Prepare admitted
// the batch's footprint to the plan scratch, the planner otherwise. On error
// the batch's delta namespace is dropped.
func (m *Maintainer) Plan(p *Prepared) (*Plan, error) {
	start := time.Now()
	defer func() { p.planning = time.Since(start) }()
	if e := p.cached; e != nil {
		return AssemblePlan(p.Ctx, "scratch-reuse",
			func(i int, _ view.Unit) int { return e.joinSite[i] }, e.viewHome), nil
	}
	plan, err := m.planner.Plan(p.Ctx)
	if err != nil {
		m.Discard(p)
		return nil, err
	}
	return plan, nil
}

// Run executes the plan (see Execute) and records the committed batch in the
// history window and the plan scratch. On error the batch is rolled back and
// nothing of it is left staged.
func (m *Maintainer) Run(p *Prepared, plan *Plan) (*Report, error) {
	ctx, b := p.Ctx, p.batch
	execStart := time.Now()
	ledger, epoch, err := execute(ctx, plan)
	if err != nil {
		// An abort already scrubbed the delta namespace; a plan the executor
		// refused to begin on has not been scrubbed by anyone.
		m.Discard(p)
		return nil, err
	}
	execWall := time.Since(execStart)
	if !b.Replay {
		m.history.Record(ctx)
	}
	if p.useScratch {
		// A batch that added chunk keys to the base invalidates every
		// cached footprint: they solved against a base that no longer
		// exists (and its own solution is equally stale, so it is not
		// stored). Pure-overwrite batches — the replay pattern — leave the
		// key set intact and their solutions reusable.
		if p.newBaseKeys {
			m.scratch.Invalidate()
		} else if p.cached == nil {
			m.scratch.store(p.footprint, ctx, plan)
		}
	}
	if m.scratch != nil && b.Deleting {
		m.scratch.Invalidate()
	}

	nTriples := 0
	for _, u := range ctx.Units {
		nTriples += len(u.Views)
	}
	return &Report{
		Strategy:            m.planner.Name(),
		MaintenanceSeconds:  ledger.Cost(),
		OptimizationSeconds: (p.tripleGen + p.planning).Seconds(),
		TripleGenSeconds:    p.tripleGen.Seconds(),
		ExecSeconds:         execWall.Seconds(),
		NumUnits:            len(ctx.Units),
		NumTriples:          nTriples,
		NumTransfers:        plan.NumTransfers(),
		Plan:                plan,
		Ledger:              ledger,
		Trace:               ctx.Trace,
		Epoch:               epoch,
	}, nil
}

// Discard drops the delta namespace(s) of a prepared batch that will never
// reach Run's cleanup — the pipelined caller's counterpart of what Plan and
// Run do on their own errors. Dropping twice is harmless.
func (m *Maintainer) Discard(p *Prepared) {
	dropDeltas(m.cl, p.deltas)
}

// stage registers a per-batch delta namespace and stages the delta's
// chunks at the coordinator, validating the disjoint-insert precondition
// at chunk metadata level (cell-level validation is the caller's job; see
// view.DisjointInsert).
func (m *Maintainer) stage(deltaName string, base *array.Schema, delta *array.Array) error {
	if delta == nil {
		delta = array.New(base)
	}
	schema := *base
	schema.Name = deltaName
	if err := m.cl.Catalog().Register(&schema); err != nil {
		return err
	}
	var chunks []*array.Chunk
	delta.EachChunk(func(c *array.Chunk) bool {
		chunks = append(chunks, c)
		return true
	})
	return m.cl.StageDelta(deltaName, chunks)
}
