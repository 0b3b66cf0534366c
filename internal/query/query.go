// Package query integrates materialized array views into similarity join
// queries (Section 5 of the paper). Given a query whose shape differs from
// the view's, it either
//
//   - answers differentially: evaluate the similarity join over the Δ shape
//     (the positional symmetric difference of the view and query shapes)
//     and merge it — signed — with the view, or
//   - computes the complete similarity join from the base array,
//
// choosing by the analytical cost model of Eq. 3: both alternatives are
// planned with the same greedy placement used for view maintenance and the
// cheaper plan wins. The relative size of Δ versus the query shape is the
// dominant factor, as in the paper's Figure 6. The plans only price the
// choice; the chosen path is evaluated read-only on a snapshot, at the
// caller (see AnswerSnapshot).
package query

import (
	"context"
	"fmt"
	"slices"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/shape"
	"github.com/arrayview/arrayview/internal/simjoin"
	"github.com/arrayview/arrayview/internal/view"
)

// Mode selects how Answer picks its evaluation path.
type Mode int

const (
	// Auto lets the cost model decide.
	Auto Mode = iota
	// ForceComplete always computes the full similarity join.
	ForceComplete
	// ForceView always answers from the view via the Δ shape.
	ForceView
)

// Choice records the cost model's verdict for one query.
type Choice struct {
	// UseView is true when the differential path is (or was forced) chosen.
	UseView bool
	// ViewCost and CompleteCost are the Eq. 3 plan costs in seconds.
	ViewCost, CompleteCost float64
	// DeltaCard and QueryCard are |Δ| and |query shape|; their ratio is the
	// paper's rule-of-thumb predictor.
	DeltaCard, QueryCard int64
	// Delta is the positional symmetric difference of the view and query
	// shapes, computed once per decision and carried here so the answer
	// paths never re-derive it. Nil means the query shape IS the view shape.
	Delta *shape.Shape
	// query is the shape the decision was made for; it signs Delta.
	query *shape.Shape
}

// signOf returns the signed-evaluation weight of a Δ offset (the only kind
// the Δ-shape join emits): +1 for offsets the query adds, −1 for offsets
// only the view has.
func (ch *Choice) signOf(off []int64) float64 {
	if ch.query.Contains(off) {
		return 1
	}
	return -1
}

// Result is an answered query.
type Result struct {
	// Array holds the aggregate state tuples of the answer (see
	// Definition.Output to render user-facing values).
	Array  *array.Array
	Choice Choice
}

// Engine answers shape-based similarity join aggregate queries over a base
// array that carries a materialized self-join view.
type Engine struct {
	Cluster *cluster.Cluster
	// Def is the materialized view's definition; queries reuse its
	// mapping, group-by, and aggregates but substitute their own shape.
	Def    *view.Definition
	Params maintain.Params
	// Fresh, when non-nil, runs before each answer so lazily-maintained
	// state can be materialized first (the adaptive path's pending-delta
	// log). The hook commits through the normal maintenance path, so
	// snapshot readers are unaffected; an error fails the query rather
	// than silently answering stale.
	Fresh func(context.Context) error
	// Fast, when non-nil, enables the serving accelerators: the epoch-keyed
	// assembled-view cache, the shape-keyed decision memo, and a chosen
	// snapshot-join width. Nil keeps every answer on the cold path, which
	// caches nothing but still joins at GOMAXPROCS width. The caches are
	// keyed by epoch, so Fast needs epochs on (NewServer enables them).
	Fast *FastPath
}

// NewEngine validates and returns an engine.
func NewEngine(cl *cluster.Cluster, def *view.Definition, params maintain.Params) (*Engine, error) {
	if !def.SelfJoin() {
		return nil, fmt.Errorf("query: engine over %s: %w", def.Name, view.ErrSelfJoinOnly)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Engine{Cluster: cl, Def: def, Params: params}, nil
}

// Decide prices both evaluation paths for the query shape without
// executing either.
func (e *Engine) Decide(queryShape *shape.Shape) (Choice, error) {
	return e.DecideCtx(context.Background(), queryShape)
}

// DecideCtx is Decide with cancellation: a server deadline expiring between
// planning steps aborts the decision.
func (e *Engine) DecideCtx(ctx context.Context, queryShape *shape.Shape) (Choice, error) {
	return e.decideForMode(ctx, queryShape, Auto)
}

// Answer evaluates the query, deciding the path per mode.
func (e *Engine) Answer(queryShape *shape.Shape, mode Mode) (*Result, error) {
	return e.AnswerCtx(context.Background(), queryShape, mode)
}

// AnswerCtx is Answer with cancellation: an expired deadline aborts plan
// selection and stops the snapshot join between chunk pairs.
func (e *Engine) AnswerCtx(ctx context.Context, queryShape *shape.Shape, mode Mode) (*Result, error) {
	res, _, err := e.AnswerCached(ctx, nil, queryShape, mode)
	return res, err
}

// AnswerCached runs the Fresh hook, takes a snapshot of the cluster (see
// cluster.Epochs.Snapshot), evaluates the query on it through the optional
// read cache with AnswerSnapshot, and releases the snapshot. It returns the
// epoch the answer is consistent with, 0 when epochs are off. Nothing is
// written: no chunk moves and no scratch array is created.
func (e *Engine) AnswerCached(ctx context.Context, rc *cluster.ReadCache, queryShape *shape.Shape, mode Mode) (*Result, uint64, error) {
	if e.Fresh != nil {
		// Runs before the snapshot is taken, so a materialization is just
		// another commit publishing the epoch this answer then reads.
		if err := e.Fresh(ctx); err != nil {
			return nil, 0, fmt.Errorf("query: materializing pending deltas: %w", err)
		}
	}
	snap, err := e.Cluster.Epochs().Snapshot()
	if err != nil {
		return nil, 0, err
	}
	defer snap.Release()
	res, err := e.AnswerSnapshot(ctx, snap, rc, queryShape, mode)
	if err != nil {
		return nil, 0, err
	}
	return res, snap.Epoch(), nil
}

// decideForMode derives the Δ decomposition and, under Auto, prices both
// paths; forced modes skip planning entirely. With a FastPath attached, the
// decomposition is memoized per query-shape fingerprint and the plan costs
// per catalog layout version, so a repeated shape over an unchanged layout
// runs no placement solves at all.
func (e *Engine) decideForMode(ctx context.Context, queryShape *shape.Shape, mode Mode) (Choice, error) {
	ent, err := e.deltaEntry(queryShape)
	if err != nil {
		return Choice{}, err
	}
	ch := Choice{
		QueryCard: queryShape.Card(),
		DeltaCard: ent.deltaCard,
		Delta:     ent.delta,
		query:     queryShape,
	}
	if ent.delta == nil {
		// The query IS the view; the differential path is free.
		ch.UseView = true
		return ch, nil
	}
	if mode != Auto {
		ch.UseView = mode == ForceView
		return ch, nil
	}
	f := e.Fast
	layout := e.Cluster.Catalog().LayoutVersion()
	if f != nil {
		if viewCost, completeCost, ok := f.costs(ent, layout); ok {
			if f.Counters != nil {
				f.Counters.SolveSkips.Add(solvesPerDecision)
			}
			ch.ViewCost = viewCost
			ch.CompleteCost = completeCost
			ch.UseView = viewCost <= completeCost
			return ch, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return Choice{}, err
	}
	viewCost, err := e.planViewPath(ent.delta)
	if err != nil {
		return Choice{}, err
	}
	if err := ctx.Err(); err != nil {
		return Choice{}, err
	}
	completeCost, err := e.planPath(queryShape, e.fullJoinUnits(queryShape), pathComplete)
	if err != nil {
		return Choice{}, err
	}
	if f != nil {
		f.setCosts(ent, layout, viewCost, completeCost)
	}
	ch.ViewCost = viewCost
	ch.CompleteCost = completeCost
	ch.UseView = viewCost <= completeCost
	return ch, nil
}

// deltaEntry computes (or recalls) the layout-independent half of a
// decision: the Δ shape. The query shape is
// caller-supplied, so an arity mismatch is a bad query, not a broken
// invariant — it surfaces as an error.
func (e *Engine) deltaEntry(queryShape *shape.Shape) (*decideEntry, error) {
	f := e.Fast
	fp := ""
	if f != nil {
		var err error
		if fp, err = queryShape.Fingerprint(); err != nil {
			// Not memoizable (no buildable spec); fall through uncached.
			fp = ""
		} else if ent := f.lookupDecide(fp); ent != nil {
			f.countMemo(true)
			return ent, nil
		}
	}
	delta, err := shape.DeltaChecked(e.Def.Pred.Shape, queryShape)
	if err != nil {
		return nil, err
	}
	ent := &decideEntry{delta: delta}
	if delta != nil {
		ent.deltaCard = delta.Card()
	}
	if f != nil && fp != "" {
		f.countMemo(false)
		ent = f.storeDecide(fp, ent)
	}
	return ent, nil
}

// pathKind selects how a query path assembles its result.
type pathKind int

const (
	// pathComplete computes the full join into a fresh result array.
	pathComplete pathKind = iota
	// pathViewFresh evaluates the Δ join into a fresh result array and
	// ships the view's content to it — the Eq. 3 "interaction with the
	// view" term.
	pathViewFresh
	// pathViewInPlace evaluates the Δ join and merges it at the view
	// chunks' current homes; the view itself never moves.
	pathViewInPlace
)

// planViewPath prices both differential variants — merge at the view's
// homes versus assemble a fresh result and ship the view to it — and
// returns the cheaper, as a plan optimizer would. Both variants join the
// same chunk pairs, enumerated once.
func (e *Engine) planViewPath(delta *shape.Shape) (float64, error) {
	units := e.fullJoinUnits(delta)
	inPlace, err := e.planPath(delta, units, pathViewInPlace)
	if err != nil {
		return 0, err
	}
	fresh, err := e.planPath(delta, units, pathViewFresh)
	if err != nil {
		return 0, err
	}
	return min(inPlace, fresh), nil
}

// planPath prices a shape's full-join unit set (see fullJoinUnits) with the
// greedy maintenance planner under the given result-assembly kind.
func (e *Engine) planPath(sh *shape.Shape, units []view.Unit, kind pathKind) (float64, error) {
	viewName := e.Def.Name + "#result"
	if kind == pathViewInPlace {
		viewName = e.Def.Name
	}
	ctx, err := maintain.NewContext(e.Cluster, e.Def, units,
		e.Def.Alpha.Name, e.Def.Beta.Name,
		e.Def.Alpha.Name+"#noq", e.Def.Beta.Name+"#noq",
		viewName, nil, e.Params)
	if err != nil {
		return 0, err
	}
	// Under a query, the work AND data volume referenced per chunk pair
	// scale with the shape's offset count: a pair probed with a 4-offset Δ
	// does under half the work, emits under half the matches, and touches
	// under half the cells of the same pair under a 9-offset query shape.
	// The model's constants are calibrated for the view's shape, so the
	// whole model scales by relative cardinality — the paper's
	// per-workload "empirical calibration", under which the Eq. 3 decision
	// reduces to the |Δ|/|query| ratio rule the paper reports.
	factor := float64(sh.Card()) / float64(e.Def.Pred.Shape.Card())
	ctx.Model.Tcpu *= factor
	ctx.Model.Tntwk *= factor
	// Price the path under both the greedy join planner and the static
	// join-at-home baseline, keeping the cheaper — the greedy's
	// transfer-versus-work trade can be mispriced when the scaled join
	// work is small relative to chunk movement.
	best := 0.0
	for i, planner := range []maintain.Planner{maintain.Differential{}, maintain.Baseline{}} {
		p, err := planner.Plan(ctx)
		if err != nil {
			return 0, err
		}
		ledger := p.Charge(ctx)
		if kind == pathViewFresh {
			// Result chunk keys coincide with view chunk keys (same
			// schema): each result chunk needs the view's content shipped
			// in.
			cat := e.Cluster.Catalog()
			for v, home := range p.ViewHome {
				if vh, ok := cat.Home(e.Def.Name, v); ok {
					ledger.ChargeTransferTo(vh, home, cat.ChunkSize(e.Def.Name, v))
				}
			}
		}
		if cost := ledger.Cost(); i == 0 || cost < best {
			best = cost
		}
	}
	return best, nil
}

// fullJoinUnits enumerates every ordered occupied chunk pair of the base
// array that can match under the shape, with the affected result chunks.
func (e *Engine) fullJoinUnits(sh *shape.Shape) []view.Unit {
	pred := simjoin.NewPred(sh, e.Def.Pred.Mapping)
	cat := e.Cluster.Catalog()
	baseName := e.Def.Alpha.Name
	schema := cat.Schema(baseName)
	vs := e.Def.Schema()
	keys := cat.Keys(baseName)
	// Each chunk's region and source region once, and one occupancy set —
	// not a key decode, a dilation and a catalog lookup per candidate pair.
	slot := make(map[array.ChunkKey]int32, len(keys))
	regions := make([]array.Region, len(keys))
	sources := make([]array.Region, len(keys))
	for i, k := range keys {
		slot[k] = int32(i)
		regions[i] = schema.ChunkRegion(k.Coord())
		sources[i] = pred.SourceRegion(regions[i])
	}
	var units []view.Unit
	for pi, pk := range keys {
		pr := regions[pi]
		reach := pred.ReachRegion(pr)
		for _, cc := range schema.ChunksOverlapping(reach) {
			qi, ok := slot[cc.Key()]
			if !ok || !reach.Intersects(regions[qi]) {
				continue
			}
			src, ok := pr.Intersect(sources[qi])
			if !ok {
				continue
			}
			var views []array.ChunkKey
			for _, vc := range vs.ChunksOverlapping(e.Def.GroupRegion(src)) {
				views = append(views, vc.Key())
			}
			if len(views) == 0 {
				continue
			}
			slices.Sort(views)
			units = append(units, view.Unit{
				P:     view.ChunkRef{Array: baseName, Key: pk},
				Q:     view.ChunkRef{Array: baseName, Key: keys[qi]},
				Views: slices.Compact(views),
			})
		}
	}
	return units
}
