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
// dominant factor, as in the paper's Figure 6.
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
	// Ledger is the executed plan's simulated cost.
	Ledger *cluster.Ledger
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
	// assembled-view cache, the shape-keyed decision memo, and the parallel
	// snapshot join. Nil keeps every answer on the cold path.
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

// AnswerCtx is Answer with cancellation: the context threads through plan
// selection and the per-node join fan-out, so an expired server deadline
// stops scheduling further chunk-pair tasks instead of running the query to
// completion for nobody.
func (e *Engine) AnswerCtx(ctx context.Context, queryShape *shape.Shape, mode Mode) (*Result, error) {
	if e.Fresh != nil {
		if err := e.Fresh(ctx); err != nil {
			return nil, fmt.Errorf("query: materializing pending deltas: %w", err)
		}
	}
	ch, err := e.decideForMode(ctx, queryShape, mode)
	if err != nil {
		return nil, err
	}
	if ch.UseView {
		return e.answerWithView(ctx, queryShape, ch)
	}
	return e.answerComplete(ctx, queryShape, ch)
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
	viewCost, _, err := e.planViewPath(ent.delta)
	if err != nil {
		return Choice{}, err
	}
	if err := ctx.Err(); err != nil {
		return Choice{}, err
	}
	completeCost, _, err := e.planPath(queryShape, e.fullJoinUnits(queryShape), pathComplete)
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

// answerComplete runs the full similarity join over the base array.
func (e *Engine) answerComplete(ctx context.Context, queryShape *shape.Shape, ch Choice) (*Result, error) {
	_, plan, err := e.planPath(queryShape, e.fullJoinUnits(queryShape), pathComplete)
	if err != nil {
		return nil, err
	}
	pred := simjoin.NewPred(queryShape, e.Def.Pred.Mapping)
	out, ledger, err := e.execute(ctx, plan, pred, nil)
	if err != nil {
		return nil, err
	}
	return &Result{Array: out, Choice: ch, Ledger: ledger}, nil
}

// answerWithView evaluates the Δ-shape join and merges it, signed, with the
// view content.
func (e *Engine) answerWithView(ctx context.Context, queryShape *shape.Shape, ch Choice) (*Result, error) {
	vw, err := e.Cluster.Gather(e.Def.Name)
	if err != nil {
		return nil, err
	}
	// Chunk-granularity copy: the gathered chunks may alias store copies and
	// the signed merge below mutates state tuples in place, so the result
	// array needs its own chunks — but cloning them wholesale beats the old
	// per-cell Set loop, which paid a point-to-chunk lookup per view cell.
	out := array.New(e.Def.Schema())
	vw.EachChunk(func(c *array.Chunk) bool {
		err = out.MergeChunk(c)
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	if ch.Delta == nil {
		return &Result{Array: out, Choice: ch, Ledger: e.Cluster.NewLedger()}, nil
	}
	_, plan, err := e.planViewPath(ch.Delta)
	if err != nil {
		return nil, err
	}
	// Signed evaluation: offsets the query adds contribute +1, offsets only
	// the view has contribute −1.
	pred := simjoin.NewPred(ch.Delta, e.Def.Pred.Mapping)
	diff, ledger, err := e.execute(ctx, plan, pred, ch.signOf)
	if err != nil {
		return nil, err
	}
	if err := view.MergeDelta(e.Def, out, diff); err != nil {
		return nil, err
	}
	return &Result{Array: out, Choice: ch, Ledger: ledger}, nil
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
func (e *Engine) planViewPath(delta *shape.Shape) (float64, *queryPlan, error) {
	units := e.fullJoinUnits(delta)
	inPlaceCost, inPlace, err := e.planPath(delta, units, pathViewInPlace)
	if err != nil {
		return 0, nil, err
	}
	freshCost, fresh, err := e.planPath(delta, units, pathViewFresh)
	if err != nil {
		return 0, nil, err
	}
	if inPlaceCost <= freshCost {
		return inPlaceCost, inPlace, nil
	}
	return freshCost, fresh, nil
}

// planPath prices a shape's full-join unit set (see fullJoinUnits) with the
// greedy maintenance planner under the given result-assembly kind.
func (e *Engine) planPath(sh *shape.Shape, units []view.Unit, kind pathKind) (float64, *queryPlan, error) {
	viewName := e.Def.Name + "#result"
	if kind == pathViewInPlace {
		viewName = e.Def.Name
	}
	ctx, err := maintain.NewContext(e.Cluster, e.Def, units,
		e.Def.Alpha.Name, e.Def.Beta.Name,
		e.Def.Alpha.Name+"#noq", e.Def.Beta.Name+"#noq",
		viewName, nil, e.Params)
	if err != nil {
		return 0, nil, err
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
	var best *queryPlan
	for _, planner := range []maintain.Planner{maintain.Differential{}, maintain.Baseline{}} {
		p, err := planner.Plan(ctx)
		if err != nil {
			return 0, nil, err
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
		if best == nil || ledger.Cost() < best.ledger.Cost() {
			best = &queryPlan{ctx: ctx, plan: p, units: units, ledger: ledger}
		}
	}
	return best.ledger.Cost(), best, nil
}

type queryPlan struct {
	ctx    *maintain.Context
	plan   *maintain.Plan
	units  []view.Unit
	ledger *cluster.Ledger
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

// execute runs the planned joins on the cluster and returns the gathered
// aggregate result. signOf scales each match's contribution by the sign of
// its offset (nil means always +1). Transfers are applied physically and
// reverted afterwards (queries must not disturb the layout). Cancelling the
// context stops the transfer loop and the per-node join fan-out.
func (e *Engine) execute(ctx context.Context, qp *queryPlan, pred simjoin.Pred, signOf func(off []int64) float64) (*array.Array, *cluster.Ledger, error) {
	cl := e.Cluster
	def := e.Def
	vs := def.Schema()
	ledger := qp.ledger

	for _, t := range qp.plan.Transfers {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if err := cl.Transfer(nil, t.Ref.Array, t.Ref.Key, t.From, t.To); err != nil {
			return nil, nil, err
		}
	}
	resultName := qp.ctx.ViewName + "#tmp"
	stateSpec := def.StateMergeSpec()
	tasks := make(map[int][]cluster.Task)
	for i := range qp.units {
		u := qp.units[i]
		site := qp.plan.JoinSite[i]
		tasks[site] = append(tasks[site], func() error {
			cp, err := cl.GetAt(site, u.P.Array, u.P.Key)
			if err != nil {
				return err
			}
			cq, err := cl.GetAt(site, u.Q.Array, u.Q.Key)
			if err != nil {
				return err
			}
			partials := make(map[array.ChunkKey]*array.Chunk)
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
					return part.Set(g, cur) == nil
				}
				return part.Set(g, contrib) == nil
			})
			for key, part := range partials {
				home, ok := qp.plan.ViewHome[key]
				if !ok {
					return fmt.Errorf("query: partial for unplanned result chunk %v", key.Coord())
				}
				if err := cl.MergeAt(home, resultName, part, stateSpec); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := cl.RunPerNodeCtx(ctx, tasks); err != nil {
		return nil, nil, err
	}

	// Gather the result and clean up scratch state.
	out := array.New(vs)
	for node := 0; node < cl.NumNodes(); node++ {
		keys, err := cl.KeysAt(node, resultName)
		if err != nil {
			return nil, nil, err
		}
		for _, key := range keys {
			ch, err := cl.GetAt(node, resultName, key)
			if err != nil {
				return nil, nil, err
			}
			if err := out.MergeChunk(ch); err != nil {
				return nil, nil, err
			}
		}
		if _, err := cl.DropArrayAt(node, resultName); err != nil {
			return nil, nil, err
		}
	}
	for _, t := range qp.plan.Transfers {
		if home, ok := cl.Catalog().Home(t.Ref.Array, t.Ref.Key); ok && t.To != home {
			if _, err := cl.DeleteAt(t.To, t.Ref.Array, t.Ref.Key); err != nil {
				return nil, nil, err
			}
		}
	}
	cl.Catalog().ClearReplicas(e.Def.Alpha.Name)
	return out, ledger, nil
}
