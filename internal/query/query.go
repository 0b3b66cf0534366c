// Package query integrates materialized array views into similarity join
// queries (Section 5 of the paper). Given a query whose shape differs from
// the view's, it either
//
//   - answers differentially: evaluate the similarity join over the Δ shape
//     (the positional symmetric difference of the view and query shapes)
//     and merge it — signed — with the view, or
//   - computes the complete similarity join from the base array,
//
// choosing by the analytical cost model of Eq. 3. Every answer is evaluated
// read-only on a snapshot, at the caller (see AnswerSnapshot), so both
// alternatives are priced as exactly that: the chunk pairs each path would
// join on the snapshot, their join work and the bytes fetched to the
// caller, plus the view's bytes on the differential path. The cheaper path
// wins and joins the very pairs it was priced on. The relative size of Δ
// versus the query shape is the dominant factor, as in the paper's
// Figure 6.
package query

import (
	"context"
	"fmt"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/shape"
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
	// ViewCost and CompleteCost are the Eq. 3 costs in seconds of the two
	// paths at the decision's snapshot; zero when nothing was priced.
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
	// pairs is the priced chunk-pair list of the chosen path, nil when
	// nothing was priced; the answer joins it as is.
	pairs *pairList
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

// Decide prices both evaluation paths for the query shape on a snapshot of
// the cluster without executing either.
func (e *Engine) Decide(queryShape *shape.Shape) (Choice, error) {
	return e.DecideCtx(context.Background(), queryShape)
}

// DecideCtx is Decide with cancellation: a deadline that has expired before
// pricing starts aborts the decision.
func (e *Engine) DecideCtx(ctx context.Context, queryShape *shape.Shape) (Choice, error) {
	snap, err := e.Cluster.Epochs().Snapshot()
	if err != nil {
		return Choice{}, err
	}
	defer snap.Release()
	return e.decideForMode(ctx, snap, queryShape, Auto)
}

// Answer evaluates the query, deciding the path per mode.
func (e *Engine) Answer(queryShape *shape.Shape, mode Mode) (*Result, error) {
	return e.AnswerCtx(context.Background(), queryShape, mode)
}

// AnswerCtx is Answer with cancellation: an expired deadline aborts the
// decision and stops the snapshot join between chunk pairs.
func (e *Engine) AnswerCtx(ctx context.Context, queryShape *shape.Shape, mode Mode) (*Result, error) {
	res, _, err := e.AnswerCached(ctx, nil, queryShape, mode)
	return res, err
}

// AnswerCached runs the Fresh hook, takes a snapshot of the cluster (see
// cluster.Epochs.Snapshot), decides and evaluates the query on it through
// the optional read cache with AnswerSnapshot, and releases the snapshot.
// It returns the epoch the answer is consistent with, 0 when epochs are
// off. Nothing is written: no chunk moves and no scratch array is created.
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
// paths over the snapshot's chunk pairs; forced modes skip pricing. The
// chosen path's pair list rides on the Choice, so the answer joins exactly
// the pairs that were priced. With a FastPath attached, the decomposition
// is memoized per query-shape fingerprint and the pair lists per (epoch,
// join-shape box).
func (e *Engine) decideForMode(ctx context.Context, snap *cluster.Snapshot, queryShape *shape.Shape, mode Mode) (Choice, error) {
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
	if err := ctx.Err(); err != nil {
		return Choice{}, err
	}
	viewPairs, err := e.snapshotPairs(snap, ent.delta)
	if err != nil {
		return Choice{}, err
	}
	completePairs, err := e.snapshotPairs(snap, queryShape)
	if err != nil {
		return Choice{}, err
	}
	ch.ViewCost = e.price(ent.delta, viewPairs, snap.Bytes(e.Def.Name))
	ch.CompleteCost = e.price(queryShape, completePairs, 0)
	ch.UseView = ch.ViewCost <= ch.CompleteCost
	ch.pairs = completePairs
	if ch.UseView {
		ch.pairs = viewPairs
	}
	return ch, nil
}

// price is the Eq. 3 cost of evaluating one join shape at the caller, on a
// one-node ledger: every pair is joined there and every chunk it reads is
// fetched there. Join work is Σ(B_p + B_q) × Tcpu, scaled by the shape's
// cardinality relative to the view's — the model's constants are
// calibrated for the view's shape, and a pair probed with fewer offsets
// does proportionally less work, which is what reduces the decision to the
// paper's |Δ|/|query| rule. Network is the bytes of the distinct base chunks
// fetched plus viewBytes, the view-interaction term of the differential
// path, × Tntwk: a fetch moves the whole chunk whatever the shape. The
// price reads only the snapshot, so it is a pure function of (snapshot,
// shape).
func (e *Engine) price(sh *shape.Shape, pl *pairList, viewBytes int64) float64 {
	model := e.Cluster.CostModel()
	model.Tcpu *= float64(sh.Card()) / float64(e.Def.Pred.Shape.Card())
	l := cluster.NewLedger(1, model)
	l.ChargeJoin(0, pl.joinBytes)
	l.ChargeTransfer(0, pl.fetchBytes+viewBytes)
	return l.Cost()
}

// deltaEntry computes (or recalls) the snapshot-independent half of a
// decision: the Δ shape. The query shape is caller-supplied, so an arity
// mismatch is a bad query, not a broken invariant — it surfaces as an
// error.
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
