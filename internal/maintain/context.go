package maintain

import (
	"fmt"
	"math/rand"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/view"
)

// Context bundles everything a planner needs for one batch: the cluster
// (catalog = S_q, B_q), the view definition, the batch's update units, the
// historical window, and the parameters.
type Context struct {
	Cluster *cluster.Cluster
	Def     *view.Definition
	Units   []view.Unit

	// Catalog namespaces.
	BaseAlpha, BaseBeta   string
	DeltaAlpha, DeltaBeta string
	ViewName              string

	// Model is the cost model plans are priced under. It defaults to the
	// cluster's calibrated model; the query layer overrides Tcpu per shape
	// because join CPU scales with the shape's offset count (the paper's
	// "empirical calibration" of Tcpu is per workload shape).
	Model cluster.CostModel

	// ResultScale scales the differential-result volume shipped per triple
	// relative to B_pq. It defaults to 1 (maintenance, calibrated at the
	// view's shape); the query layer sets it to the relative shape
	// cardinality because larger shapes match more pairs per chunk.
	ResultScale float64

	// Deleting marks the batch as a deletion: the staged chunks hold cells
	// to retract. Join contributions flip sign per the identity
	// ΔV = −(D⋈A) − (A⋈D) + (D⋈D), and ingestion removes the cells.
	Deleting bool

	// ArrayPlacement and ViewPlacement assign homes to new chunks when no
	// optimization does (baseline and differential strategies).
	ArrayPlacement cluster.Placement
	ViewPlacement  cluster.Placement

	History *History
	Params  Params
	Rng     *rand.Rand

	// JoinMemo, when non-nil, lets Execute reuse cached join partials for
	// chunk pairs whose input content hashes match a previously executed
	// pair (the adaptive path's precomputed join state for heavy chunks).
	// It also makes the commit path re-record base-chunk content hashes
	// after folding deltas in, so subsequent batches can address those
	// chunks by content.
	JoinMemo *JoinMemo

	// Trace, when non-nil, receives the per-phase spans and per-node task
	// timings of Execute. A nil trace costs nothing.
	Trace *obs.Trace

	// ScratchSuffix disambiguates the batch's shadow staging namespace
	// ("<view>#stage<suffix>"). The batch-at-a-time path leaves it empty;
	// the streaming pipeline gives every in-flight micro-batch its own
	// suffix so concurrently staged partials never collide.
	ScratchSuffix string

	// KeepScratch, when non-nil, is consulted during cleanup (and abort): a
	// scratch replica (array chunk at a node) for which it returns true
	// survives the scrub, both physically and in the catalog. The streaming
	// pipeline uses it to protect replicas that in-flight successor batches
	// claimed for their own joins. Installing any predicate also preserves
	// the base arrays' replica records wholesale (successors resolve sources
	// from them).
	KeepScratch func(ref view.ChunkRef, node int) bool

	// RetireOnCommit marks this batch's durable commit barrier as retiring
	// one top-level input batch: the barrier advances the applied-batch
	// cursor (wal.Recovered.Applied) that restart resume indexes the input
	// feed with. Top-level entry points set it; internal applies — the
	// adaptive layer's pending-log materializations, fence pre-applies,
	// promotions — leave it false, because their barriers replay batches
	// that already retired. Rollback barriers never retire regardless.
	RetireOnCommit bool

	ix *planIndex
}

// StagingName returns the batch's shadow staging namespace. The "#" infix
// keeps it out of durable epoch snapshots (see cluster.durableName).
func (c *Context) StagingName() string {
	return c.ViewName + "#stage" + c.ScratchSuffix
}

// NewContext validates and completes a context.
func NewContext(cl *cluster.Cluster, def *view.Definition, units []view.Unit, baseAlpha, baseBeta, deltaAlpha, deltaBeta, viewName string, hist *History, params Params) (*Context, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if cl == nil || def == nil {
		return nil, fmt.Errorf("maintain: nil cluster or definition")
	}
	ctx := &Context{
		Cluster: cl, Def: def, Units: units,
		BaseAlpha: baseAlpha, BaseBeta: baseBeta,
		DeltaAlpha: deltaAlpha, DeltaBeta: deltaBeta,
		ViewName:       viewName,
		Model:          cl.CostModel(),
		ResultScale:    1,
		ArrayPlacement: cluster.HashPlacement{},
		ViewPlacement:  cluster.HashPlacement{},
		History:        hist,
		Params:         params,
		Rng:            rand.New(rand.NewSource(params.Seed)),
	}
	return ctx, nil
}

// SizeOf returns B for a chunk reference from the catalog.
func (c *Context) SizeOf(r view.ChunkRef) int64 {
	return c.Cluster.Catalog().ChunkSize(r.Array, r.Key)
}

// HomeOf returns S for a chunk reference (cluster.Coordinator for staged
// deltas).
func (c *Context) HomeOf(r view.ChunkRef) int {
	home, ok := c.Cluster.Catalog().Home(r.Array, r.Key)
	if !ok {
		return cluster.Coordinator
	}
	return home
}

// PairBytes returns B_pq = B_p + B_q of a unit.
func (c *Context) PairBytes(u view.Unit) int64 {
	return c.SizeOf(u.P) + c.SizeOf(u.Q)
}

// ViewHomeOf returns the current home of a view chunk and whether the chunk
// already exists.
func (c *Context) ViewHomeOf(key array.ChunkKey) (int, bool) {
	return c.Cluster.Catalog().Home(c.ViewName, key)
}

// ViewHomeHint resolves the y = S view home used by stage one of the
// heuristic (the paper fixes the chunk assignment to S when solving for z
// and x): the catalog home for existing view chunks, the static placement
// for new ones — the planning index's column for the batch's view chunks.
func (c *Context) ViewHomeHint(key array.ChunkKey) int {
	ix := c.index()
	if id, ok := ix.viewID[key]; ok {
		return int(ix.viewHint[id])
	}
	if h, ok := c.ViewHomeOf(key); ok {
		return h
	}
	return c.ViewPlacement.Place(key, c.Cluster.NumNodes())
}

// DeltaRefs returns the distinct array-side chunk refs of the batch (the
// "a" chunks of Algorithm 3): every chunk participating in some unit. The
// slice is shared; callers must not modify it.
func (c *Context) DeltaRefs() []view.ChunkRef { return c.index().refs }

// IsDelta reports whether the ref belongs to a staged delta namespace.
func (c *Context) IsDelta(r view.ChunkRef) bool {
	return r.Array == c.DeltaAlpha || r.Array == c.DeltaBeta
}

// BaseNameFor maps a delta namespace to its base array name (identity for
// base refs).
func (c *Context) BaseNameFor(arrayName string) string {
	switch arrayName {
	case c.DeltaAlpha:
		return c.BaseAlpha
	case c.DeltaBeta:
		return c.BaseBeta
	default:
		return arrayName
	}
}
