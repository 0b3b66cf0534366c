package arrayview

import (
	"fmt"

	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/engine"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/query"
	"github.com/arrayview/arrayview/internal/view"
)

// DB is a handle to a simulated shared-nothing array database: N worker
// nodes plus a coordinator, a system catalog, and a calibrated cost model.
type DB struct {
	cl *cluster.Cluster
}

// Option configures Open.
type Option func(*openConfig)

type openConfig struct {
	workers int
	model   *CostModel
}

// WithWorkersPerNode sets each node's worker-thread pool size.
func WithWorkersPerNode(n int) Option {
	return func(c *openConfig) { c.workers = n }
}

// WithCostModel overrides the calibrated Tntwk/Tcpu constants.
func WithCostModel(m CostModel) Option {
	return func(c *openConfig) { c.model = &m }
}

// Open creates a database with numNodes worker nodes.
func Open(numNodes int, opts ...Option) (*DB, error) {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	var clOpts []cluster.Option
	if cfg.workers > 0 {
		clOpts = append(clOpts, cluster.WithWorkersPerNode(cfg.workers))
	}
	if cfg.model != nil {
		clOpts = append(clOpts, cluster.WithCostModel(*cfg.model))
	}
	cl, err := cluster.New(numNodes, clOpts...)
	if err != nil {
		return nil, err
	}
	return &DB{cl: cl}, nil
}

// NumNodes returns the worker count.
func (db *DB) NumNodes() int { return db.cl.NumNodes() }

// Load distributes an array's chunks round-robin in row-major order — the
// paper's default layout. Use LoadWith for other placements.
func (db *DB) Load(a *Array) error {
	return db.cl.LoadArray(a, &cluster.RoundRobin{})
}

// LoadWith distributes an array's chunks with a custom placement.
func (db *DB) LoadWith(a *Array, p Placement) error {
	return db.cl.LoadArray(a, p)
}

// Gather reconstructs a distributed array (base array or view) as a local
// copy.
func (db *DB) Gather(name string) (*Array, error) {
	return db.cl.Gather(name)
}

// ChunkHomes returns, for each node, how many chunks of the named array it
// currently homes — useful for observing reassignment at work.
func (db *DB) ChunkHomes(name string) []int {
	out := make([]int, db.cl.NumNodes())
	for _, key := range db.cl.Catalog().Keys(name) {
		if h, ok := db.cl.Catalog().Home(name, key); ok && h >= 0 {
			out[h]++
		}
	}
	return out
}

// MaterializedView is a view materialized over the cluster together with
// its incremental maintainer.
type MaterializedView struct {
	db         *DB
	def        *Definition
	maintainer *maintain.Maintainer
	engine     *query.Engine // nil for a two-array view
}

// CreateView eagerly materializes the view over the already-loaded base
// array(s), distributes it, and attaches a maintainer with the given
// strategy. A nil params uses DefaultParams.
func (db *DB) CreateView(def *Definition, strategy Strategy, params *Params) (*MaterializedView, error) {
	if strategy == "" { // the composition root reads "" as its default
		return nil, fmt.Errorf("arrayview: unknown strategy %q", strategy)
	}
	p := maintain.DefaultParams()
	if params != nil {
		p = *params
	}
	// The composition root adopts the cluster this DB built and loaded. The
	// handle is not closed: it owns nothing the DB does not.
	h, err := engine.Open(engine.Config{Cluster: db.cl, Def: def, Strategy: string(strategy), Params: p})
	if err != nil {
		return nil, err
	}
	return &MaterializedView{db: db, def: def, maintainer: h.Maintainer(), engine: h.Query()}, nil
}

// Definition returns the view's definition.
func (v *MaterializedView) Definition() *Definition { return v.def }

// Update incrementally maintains the view (and ingests the batch into the
// base array) under a batch of insertions. The batch must be disjoint from
// the base content; use DisjointInsert to validate when unsure.
func (v *MaterializedView) Update(delta *Array) (*Report, error) {
	return v.maintainer.ApplyBatch(delta)
}

// Update2 maintains a two-array view under simultaneous insertions to α
// and/or β (either may be nil).
func (v *MaterializedView) Update2(dAlpha, dBeta *Array) (*Report, error) {
	return v.maintainer.ApplyBatch2(dAlpha, dBeta)
}

// Delete incrementally maintains the view (and the base array) under a
// batch of deletions. Every staged cell must exist in the base; use
// SubsetOf to validate when unsure. Views with MIN/MAX aggregates cannot
// be maintained under deletions.
func (v *MaterializedView) Delete(del *Array) (*Report, error) {
	return v.maintainer.ApplyDelete(del)
}

// Content gathers the current materialized content. Cells hold aggregate
// state tuples; render user-facing values with Values or
// Definition.Output.
func (v *MaterializedView) Content() (*Array, error) {
	return v.db.Gather(v.def.Name)
}

// Values returns the rendered aggregate values at a view cell (ok=false
// for an empty cell). It gathers the owning chunk; for bulk access use
// Content.
func (v *MaterializedView) Values(p Point) ([]float64, bool, error) {
	content, err := v.Content()
	if err != nil {
		return nil, false, err
	}
	t, ok := content.Get(p)
	if !ok {
		return nil, false, nil
	}
	return v.def.Output(t), true, nil
}

// Query answers a similarity join aggregate query with the given shape
// over the base array, using the view when the cost model favours it
// (Section 5). Only available on self-join views.
func (v *MaterializedView) Query(queryShape *Shape, mode QueryMode) (*QueryResult, error) {
	if v.engine == nil {
		return nil, fmt.Errorf("arrayview: query integration over %s: %w", v.def.Name, view.ErrSelfJoinOnly)
	}
	return v.engine.Answer(queryShape, mode)
}

// DecideQuery prices both query evaluation paths without executing either.
func (v *MaterializedView) DecideQuery(queryShape *Shape) (QueryChoice, error) {
	if v.engine == nil {
		return QueryChoice{}, fmt.Errorf("arrayview: query integration over %s: %w", v.def.Name, view.ErrSelfJoinOnly)
	}
	return v.engine.Decide(queryShape)
}

// ChainView is an n-array chain view materialized over the cluster. The
// differential computation runs at the coordinator (the paper's recursive
// n−1 joins); merging the differential into the distributed view reuses
// the cluster's storage paths.
type ChainView struct {
	db     *DB
	chain  *ChainDefinition
	inputs []string
}

// CreateChainView materializes a chain view over already-loaded input
// arrays (named by their schemas) and distributes it round-robin.
func (db *DB) CreateChainView(chain *ChainDefinition) (*ChainView, error) {
	inputs := make([]string, chain.NumInputs())
	arrays := make([]*Array, chain.NumInputs())
	for i, s := range chain.Inputs {
		inputs[i] = s.Name
		a, err := db.Gather(s.Name)
		if err != nil {
			return nil, err
		}
		arrays[i] = a
	}
	v, err := chain.Materialize(arrays)
	if err != nil {
		return nil, err
	}
	if err := db.cl.LoadArray(v, &cluster.RoundRobin{}); err != nil {
		return nil, err
	}
	return &ChainView{db: db, chain: chain, inputs: inputs}, nil
}

// Update maintains the chain view under insertions to the input at
// position k, ingesting the delta into that base array as well. The delta
// must be disjoint from the input's current content.
func (cv *ChainView) Update(k int, delta *Array) error {
	if k < 0 || k >= len(cv.inputs) {
		return fmt.Errorf("arrayview: chain has no position %d", k)
	}
	arrays := make([]*Array, len(cv.inputs))
	for i, name := range cv.inputs {
		a, err := cv.db.Gather(name)
		if err != nil {
			return err
		}
		arrays[i] = a
	}
	dv, err := cv.chain.DeltaInsert(arrays, k, delta)
	if err != nil {
		return err
	}
	// Merge the differential into the distributed view chunk-by-chunk at
	// each chunk's home, then ingest the delta into the input array.
	cat := cv.db.cl.Catalog()
	viewName := cv.chain.Name
	stateSpec := cv.chain.StateDefinition().StateMergeSpec()
	var mergeErr error
	dv.EachChunk(func(c *chunkAlias) bool {
		home, ok := cat.Home(viewName, c.Key())
		if !ok {
			home = (&RoundRobin{}).Place(c.Key(), cv.db.cl.NumNodes())
		}
		if err := cv.db.cl.MergeAt(home, viewName, c, stateSpec); err != nil {
			mergeErr = err
			return false
		}
		merged, err := cv.db.cl.GetAt(home, viewName, c.Key())
		if err != nil {
			mergeErr = err
			return false
		}
		if err := cat.SetChunk(viewName, c.Key(), home, merged.SizeBytes(), merged.NumCells()); err != nil {
			mergeErr = err
			return false
		}
		return true
	})
	if mergeErr != nil {
		return mergeErr
	}
	// Ingest the delta into the base input.
	inputName := cv.inputs[k]
	var ingestErr error
	delta.EachChunk(func(c *chunkAlias) bool {
		home, ok := cat.Home(inputName, c.Key())
		if !ok {
			home = (&RoundRobin{}).Place(c.Key(), cv.db.cl.NumNodes())
		}
		if err := cv.db.cl.MergeAt(home, inputName, c, cluster.MergeSpec{Kind: cluster.MergeCells}); err != nil {
			ingestErr = err
			return false
		}
		merged, err := cv.db.cl.GetAt(home, inputName, c.Key())
		if err != nil {
			ingestErr = err
			return false
		}
		if err := cat.SetChunk(inputName, c.Key(), home, merged.SizeBytes(), merged.NumCells()); err != nil {
			ingestErr = err
			return false
		}
		if bb, ok := merged.BoundingBox(); ok {
			if err := cat.SetChunkBBox(inputName, c.Key(), bb); err != nil {
				ingestErr = err
				return false
			}
		}
		return true
	})
	return ingestErr
}

// Content gathers the chain view's current materialized content.
func (cv *ChainView) Content() (*Array, error) {
	return cv.db.Gather(cv.chain.Name)
}
