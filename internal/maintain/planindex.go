package maintain

import (
	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/view"
)

// absent marks a chunk the catalog does not hold. cluster.Coordinator (-1)
// cannot stand in for it: staged deltas really live there.
const absent = -2

// planIndex is the dense form of one batch's planning input: every chunk
// and view chunk ctx.Units names, interned to an int32, with the catalog
// facts the planners price against held in columns. It is built once per
// Context, on first planner use, under one catalog read lock per array —
// so the solve costs what the batch's footprint costs instead of a catalog
// round trip per (unit × candidate node).
//
// The columns are a planning-time snapshot: execution and commit move
// chunks and drop the delta namespace, the index keeps what the plan was
// solved against (which is what History.Record must remember).
//
// from, held and the two scratch vectors are the state of the solve in
// progress; everything else is read-only after construction, which is what
// lets the parallel candidate loop fan out over it.
type planIndex struct {
	nodes int

	// Array-side chunks, in first-seen order over the units (P before Q).
	refs     []view.ChunkRef
	refID    map[view.ChunkRef]int32
	size     []int64 // B_q
	origin   []int32 // S_q; Coordinator for staged deltas and unknown chunks
	known    []bool  // the catalog holds the chunk
	baseHome []int32 // home of the chunk's base incarnation, or absent
	isDelta  []bool

	// View chunks, in first-seen order.
	views    []array.ChunkKey
	viewID   map[array.ChunkKey]int32
	viewHint []int32 // y = S: catalog home, static placement for new chunks

	// Units: unit i joins refs unitP[i] and unitQ[i] and feeds the view
	// chunks unitViews[viewStart[i]:viewStart[i+1]].
	unitP, unitQ []int32
	pairBytes    []int64 // B_pq
	viewStart    []int32
	unitViews    []int32

	// Solve state: where each chunk ships from, who holds it so far, and
	// the candidate-evaluation scratch.
	from                []int32
	held                nodeSets
	extraNtwk, extraCPU []float64
}

// nodeSets is one set of worker nodes per chunk id, as a flat bitset.
type nodeSets struct {
	words int // per chunk
	bits  []uint64
}

func newNodeSets(chunks, nodes int) nodeSets {
	words := (nodes + 63) / 64
	return nodeSets{words: words, bits: make([]uint64, chunks*words)}
}

func (s nodeSets) add(id int32, node int) {
	s.bits[int(id)*s.words+node>>6] |= 1 << (node & 63)
}

func (s nodeSets) has(id int32, node int) bool {
	return s.bits[int(id)*s.words+node>>6]&(1<<(node&63)) != 0
}

func (s nodeSets) empty(id int32) bool {
	for _, w := range s.bits[int(id)*s.words : (int(id)+1)*s.words] {
		if w != 0 {
			return false
		}
	}
	return true
}

// index returns the context's planning index, building it on first use
// (placements are assigned after NewContext, so it cannot be built there).
func (c *Context) index() *planIndex {
	if c.ix == nil {
		c.ix = buildPlanIndex(c)
	}
	return c.ix
}

func buildPlanIndex(c *Context) *planIndex {
	n, nu := c.Cluster.NumNodes(), len(c.Units)
	ix := &planIndex{
		nodes:     n,
		refID:     make(map[view.ChunkRef]int32),
		viewID:    make(map[array.ChunkKey]int32),
		unitP:     make([]int32, nu),
		unitQ:     make([]int32, nu),
		pairBytes: make([]int64, nu),
		viewStart: make([]int32, nu+1),
		extraNtwk: make([]float64, n),
		extraCPU:  make([]float64, n),
	}
	intern := func(r view.ChunkRef) int32 {
		id, ok := ix.refID[r]
		if !ok {
			id = int32(len(ix.refs))
			ix.refID[r] = id
			ix.refs = append(ix.refs, r)
		}
		return id
	}
	for i, u := range c.Units {
		// Generated units arrive sorted by P, so runs share their α chunk.
		if i > 0 && u.P == c.Units[i-1].P {
			ix.unitP[i] = ix.unitP[i-1]
		} else {
			ix.unitP[i] = intern(u.P)
		}
		ix.unitQ[i] = intern(u.Q)
		for _, v := range u.Views {
			id, ok := ix.viewID[v]
			if !ok {
				id = int32(len(ix.views))
				ix.viewID[v] = id
				ix.views = append(ix.views, v)
			}
			ix.unitViews = append(ix.unitViews, id)
		}
		ix.viewStart[i+1] = int32(len(ix.unitViews))
	}

	nr := len(ix.refs)
	ix.size = make([]int64, nr)
	ix.origin = make([]int32, nr)
	ix.known = make([]bool, nr)
	ix.baseHome = make([]int32, nr)
	ix.isDelta = make([]bool, nr)
	ix.from = make([]int32, nr)
	ix.held = newNodeSets(nr, n)
	var names []string
	addName := func(name string) {
		for _, have := range names {
			if have == name {
				return
			}
		}
		names = append(names, name)
	}
	for id, r := range ix.refs {
		ix.origin[id], ix.baseHome[id] = cluster.Coordinator, absent
		ix.isDelta[id] = c.IsDelta(r)
		addName(r.Array)
		addName(c.BaseNameFor(r.Array))
	}
	cat := c.Cluster.Catalog()
	for _, name := range names {
		cat.ReadArray(name, func(m *cluster.ArrayMeta) {
			for id, r := range ix.refs {
				if r.Array == name {
					if home, ok := m.Home[r.Key]; ok {
						ix.origin[id], ix.known[id], ix.size[id] = int32(home), true, m.Size[r.Key]
					}
				}
				if c.BaseNameFor(r.Array) == name {
					if home, ok := m.Home[r.Key]; ok {
						ix.baseHome[id] = int32(home)
					}
				}
			}
		})
	}
	for i := range c.Units {
		ix.pairBytes[i] = ix.size[ix.unitP[i]] + ix.size[ix.unitQ[i]]
	}

	ix.viewHint = make([]int32, len(ix.views))
	for id := range ix.viewHint {
		ix.viewHint[id] = absent
	}
	cat.ReadArray(c.ViewName, func(m *cluster.ArrayMeta) {
		for id, v := range ix.views {
			if home, ok := m.Home[v]; ok {
				ix.viewHint[id] = int32(home)
			}
		}
	})
	for id, v := range ix.views {
		if ix.viewHint[id] == absent {
			ix.viewHint[id] = int32(c.ViewPlacement.Place(v, n))
		}
	}
	return ix
}

// viewsOf returns the view-chunk ids unit i feeds.
func (ix *planIndex) viewsOf(i int) []int32 {
	return ix.unitViews[ix.viewStart[i]:ix.viewStart[i+1]]
}

// homeOf is Catalog.Home as of planning time: the index's columns for the
// batch's chunks, the live catalog for chunks only the history window names.
func (ix *planIndex) homeOf(c *Context, r view.ChunkRef) (int, bool) {
	if id, ok := ix.refID[r]; ok {
		return int(ix.origin[id]), ix.known[id]
	}
	return c.Cluster.Catalog().Home(r.Array, r.Key)
}

// sizeOf is Context.SizeOf as of planning time (see homeOf).
func (ix *planIndex) sizeOf(c *Context, r view.ChunkRef) int64 {
	if id, ok := ix.refID[r]; ok {
		return ix.size[id]
	}
	return c.SizeOf(r)
}

// resetHolders starts a solve: every chunk is held at its origin only.
func (ix *planIndex) resetHolders() {
	copy(ix.from, ix.origin)
	clear(ix.held.bits)
	for id, node := range ix.origin {
		if node >= 0 {
			ix.held.add(int32(id), int(node))
		}
	}
}

// has reports whether node holds the chunk so far in this solve.
func (ix *planIndex) has(id int32, node int) bool { return ix.held.has(id, node) }

// ensure appends the transfer (if any) that makes the chunk resident at
// node, shipping from its origin as in the x_{i,S_i,j} variables, and
// records the new replica — each required transfer is emitted exactly once.
func (ix *planIndex) ensure(ts []Transfer, id int32, node int) []Transfer {
	if node < 0 { // no such node: emit it for Validate to reject
		if int32(node) == ix.from[id] {
			return ts
		}
	} else if ix.has(id, node) {
		return ts
	} else {
		ix.held.add(id, node)
	}
	return append(ts, Transfer{Ref: ix.refs[id], From: int(ix.from[id]), To: node})
}
