package maintain

import "github.com/arrayview/arrayview/internal/cluster"

// Baseline is the parallel relational view maintenance procedure of Luo et
// al. adapted to arrays and batch updates (Section 4.1):
//
//  1. new (delta) chunks are first assigned to nodes by the array's static
//     chunking strategy, and new view chunks by the view's strategy;
//  2. each chunk-pair join runs at the node storing the base-array chunk,
//     so delta chunks are shipped to every joining base chunk's node;
//  3. differential results are shipped to the nodes statically storing the
//     corresponding view chunks.
//
// Its two failure modes — excessive communication and load imbalance — are
// what the optimization addresses.
type Baseline struct{}

// Name implements Planner.
func (Baseline) Name() string { return "baseline" }

// Plan implements Planner.
func (Baseline) Plan(ctx *Context) (*Plan, error) {
	ix := ctx.index()
	p := NewPlan("baseline", len(ctx.Units))
	ix.resetHolders()

	// Step 1: static placement of the new chunks. A delta chunk whose key
	// already exists in the base array goes to that chunk's node — regular
	// chunking is deterministic by coordinate — and needs no rehome entry.
	// From there on the chunk ships from (and is held at) its placed node.
	for id, r := range ix.refs {
		if !ix.isDelta[id] {
			continue
		}
		node := int(ix.baseHome[id])
		if node == absent {
			node = ctx.ArrayPlacement.Place(r.Key, ix.nodes)
			p.ArrayRehome[r] = node
		}
		ix.from[id] = int32(node)
		ix.held.add(int32(id), node)
		p.Transfers = append(p.Transfers, Transfer{Ref: r, From: cluster.Coordinator, To: node})
	}

	// Step 2: join each pair at the node holding the base (β-side for
	// delta×base pairs) chunk; ship the delta there.
	for i := range ctx.Units {
		pi, qi := ix.unitP[i], ix.unitQ[i]
		// delta×delta joins at the β-side's assigned node, as in the
		// paper's 7⋈8-on-Y example.
		site := int(ix.from[qi])
		if !ix.isDelta[pi] && ix.isDelta[qi] {
			site = int(ix.from[pi])
		}
		p.JoinSite[i] = site
		p.Transfers = ix.ensure(p.Transfers, pi, site)
		p.Transfers = ix.ensure(p.Transfers, qi, site)
	}

	// Step 3: view chunks stay at (or are statically assigned) their homes.
	assignStaticViewHomes(ix, p)
	return p, nil
}

// assignStaticViewHomes fills ViewHome with current homes for existing view
// chunks and placement-assigned homes for new ones: the y = S hints.
func assignStaticViewHomes(ix *planIndex, p *Plan) {
	for id, v := range ix.views {
		p.ViewHome[v] = int(ix.viewHint[id])
	}
}
