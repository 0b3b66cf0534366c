package maintain

import (
	"fmt"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/view"
)

// Transfer is one x_{ikj} assignment: chunk Ref shipped from node From to
// node To before joins run.
type Transfer struct {
	Ref  view.ChunkRef
	From int
	To   int
}

// Plan is the solved maintenance plan for one batch: the variable
// assignments of Table 1 in executable form.
type Plan struct {
	// Strategy names the planner that produced the plan.
	Strategy string
	// Transfers are the chunk replications (x variables), in order.
	Transfers []Transfer
	// JoinSite[i] is the node computing Units[i] (z variables).
	JoinSite []int
	// ViewHome assigns every affected view chunk the node where its
	// differential results merge and where the chunk lives afterwards
	// (y variables for view chunks).
	ViewHome map[array.ChunkKey]int
	// ArrayRehome assigns batch-relevant array chunks (base refs for
	// existing chunks, delta refs for new ones) their post-batch home
	// (y variables for array chunks). Entries are optional; chunks without
	// one keep their current home (or fall back to placement for new
	// chunks).
	ArrayRehome map[view.ChunkRef]int
}

// NewPlan returns an empty plan for n units.
func NewPlan(strategy string, n int) *Plan {
	return &Plan{
		Strategy:    strategy,
		JoinSite:    make([]int, n),
		ViewHome:    make(map[array.ChunkKey]int),
		ArrayRehome: make(map[view.ChunkRef]int),
	}
}

// Validate checks the plan's structural constraints against the context:
// C3/C5 (every unit has a join site in range), C2 (both chunks of a unit
// are resident at the join site after the plan's transfers), and C1 (every
// affected view chunk has exactly one home).
func (p *Plan) Validate(ctx *Context) error {
	ix := ctx.index()
	n := ix.nodes
	if len(p.JoinSite) != len(ctx.Units) {
		return fmt.Errorf("maintain: plan covers %d units, want %d", len(p.JoinSite), len(ctx.Units))
	}
	// Residency: home plus planned transfers, one node bitset per chunk
	// (private, so validation never disturbs a solve's holder state).
	held := newNodeSets(len(ix.refs), n)
	holds := func(id int32, node int) bool {
		return node == int(ix.origin[id]) || (node >= 0 && held.has(id, node))
	}
	for _, t := range p.Transfers {
		if t.To < 0 || t.To >= n {
			return fmt.Errorf("maintain: transfer of %v to invalid node %d", t.Ref, t.To)
		}
		id, inBatch := ix.refID[t.Ref]
		if !inBatch {
			// No unit needs the chunk; it can only ship from its home.
			if t.From != ctx.HomeOf(t.Ref) {
				return fmt.Errorf("maintain: transfer of %v from node %d which does not hold it", t.Ref, t.From)
			}
			continue
		}
		if t.From >= n || !holds(id, t.From) {
			return fmt.Errorf("maintain: transfer of %v from node %d which does not hold it", t.Ref, t.From)
		}
		held.add(id, t.To)
	}
	for i, u := range ctx.Units {
		k := p.JoinSite[i]
		if k < 0 || k >= n {
			return fmt.Errorf("maintain: unit %d joined at invalid node %d (C3)", i, k)
		}
		if !holds(ix.unitP[i], k) {
			return fmt.Errorf("maintain: unit %d chunk %v not resident at join node %d (C2)", i, u.P, k)
		}
		if !holds(ix.unitQ[i], k) {
			return fmt.Errorf("maintain: unit %d chunk %v not resident at join node %d (C2)", i, u.Q, k)
		}
	}
	for _, v := range ix.views {
		home, ok := p.ViewHome[v]
		if !ok {
			return fmt.Errorf("maintain: view chunk %v has no home (C1)", v)
		}
		if home < 0 || home >= n {
			return fmt.Errorf("maintain: view chunk %v homed at invalid node %d (C1)", v, home)
		}
	}
	for r, j := range p.ArrayRehome {
		if j < 0 || j >= n {
			return fmt.Errorf("maintain: chunk %v rehomed to invalid node %d", r, j)
		}
	}
	return nil
}

// Charge computes the deterministic cost ledger of executing the plan:
//
//   - each transfer charges the sender B_i·Tntwk (coordinator sends free)
//     — the x_{ikj}·B_i·Tntwk term;
//   - each unit charges its join site B_pq·Tcpu — the z_pqk·B_pq·Tcpu term;
//   - each triple (p,q,v) whose join site differs from v's home charges the
//     join site B_pq·Tntwk — the z_pqk·y_vj·B_pq·Tntwk merging term — and
//     every triple charges v's home B_pq·Tcpu of merge work (Eq. 1 omits
//     this; Algorithm 2 line 9 prices it, and the executor really performs
//     it, so the objective includes it consistently).
//
// Reassignment itself is free, as in the paper: it piggybacks on the
// replication view maintenance performs anyway ("repartitioning does not
// incur additional time"). The same function prices every strategy, so
// comparisons are apples-to-apples.
func (p *Plan) Charge(ctx *Context) *cluster.Ledger {
	ix := ctx.index()
	l := cluster.NewLedger(ix.nodes, ctx.Model)
	for _, t := range p.Transfers {
		l.ChargeTransferTo(t.From, t.To, ix.sizeOf(ctx, t.Ref))
	}
	// One ViewHome lookup per view chunk, not per triple.
	home := make([]int, len(ix.views))
	for id, v := range ix.views {
		home[id] = p.ViewHome[v]
	}
	for i, k := range p.JoinSite {
		bpq := ix.pairBytes[i]
		l.ChargeJoin(k, bpq)
		ship := int64(float64(bpq) * ctx.ResultScale)
		for _, v := range ix.viewsOf(i) {
			j := home[v]
			if j != k {
				l.ChargeTransferTo(k, j, ship)
			}
			l.ChargeJoin(j, bpq)
		}
	}
	return l
}

// Cost is shorthand for Charge(ctx).Cost().
func (p *Plan) Cost(ctx *Context) float64 { return p.Charge(ctx).Cost() }

// NumTransfers returns how many distinct chunk shipments the plan performs.
func (p *Plan) NumTransfers() int { return len(p.Transfers) }

// String summarizes the plan.
func (p *Plan) String() string {
	return fmt.Sprintf("plan[%s]: %d transfers, %d joins, %d view homes, %d rehomes",
		p.Strategy, len(p.Transfers), len(p.JoinSite), len(p.ViewHome), len(p.ArrayRehome))
}
