package maintain

import (
	"fmt"
	"math"
	"sort"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/view"
)

// maxExhaustiveStates bounds the search space of the reference solver.
const maxExhaustiveStates = 5_000_000

// OptimalPlan exhaustively enumerates join-site and view-home assignments
// and returns a plan with the minimum Eq. 1 single-batch objective. It
// plays the role CPLEX plays in the paper — a ground-truth optimum — but
// only for tiny instances (the problem is NP-hard); larger inputs return an
// error. Array rehoming does not affect the single-batch objective, so new
// delta chunks are assigned to their join sites where possible.
func OptimalPlan(ctx *Context) (*Plan, error) {
	nUnits := len(ctx.Units)
	n := ctx.Cluster.NumNodes()
	viewKeys := affectedViewKeys(ctx)
	states := math.Pow(float64(n), float64(nUnits+len(viewKeys)))
	if states > maxExhaustiveStates {
		return nil, fmt.Errorf("maintain: instance too large for exhaustive search (%d units, %d views, %d nodes)",
			nUnits, len(viewKeys), n)
	}

	joinSites := make([]int, nUnits)
	viewHomes := make([]int, len(viewKeys))
	best := math.Inf(1)
	var bestPlan *Plan

	var rec func(depth int)
	rec = func(depth int) {
		if depth == nUnits+len(viewKeys) {
			p := buildCandidate(ctx, joinSites, viewHomes, viewKeys)
			if cost := p.Cost(ctx); cost < best {
				best = cost
				bestPlan = p
			}
			return
		}
		for j := 0; j < n; j++ {
			if depth < nUnits {
				joinSites[depth] = j
			} else {
				viewHomes[depth-nUnits] = j
			}
			rec(depth + 1)
		}
	}
	rec(0)
	if bestPlan == nil {
		return nil, fmt.Errorf("maintain: no feasible plan found")
	}
	bestPlan.Strategy = "optimal"
	// Give new delta chunks a home so the plan is executable.
	for _, r := range ctx.DeltaRefs() {
		if ctx.IsDelta(r) {
			if _, ok := bestPlan.ArrayRehome[r]; !ok {
				bestPlan.ArrayRehome[r] = ctx.ArrayPlacement.Place(r.Key, n)
			}
		}
	}
	return bestPlan, nil
}

// buildCandidate assembles an executable plan (with the implied minimal
// transfer set) from raw join-site and view-home assignments.
func buildCandidate(ctx *Context, joinSites, viewHomes []int, viewKeys []array.ChunkKey) *Plan {
	p := NewPlan("candidate", len(ctx.Units))
	copy(p.JoinSite, joinSites)
	for i, v := range viewKeys {
		p.ViewHome[v] = viewHomes[i]
	}
	ix := ctx.index()
	ix.resetHolders()
	for i, site := range joinSites {
		p.Transfers = ix.ensure(p.Transfers, ix.unitP[i], site)
		p.Transfers = ix.ensure(p.Transfers, ix.unitQ[i], site)
	}
	return p
}

// affectedViewKeys returns the distinct view chunks of the batch, sorted.
func affectedViewKeys(ctx *Context) []array.ChunkKey {
	seen := make(map[array.ChunkKey]bool)
	var out []array.ChunkKey
	for _, u := range ctx.Units {
		for _, v := range u.Views {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Strategies returns the built-in planners keyed by name, for CLIs and
// benches.
func Strategies() map[string]Planner {
	return map[string]Planner{
		"baseline":     Baseline{},
		"differential": Differential{},
		"reassign":     Reassign{},
	}
}

// StrategyNames returns the canonical evaluation order of the built-in
// strategies.
func StrategyNames() []string { return []string{"baseline", "differential", "reassign"} }

var _ = view.ChunkRef{} // keep the import stable across refactors
