package maintain

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/arrayview/arrayview/internal/cluster"
)

// Differential implements stage one of the heuristic — Algorithm 1,
// differential view computation: a randomized greedy pass over the chunk
// join pairs that places each join on the node minimizing the running
// max(network, CPU) objective, considering every node as a candidate (not
// just the chunks' current holders).
//
// As a standalone strategy it keeps view and array chunk assignment static
// (like the baseline), isolating the effect of join-plan optimization — the
// paper's "differential" method.
type Differential struct{}

// Name implements Planner.
func (Differential) Name() string { return "differential" }

// Plan implements Planner.
func (Differential) Plan(ctx *Context) (*Plan, error) {
	p := planDifferential(ctx)
	// Static view homes and placement-assigned homes for new array chunks,
	// as in the baseline.
	ix := ctx.index()
	assignStaticViewHomes(ix, p)
	for id, r := range ix.refs {
		// Colliding chunks merge into their base incarnation; only brand-new
		// chunks need a static placement.
		if ix.isDelta[id] && ix.baseHome[id] == absent {
			p.ArrayRehome[r] = ctx.ArrayPlacement.Place(r.Key, ix.nodes)
		}
	}
	// Merging at static homes adds the shipping/merge state Algorithm 1
	// did not see; nothing else to decide.
	return p, nil
}

// planDifferential runs Algorithm 1 and returns the partially-filled plan
// (transfers and join sites); the index keeps who holds what, which stage
// three continues from.
func planDifferential(ctx *Context) *Plan {
	ix := ctx.index()
	p := NewPlan("differential", len(ctx.Units))
	ledger := cluster.NewLedger(ix.nodes, ctx.Model)
	ix.resetHolders()

	// Line 2: iterate the chunk join pairs in random order (or, for the
	// ablation, largest pair first).
	order := make([]int, len(ctx.Units))
	for i := range order {
		order[i] = i
	}
	if ctx.Params.SortedPairOrder {
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(ix.pairBytes[b], ix.pairBytes[a]) })
	} else {
		ctx.Rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	}

	for _, i := range order {
		dest := ix.chooseJoinSite(ctx, ledger, i)
		// Algorithm 1 lines 11-12: apply the chosen site's charges.
		ix.addJoinCharges(ctx, i, dest, clearFloats(ix.extraNtwk), clearFloats(ix.extraCPU))
		ledger.Apply(ix.extraNtwk, ix.extraCPU)
		p.Transfers = ix.ensure(p.Transfers, ix.unitP[i], dest)
		p.Transfers = ix.ensure(p.Transfers, ix.unitQ[i], dest)
		p.JoinSite[i] = dest
	}
	return p
}

// chooseJoinSite evaluates every node as the join site for unit i against
// the running ledger (Algorithm 1 lines 3-10) and returns the minimizer.
// Per Section 4.3, stage one solves the first line of Eq. 1 for z and x
// with the chunk assignment y fixed as S — so a candidate is charged
// co-location transfers, join CPU, and the merge-shipping term
// z_pqk·y_vj·B_pq·Tntwk toward the current (or statically-placed) homes of
// the affected view chunks. (The paper's Figure 7 walk-through shows only
// the first two terms because its example tracks no view chunks.)
func (ix *planIndex) chooseJoinSite(ctx *Context, ledger *cluster.Ledger, i int) int {
	n := ix.nodes
	if ctx.Params.ParallelCandidates && n >= parallelCandidateThreshold {
		return ix.chooseJoinSiteParallel(ctx, ledger, i)
	}
	bestCost, bestLoad := 0.0, 0.0
	dest := -1
	for j := 0; j < n; j++ {
		ix.addJoinCharges(ctx, i, j, clearFloats(ix.extraNtwk), clearFloats(ix.extraCPU))
		optNow := ledger.CostWith(ix.extraNtwk, ix.extraCPU)
		// The max objective is flat: many candidates leave the global max
		// untouched. Ties are broken by the smallest total added load, so
		// transfer- and shipping-free co-located sites win and placements
		// stay stable across correlated batches.
		load := sum(ix.extraNtwk) + sum(ix.extraCPU)
		if dest == -1 || optNow < bestCost || (optNow == bestCost && load < bestLoad) {
			bestCost = optNow
			bestLoad = load
			dest = j
		}
	}
	return dest
}

// parallelCandidateThreshold is the node count from which the candidate
// loop fans out to goroutines — the paper's "parallel processing of the
// inner loop over the nodes" for large clusters.
const parallelCandidateThreshold = 16

// chooseJoinSiteParallel evaluates all candidate nodes concurrently and
// reduces sequentially, preserving exactly the serial selection rule
// (minimum (cost, load), lowest node on full ties). Candidate evaluation
// only reads the index, so the fan-out needs no warm-up; each worker brings
// its own scratch vectors.
func (ix *planIndex) chooseJoinSiteParallel(ctx *Context, ledger *cluster.Ledger, i int) int {
	n := ix.nodes
	costs := make([]float64, n)
	loads := make([]float64, n)
	var wg sync.WaitGroup
	workers := candidateWorkers(n)
	next := int64(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			extraNtwk := make([]float64, n)
			extraCPU := make([]float64, n)
			for {
				j := int(atomic.AddInt64(&next, 1))
				if j >= n {
					return
				}
				ix.addJoinCharges(ctx, i, j, clearFloats(extraNtwk), clearFloats(extraCPU))
				costs[j] = ledger.CostWith(extraNtwk, extraCPU)
				loads[j] = sum(extraNtwk) + sum(extraCPU)
			}
		}()
	}
	wg.Wait()
	dest := 0
	for j := 1; j < n; j++ {
		if costs[j] < costs[dest] || (costs[j] == costs[dest] && loads[j] < loads[dest]) {
			dest = j
		}
	}
	return dest
}

// candidateWorkers bounds the candidate-loop fan-out: never more goroutines
// than candidate nodes (spawning idle workers for small clusters is pure
// overhead) and never more than the scheduler can actually run.
func candidateWorkers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// clearFloats zeroes v and returns it.
func clearFloats(v []float64) []float64 {
	clear(v)
	return v
}

// addJoinCharges accumulates the stage-one cost of joining unit i at node
// j: co-location transfers (Algorithm 1 line 6, extended to charge the
// α-side chunk too — the paper's line 6 shows only q because its p is
// always a coordinator-staged delta, which sends for free; charges
// originate at each chunk's original location S, matching the x_{i,S_i,j}
// variables), join CPU (line 7), and merge shipping toward the y = S view
// homes.
func (ix *planIndex) addJoinCharges(ctx *Context, i, j int, extraNtwk, extraCPU []float64) {
	model := ctx.Model
	for _, id := range [2]int32{ix.unitP[i], ix.unitQ[i]} {
		if !ix.has(id, j) {
			b := float64(ix.size[id]) * model.Tntwk
			if src := ix.from[id]; src != cluster.Coordinator {
				extraNtwk[src] += b
			}
			extraNtwk[j] += b * model.ReceiveFactor
		}
	}
	bpq := float64(ix.pairBytes[i])
	extraCPU[j] += bpq * model.Tcpu
	ship := bpq * ctx.ResultScale
	for _, v := range ix.viewsOf(i) {
		h := ix.viewHint[v]
		if int(h) != j {
			extraNtwk[j] += ship * model.Tntwk
			extraNtwk[h] += ship * model.Tntwk * model.ReceiveFactor
		}
		// Merge work lands at the y = S home; it is the same for every
		// candidate j but keeps the running ledger aligned with the full
		// objective.
		extraCPU[h] += bpq * model.Tcpu
	}
}
