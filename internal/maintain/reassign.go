package maintain

import (
	"cmp"
	"slices"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/view"
)

// Reassign is the complete three-stage heuristic: Algorithm 1 (join plan),
// Algorithm 2 (view chunk reassignment given the join plan), and Algorithm
// 3 (array chunk reassignment piggybacking on the batch's replication,
// scored over the history window).
type Reassign struct{}

// Name implements Planner.
func (Reassign) Name() string { return "reassign" }

// Plan implements Planner.
func (Reassign) Plan(ctx *Context) (*Plan, error) {
	p := planDifferential(ctx)
	p.Strategy = "reassign"
	assignViewHomes(ctx, p)
	assignArrayHomes(ctx, p)
	return p, nil
}

// ledgerFromXZ prices only the transfer (x) and join (z) variables of a
// plan.
func ledgerFromXZ(ctx *Context, p *Plan) *cluster.Ledger {
	ix := ctx.index()
	l := cluster.NewLedger(ix.nodes, ctx.Model)
	for _, t := range p.Transfers {
		l.ChargeTransferTo(t.From, t.To, ix.sizeOf(ctx, t.Ref))
	}
	for i, k := range p.JoinSite {
		l.ChargeJoin(k, ix.pairBytes[i])
	}
	return l
}

// assignViewHomes is Algorithm 2: for every affected view chunk v, pick the
// merge node minimizing the objective given the join sites, charging
// differential shipping from each join site k≠j' (line 8) and merge CPU at
// j' (line 9).
//
// The ledger is initialized from the x and z variables (line 1) plus the
// shipping of the complete y = S assignment stage one optimized against;
// each view chunk is then relocated in random order by removing its
// incumbent charges and re-placing it where the objective is minimized,
// with the incumbent winning ties. Evaluating moves against the complete
// assignment (rather than constructing from an empty one) keeps the greedy
// from undoing stage one's coordination and makes placements stable across
// repeated batches — which is what lets reassignment converge.
func assignViewHomes(ctx *Context, p *Plan) {
	ix := ctx.index()
	model := ctx.Model

	// Group the contributions reaching each view chunk, in unit order, over
	// one arena: view v owns contribs[start[v]:start[v+1]].
	start := make([]int32, len(ix.views)+1)
	for _, v := range ix.unitViews {
		start[v+1]++
	}
	for v := range ix.views {
		start[v+1] += start[v]
	}
	contribs := make([]viewContrib, len(ix.unitViews))
	fill := slices.Clone(start[:len(ix.views)])
	for i, site := range p.JoinSite {
		c := viewContrib{site: site, bytes: ix.pairBytes[i], ship: int64(float64(ix.pairBytes[i]) * ctx.ResultScale)}
		for _, v := range ix.viewsOf(i) {
			contribs[fill[v]] = c
			fill[v]++
		}
	}
	contribsOf := func(v int32) []viewContrib { return contribs[start[v]:start[v+1]] }

	// Line 1: ledger from x, z, plus the complete merge charges of the
	// y = S assignment stage one optimized against, in view-key order.
	order := make([]int32, len(ix.views))
	for v := range order {
		order[v] = int32(v)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(ix.views[a], ix.views[b]) })
	ledger := ledgerFromXZ(ctx, p)
	for _, v := range order {
		ix.applyViewCharges(ledger, model, contribsOf(v), int(ix.viewHint[v]), +1)
	}

	// Line 2: iterate the view chunks in random order.
	ctx.Rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	for _, v := range order {
		ix.applyViewCharges(ledger, model, contribsOf(v), int(ix.viewHint[v]), -1)
		dest := ix.chooseViewHome(ledger, model, contribsOf(v), int(ix.viewHint[v]))
		ix.applyViewCharges(ledger, model, contribsOf(v), dest, +1)
		p.ViewHome[ix.views[v]] = dest
	}
}

// viewContrib is one differential result that must reach a view chunk: the
// node that computed it, the B_pq of its source pair, and the shipped
// result volume (B_pq scaled by the context's ResultScale).
type viewContrib struct {
	site  int
	bytes int64
	ship  int64
}

// chooseViewHome evaluates every node as the merge home of one view chunk
// (Algorithm 2 lines 4-13): shipping each contribution from its join site
// when they differ (line 8) and merge CPU at the candidate (line 9).
// Relocating the chunk itself is free — reassignment piggybacks on the
// maintenance communication. incumbent (>= 0) is evaluated first: another
// node wins only by strictly beating it on (objective, added load).
func (ix *planIndex) chooseViewHome(ledger *cluster.Ledger, model cluster.CostModel, contribs []viewContrib, incumbent int) int {
	n := ix.nodes
	bestCost, bestLoad := 0.0, 0.0
	dest := -1
	for c := -1; c < n; c++ {
		j := c
		if c == -1 {
			j = incumbent
		}
		if j < 0 || j >= n || (c >= 0 && j == incumbent) {
			continue
		}
		addViewCharges(clearFloats(ix.extraNtwk), clearFloats(ix.extraCPU), model, contribs, j)
		optNow := ledger.CostWith(ix.extraNtwk, ix.extraCPU)
		// Ties on the flat max objective are broken by the smallest added
		// load, keeping view chunks with their differential producers (see
		// chooseJoinSite).
		load := sum(ix.extraNtwk) + sum(ix.extraCPU)
		if dest == -1 || optNow < bestCost || (optNow == bestCost && load < bestLoad) {
			bestCost = optNow
			bestLoad = load
			dest = j
		}
	}
	return dest
}

// applyViewCharges adds (sign=+1) or removes (sign=-1) one view chunk's
// merge charges at home j from the ledger.
func (ix *planIndex) applyViewCharges(ledger *cluster.Ledger, model cluster.CostModel, contribs []viewContrib, j int, sign float64) {
	addViewCharges(clearFloats(ix.extraNtwk), clearFloats(ix.extraCPU), model, contribs, j)
	if sign != 1 {
		for k := range ix.extraNtwk {
			ix.extraNtwk[k] *= sign
			ix.extraCPU[k] *= sign
		}
	}
	ledger.Apply(ix.extraNtwk, ix.extraCPU)
}

func addViewCharges(extraNtwk, extraCPU []float64, model cluster.CostModel, contribs []viewContrib, j int) {
	for _, c := range contribs {
		if c.site != j {
			extraNtwk[c.site] += float64(c.ship) * model.Tntwk
			extraNtwk[j] += float64(c.ship) * model.Tntwk * model.ReceiveFactor
		}
		extraCPU[j] += float64(c.bytes) * model.Tcpu
	}
}

// assignArrayHomes is Algorithm 3: score every (array chunk, view chunk)
// co-occurrence across the history window (current batch included, older
// batches exponentially decayed), then greedily co-locate chunks with their
// highest-scoring view chunk — but only onto nodes that already received a
// replica this batch, and only within a per-node CPU quota.
func assignArrayHomes(ctx *Context, p *Plan) {
	ix := ctx.index()
	n := ix.nodes
	pairs, totalPairBytes := scoredPairs(ctx)
	if len(pairs) == 0 {
		fallbackDeltaHomes(ctx, p, nil)
		return
	}

	// cpu_thr: the average weighted join bytes per node, scaled by the
	// ablation factor.
	quota := make([]float64, n)
	per := ctx.Params.CPUThresholdFactor * totalPairBytes / float64(n)
	for j := range quota {
		quota[j] = per
	}

	assigned, bestView := greedyCoLocate(pairs, quota,
		func(r view.ChunkRef) int64 { return ix.sizeOf(ctx, batchRef(ctx, r)) },
		func(v array.ChunkKey) (int, bool) { return viewHomeFor(ctx, p, v) },
		func(r view.ChunkRef, j int) bool { return replicaAt(ctx, r, j) },
	)
	for ref, j := range assigned {
		// Chunks whose base incarnation exists are rehomed under their base
		// identity (the staged delta merges into them wherever they land);
		// brand-new chunks are keyed by their delta ref.
		key := batchRef(ctx, ref)
		if _, ok := ix.homeOf(ctx, ref); ok {
			key = ref
		}
		p.ArrayRehome[key] = j
	}
	fallbackDeltaHomes(ctx, p, bestView)
}

// greedyCoLocate implements Algorithm 3 lines 5-13 as a pure function over
// pre-scored (array chunk, view chunk) pairs: pairs are visited in
// descending score (ties broken deterministically); each not-yet-assigned
// chunk is co-located with its view chunk's node if a replica already
// exists there (line 8) and the node's quota admits it (lines 8-9). It
// returns the assignments and each chunk's highest-scoring view chunk (used
// by the paper's tight-quota fallback for delta chunks).
func greedyCoLocate(pairs []scoredPair, quota []float64,
	size func(view.ChunkRef) int64,
	viewHome func(array.ChunkKey) (int, bool),
	hasReplica func(view.ChunkRef, int) bool,
) (map[view.ChunkRef]int, map[view.ChunkRef]array.ChunkKey) {
	// A total order over the unique (ref, viewKey) pairs, so an unstable
	// sort yields the one possible result.
	slices.SortFunc(pairs, func(a, b scoredPair) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		if c := a.ref.Compare(b.ref); c != 0 {
			return c
		}
		return cmp.Compare(a.viewKey, b.viewKey)
	})
	assigned := make(map[view.ChunkRef]int)
	bestView := make(map[view.ChunkRef]array.ChunkKey)
	for _, pr := range pairs {
		if _, ok := bestView[pr.ref]; !ok {
			bestView[pr.ref] = pr.viewKey
		}
		if _, done := assigned[pr.ref]; done {
			continue
		}
		j, ok := viewHome(pr.viewKey)
		if !ok {
			continue
		}
		ba := float64(size(pr.ref))
		if !hasReplica(pr.ref, j) {
			continue
		}
		if quota[j] < ba {
			continue
		}
		quota[j] -= ba
		assigned[pr.ref] = j
	}
	return assigned, bestView
}

// scoredPair is one (array chunk, view chunk) co-occurrence with its
// accumulated score. Refs are normalized to base-array namespaces so
// history matches across batches.
type scoredPair struct {
	ref     view.ChunkRef
	viewKey array.ChunkKey
	score   float64
}

// scoredPairs builds the Algorithm 3 scores: the current batch carries
// weight λ and the l-th previous batch (1−λ)·Decay^l — the λ split of
// Eq. 1 combined with the exponential decay of the W_l weights. It also
// returns the total weighted pair bytes used to size the CPU quota.
func scoredPairs(ctx *Context) ([]scoredPair, float64) {
	scores := make(map[view.ChunkRef]map[array.ChunkKey]float64)
	add := func(ref view.ChunkRef, v array.ChunkKey, w float64, bytes int64) {
		m, ok := scores[ref]
		if !ok {
			m = make(map[array.ChunkKey]float64)
			scores[ref] = m
		}
		m[v] += w * float64(bytes)
	}
	ix := ctx.index()
	lambda := ctx.Params.Lambda
	totalPairBytes := 0.0
	for i, u := range ctx.Units {
		bp, bq := ix.size[ix.unitP[i]], ix.size[ix.unitQ[i]]
		for _, v := range u.Views {
			add(normalizeRef(ctx, u.P), v, lambda, bp)
			add(normalizeRef(ctx, u.Q), v, lambda, bq)
			totalPairBytes += lambda * float64(bp+bq)
		}
	}
	if ctx.History != nil {
		w := (1 - lambda) * ctx.Params.Decay
		for _, b := range ctx.History.recent() {
			for _, pr := range b.pairs {
				add(pr.Ref, pr.View, w, pr.Bytes)
			}
			totalPairBytes += w * float64(b.pairBytes)
			w *= ctx.Params.Decay
		}
	}
	var out []scoredPair
	for ref, m := range scores {
		for v, s := range m {
			out = append(out, scoredPair{ref: ref, viewKey: v, score: s})
		}
	}
	return out, totalPairBytes
}

// normalizeRef maps delta-namespace refs to their post-merge base identity.
func normalizeRef(ctx *Context, r view.ChunkRef) view.ChunkRef {
	return view.ChunkRef{Array: ctx.BaseNameFor(r.Array), Key: r.Key}
}

// batchRef maps a normalized ref back to the namespace the executor acts
// on this batch: the delta namespace when the chunk is part of the staged
// batch, otherwise the base namespace.
func batchRef(ctx *Context, r view.ChunkRef) view.ChunkRef {
	ix := ctx.index()
	if r.Array == ctx.BaseAlpha {
		d := view.ChunkRef{Array: ctx.DeltaAlpha, Key: r.Key}
		if _, ok := ix.homeOf(ctx, d); ok {
			return d
		}
	}
	if r.Array == ctx.BaseBeta {
		d := view.ChunkRef{Array: ctx.DeltaBeta, Key: r.Key}
		if _, ok := ix.homeOf(ctx, d); ok {
			return d
		}
	}
	return r
}

// replicaAt reports whether the (normalized) chunk's content will be
// resident at node j after the plan's transfers, so rehoming there is
// free. For chunks that already exist in the base array, only the base
// copy counts — the staged delta merges into it wherever it ends up. For
// brand-new chunks (staged at the coordinator, no base incarnation), the
// first placement is free, though nodes the join plan shipped them to are
// preferred so storage matches computation. Chunks outside the batch (named
// only by the history window) are held at their catalog home and nowhere
// else.
func replicaAt(ctx *Context, normalized view.ChunkRef, j int) bool {
	ix := ctx.index()
	if home, ok := ix.homeOf(ctx, normalized); ok {
		if home == j {
			return true
		}
		id, inBatch := ix.refID[normalized]
		return inBatch && ix.has(id, j)
	}
	r := batchRef(ctx, normalized)
	home, ok := ix.homeOf(ctx, r)
	if !ok {
		home = cluster.Coordinator
	}
	id, inBatch := ix.refID[r]
	if ctx.IsDelta(r) && home == cluster.Coordinator {
		// Never shipped (or not joined at all): any node is free.
		return !inBatch || ix.held.empty(id) || ix.has(id, j)
	}
	return home == j || (inBatch && ix.has(id, j))
}

// viewHomeFor resolves a view chunk's destination: the current plan's
// assignment if the chunk is affected this batch, otherwise its catalog
// home (for pairs surfaced purely by history).
func viewHomeFor(ctx *Context, p *Plan, v array.ChunkKey) (int, bool) {
	if j, ok := p.ViewHome[v]; ok {
		return j, true
	}
	return ctx.ViewHomeOf(v)
}

// fallbackDeltaHomes gives every still-unassigned new delta chunk a home:
// the node of its highest-scoring view chunk when known (the paper's tight-
// quota fallback), otherwise static placement.
func fallbackDeltaHomes(ctx *Context, p *Plan, bestView map[view.ChunkRef]array.ChunkKey) {
	ix := ctx.index()
	n := ix.nodes
	for id, r := range ix.refs {
		if !ix.isDelta[id] {
			continue
		}
		if _, ok := p.ArrayRehome[r]; ok {
			continue
		}
		if v, ok := bestView[normalizeRef(ctx, r)]; ok {
			if j, ok := viewHomeFor(ctx, p, v); ok {
				p.ArrayRehome[r] = j
				continue
			}
		}
		p.ArrayRehome[r] = ctx.ArrayPlacement.Place(r.Key, n)
	}
}
