package stream

import (
	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/view"
)

// router is the chunk-router stage's placement policy: it amortizes the
// optimizer across micro-batches by caching the last full solve's join-site
// and view-home assignments and reusing them until the batch's chunk-touch
// distribution drifts away from the one the solve saw. Trickle workloads
// revisit the same sky region for many batches, so the solve cost — the
// dominant fixed per-batch overhead of the batch-at-a-time path — is paid
// once per drift episode instead of once per batch.
//
// The router is used from the single plan-stage goroutine; only its
// counters are read from elsewhere.
type router struct {
	planner maintain.Planner
	// heavy, when non-nil, reports the adaptive classifier's verdict for a
	// chunk key; heavy-chunk touches count heavyTouchWeight× in the drift
	// coverage, so the router re-solves promptly when the hot footprint
	// moves but tolerates churn in the cold scatter tail.
	heavy func(array.ChunkKey) bool

	haveSolve bool
	joinSite  map[maintain.PairKey]int
	viewHome  map[array.ChunkKey]int
	// touch is the base-chunk-touch distribution (key → weighted unit
	// count) the cached solution was solved for.
	touch map[array.ChunkKey]int

	solves, reuses obs.Counter
}

// heavyTouchWeight is how many cold-chunk touches one hot-chunk touch is
// worth in the drift signal.
const heavyTouchWeight = 4

// RouterStats reports how often the router solved versus reused.
type RouterStats struct {
	Solves int64 `json:"solves"`
	Reuses int64 `json:"reuses"`
}

func newRouter(planner maintain.Planner) *router {
	return &router{
		planner:  planner,
		joinSite: make(map[maintain.PairKey]int),
		viewHome: make(map[array.ChunkKey]int),
	}
}

// touchesOf counts how many units read each base chunk key — the drift
// signal. Delta keys are included too (the batch's own footprint matters as
// much as the base's).
func touchesOf(units []view.Unit) map[array.ChunkKey]int {
	m := make(map[array.ChunkKey]int)
	for _, u := range units {
		m[u.P.Key]++
		m[u.Q.Key]++
	}
	return m
}

// coverage returns the fraction of the current batch's chunk touches that
// the reference distribution also touches, weighted by touch count:
// Σ_k min(cur_k, ref_k) / Σ_k cur_k. 1.0 means the batch lands entirely
// inside the solved footprint; 0.0 means a disjoint region.
func coverage(cur, ref map[array.ChunkKey]int) float64 {
	total, common := 0, 0
	for k, c := range cur {
		total += c
		r := ref[k]
		if r < c {
			common += r
		} else {
			common += c
		}
	}
	if total == 0 {
		return 1.0
	}
	return float64(common) / float64(total)
}

// plan produces the batch's maintenance plan. When the chunk-touch coverage
// against the cached solve is at or above the drift threshold — or when the
// batch carries conflicts with in-flight predecessors — the cached placement
// is reused and only the transfer list is rebuilt against the live catalog.
// Otherwise the configured planner runs a full solve and the cache is
// rebuilt from its solution.
//
// Conflicted batches never full-solve: optimizer plans may chain ships
// (a transfer sourced from a replica another transfer creates), which is
// incompatible with the deferred-transfer skip set (see
// maintain.Staged.RunTransfers). Reused plans ship every chunk directly from
// its home, so any subset may be deferred safely.
func (r *router) plan(ctx *maintain.Context, conflicted bool) (*maintain.Plan, bool, error) {
	cur := touchesOf(ctx.Units)
	if r.heavy != nil {
		for k, c := range cur {
			if r.heavy(k) {
				cur[k] = c * heavyTouchWeight
			}
		}
	}
	if r.haveSolve && (conflicted || coverage(cur, r.touch) >= driftThreshold) {
		r.reuses.Add(1)
		return r.reusePlan(ctx), true, nil
	}
	if !conflicted {
		p, err := r.planner.Plan(ctx)
		if err != nil {
			return nil, false, err
		}
		r.adopt(ctx, p, cur)
		r.solves.Add(1)
		return p, false, nil
	}
	// Conflicted with no cached solve yet: route greedily this batch; the
	// next unconflicted batch seeds the cache.
	r.reuses.Add(1)
	return r.reusePlan(ctx), true, nil
}

// adopt rebuilds the reuse cache from a full solve's assignments.
func (r *router) adopt(ctx *maintain.Context, p *maintain.Plan, touch map[array.ChunkKey]int) {
	r.haveSolve = true
	r.touch = touch
	r.joinSite = make(map[maintain.PairKey]int, len(ctx.Units))
	for i, u := range ctx.Units {
		r.joinSite[ctx.PairKey(u)] = p.JoinSite[i]
	}
	r.viewHome = make(map[array.ChunkKey]int, len(p.ViewHome))
	for v, j := range p.ViewHome {
		r.viewHome[v] = j
	}
}

// reusePlan assembles an executable plan from the cached placement (see
// maintain.AssemblePlan): cached join sites for known pairs, a cheap greedy
// site — remembered in turn — for new ones. Its placeholder ships for
// pending chunks are always deferred by the caller, then re-resolved against
// the live catalog after the commit fence; its static-placement homes for
// brand-new delta chunks agree with a successor's pending-key guess (the
// same placement).
func (r *router) reusePlan(ctx *maintain.Context) *maintain.Plan {
	n := ctx.Cluster.NumNodes()
	return maintain.AssemblePlan(ctx, "stream-reuse", func(_ int, u view.Unit) int {
		pk := ctx.PairKey(u)
		site, ok := r.joinSite[pk]
		if !ok {
			site = r.greedySite(ctx, u, n)
			r.joinSite[pk] = site
		}
		return site
	}, r.viewHome)
}

// greedySite picks a join site for a pair outside the cached solution:
// prefer a base-side chunk's live home (joining where the data already sits
// ships only the delta chunk), else the first view chunk's home hint (the
// merge destination).
func (r *router) greedySite(ctx *maintain.Context, u view.Unit, n int) int {
	for _, ref := range []view.ChunkRef{u.Q, u.P} {
		if ctx.IsDelta(ref) {
			continue
		}
		if home, ok := ctx.Cluster.Catalog().Home(ref.Array, ref.Key); ok {
			return home
		}
	}
	if len(u.Views) > 0 {
		return ctx.ViewHomeHint(u.Views[0])
	}
	return 0
}

// stats snapshots the solve/reuse counters; safe from any goroutine.
func (r *router) stats() RouterStats {
	return RouterStats{Solves: r.solves.Load(), Reuses: r.reuses.Load()}
}
