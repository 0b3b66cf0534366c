package maintain

import (
	"sort"
	"strings"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/view"
)

// PlanScratch caches a batch's geometric preparation — the generated unit
// list and the optimizer's join-site/view-home solution — keyed by the
// delta's chunk footprint. Replay-shaped workloads (the PTF correlated and
// periodic pointings) present the same delta chunk-key set batch after
// batch, and at scale triple generation plus the optimizer solve dominate
// per-batch maintenance cost; the scratch pays that cost once per distinct
// footprint and replays the answer.
//
// Exactness: with cell pruning off, the unit set is a pure function of the
// predicate geometry, the delta chunk-key set, and the base chunk-key set —
// chunk contents never matter. The footprint captures the delta side; a
// base-generation counter (bumped whenever a committed batch adds chunk
// keys to the base, and on any deletion) guards the base side, and a
// placement counter guards SetPlacements. A cached entry is reused only
// when both counters still match; anything else is a miss that re-solves.
// Join sites and view homes are placement policy, not correctness — any
// assignment yields the same view — but the transfer list is rebuilt
// against the live catalog on every reuse, so chunks that migrated since
// the solve still ship from their current homes. Under cell pruning the
// unit set depends on chunk contents (bounding boxes), so the scratch
// disables itself.
type PlanScratch struct {
	cap      int
	entries  map[string]*scratchEntry
	order    []string // insertion order, for eviction
	baseVer  int64
	placeVer int64

	hits, misses int64
}

// PairKey is the batch-independent identity of a chunk-pair join: the two
// chunk keys plus which sides are delta chunks. Delta namespaces are
// per-batch ("…#delta<seq>"), so the raw array names cannot key a cache that
// outlives the batch. The plan scratch and the stream router both remember
// placements under it.
type PairKey struct {
	P, Q           array.ChunkKey
	PDelta, QDelta bool
}

// PairKey returns the unit's batch-independent identity.
func (c *Context) PairKey(u view.Unit) PairKey {
	return PairKey{P: u.P.Key, Q: u.Q.Key, PDelta: c.IsDelta(u.P), QDelta: c.IsDelta(u.Q)}
}

// scratchUnit is one cached unit: the pair's identity and the affected view
// chunks. The delta array's per-batch namespace is re-bound at reuse time.
type scratchUnit struct {
	PairKey
	both  bool
	views []array.ChunkKey
}

type scratchEntry struct {
	baseVer, placeVer int64
	units             []scratchUnit
	joinSite          []int
	viewHome          map[array.ChunkKey]int
}

// DefaultPlanScratchCap bounds the number of cached footprints. Replay
// workloads cycle through a handful of distinct footprints; fresh-slab
// workloads never revalidate an entry, so a small cap keeps the scratch
// from hoarding unit lists it will never reuse.
const DefaultPlanScratchCap = 8

// NewPlanScratch returns an empty scratch (cap <= 0 uses the default).
func NewPlanScratch(capacity int) *PlanScratch {
	if capacity <= 0 {
		capacity = DefaultPlanScratchCap
	}
	return &PlanScratch{cap: capacity, entries: make(map[string]*scratchEntry)}
}

// PlanScratchStats counts footprint reuses versus solves.
type PlanScratchStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// Stats snapshots the reuse counters. The scratch is only touched under the
// owning maintainer's batch serialization, so no locking is needed.
func (s *PlanScratch) Stats() PlanScratchStats {
	if s == nil {
		return PlanScratchStats{}
	}
	return PlanScratchStats{Hits: s.hits, Misses: s.misses}
}

// Invalidate marks every cached entry stale against the base chunk-key set.
func (s *PlanScratch) Invalidate() { s.baseVer++ }

// InvalidatePlacement marks every cached entry stale against the placement
// strategies.
func (s *PlanScratch) InvalidatePlacement() { s.placeVer++ }

// footprint builds the cache key from the delta chunk keys; order
// insensitive.
func scratchFootprint(keys []array.ChunkKey) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = string(k)
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

// lookup returns the cached entry for the footprint when it is still valid,
// counting a hit or miss either way. Stale entries are dropped.
func (s *PlanScratch) lookup(fp string) *scratchEntry {
	e, ok := s.entries[fp]
	if ok && e.baseVer == s.baseVer && e.placeVer == s.placeVer {
		s.hits++
		return e
	}
	if ok {
		s.drop(fp)
	}
	s.misses++
	return nil
}

func (s *PlanScratch) drop(fp string) {
	delete(s.entries, fp)
	for i, k := range s.order {
		if k == fp {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
}

// store caches the generated units and the solved placement for the
// footprint, evicting the oldest entry at capacity.
func (s *PlanScratch) store(fp string, ctx *Context, p *Plan) {
	for len(s.entries) >= s.cap {
		s.drop(s.order[0])
	}
	e := &scratchEntry{
		baseVer:  s.baseVer,
		placeVer: s.placeVer,
		units:    make([]scratchUnit, len(ctx.Units)),
		joinSite: make([]int, len(ctx.Units)),
		viewHome: make(map[array.ChunkKey]int, len(p.ViewHome)),
	}
	for i, u := range ctx.Units {
		e.units[i] = scratchUnit{PairKey: ctx.PairKey(u), both: u.BothDirections, views: u.Views}
		e.joinSite[i] = p.JoinSite[i]
	}
	for v, j := range p.ViewHome {
		e.viewHome[v] = j
	}
	if _, ok := s.entries[fp]; !ok {
		s.order = append(s.order, fp)
	}
	s.entries[fp] = e
}

// rebuildUnits materializes the cached unit list against a fresh batch's
// delta namespace.
func (e *scratchEntry) rebuildUnits(baseName, deltaName string) []view.Unit {
	units := make([]view.Unit, len(e.units))
	for i, su := range e.units {
		pArr, qArr := baseName, baseName
		if su.PDelta {
			pArr = deltaName
		}
		if su.QDelta {
			qArr = deltaName
		}
		units[i] = view.Unit{
			P:              view.ChunkRef{Array: pArr, Key: su.P},
			Q:              view.ChunkRef{Array: qArr, Key: su.Q},
			Views:          su.views,
			BothDirections: su.both,
		}
	}
	return units
}

// AssemblePlan builds an executable plan from a remembered placement
// instead of a solve: site names each unit's join site, viewHome holds the
// remembered view-chunk homes (a chunk it lacks gets the stage-one hint,
// which is remembered in turn), and the transfer list is rebuilt against the
// live catalog — every chunk ships directly from wherever it lives now, so a
// caller may defer any subset of the ships. A chunk absent from the catalog
// (one an in-flight predecessor's commit will create) gets a placeholder ship
// from the coordinator, which validates because HomeOf reports Coordinator
// for absent chunks. Brand-new delta chunks get their post-batch home from
// the static placement, as a fresh solve would record in ArrayRehome.
func AssemblePlan(ctx *Context, strategy string, site func(i int, u view.Unit) int, viewHome map[array.ChunkKey]int) *Plan {
	n := ctx.Cluster.NumNodes()
	p := NewPlan(strategy, len(ctx.Units))
	type ship struct {
		ref view.ChunkRef
		to  int
	}
	shipped := make(map[ship]bool)
	addShip := func(ref view.ChunkRef, to int) {
		from := ctx.HomeOf(ref)
		if from == to || shipped[ship{ref, to}] {
			return
		}
		shipped[ship{ref, to}] = true
		p.Transfers = append(p.Transfers, Transfer{Ref: ref, From: from, To: to})
	}
	for i, u := range ctx.Units {
		at := site(i, u)
		p.JoinSite[i] = at
		addShip(u.P, at)
		addShip(u.Q, at)
		for _, v := range u.Views {
			if _, ok := p.ViewHome[v]; ok {
				continue
			}
			home, ok := viewHome[v]
			if !ok {
				home = ctx.ViewHomeHint(v)
				viewHome[v] = home
			}
			p.ViewHome[v] = home
		}
	}
	for _, ref := range ctx.DeltaRefs() {
		if !ctx.IsDelta(ref) {
			continue
		}
		base := ctx.BaseNameFor(ref.Array)
		if _, exists := ctx.Cluster.Catalog().Home(base, ref.Key); !exists {
			p.ArrayRehome[ref] = ctx.ArrayPlacement.Place(ref.Key, n)
		}
	}
	return p
}
