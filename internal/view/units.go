package view

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
)

// ChunkRef identifies one chunk of a named array in the catalog — either
// the base array or the staged delta namespace of the current batch.
type ChunkRef struct {
	Array string
	Key   array.ChunkKey
}

// String renders the reference for diagnostics.
func (r ChunkRef) String() string { return fmt.Sprintf("%s%v", r.Array, r.Key.Coord()) }

// Less orders references by array name then key.
func (r ChunkRef) Less(o ChunkRef) bool { return r.Compare(o) < 0 }

// Compare orders references by array name then key.
func (r ChunkRef) Compare(o ChunkRef) int {
	if c := cmp.Compare(r.Array, o.Array); c != 0 {
		return c
	}
	return cmp.Compare(r.Key, o.Key)
}

// Unit is one chunk-pair join of the differential view computation together
// with the view chunks its result merges into. It corresponds to the
// paper's update triples (p, q, v) grouped by pair: one Unit with n Views
// stands for n triples.
type Unit struct {
	// P is the α-side chunk; for mixed base/delta pairs it is the delta
	// side.
	P ChunkRef
	// Q is the β-side chunk.
	Q ChunkRef
	// Views lists the affected view chunk keys, sorted.
	Views []array.ChunkKey
	// BothDirections marks self-join pairs that must be evaluated in both
	// orientations (a∈P matching b∈Q and a∈Q matching b∈P). Same-chunk self
	// pairs and two-array units are single-direction.
	BothDirections bool
}

// Triple is the flattened (p, q, v) form used by the maintenance
// optimization (Table 1).
type Triple struct {
	P, Q ChunkRef
	V    array.ChunkKey
}

// Triples flattens units into the paper's triple representation.
func Triples(units []Unit) []Triple {
	var out []Triple
	for _, u := range units {
		for _, v := range u.Views {
			out = append(out, Triple{P: u.P, Q: u.Q, V: v})
		}
	}
	return out
}

// UnitGen generates the update units of one batch from catalog metadata
// only — the preprocessing step the paper performs at the coordinator.
type UnitGen struct {
	Catalog *cluster.Catalog
	Def     *Definition
	// Base and Delta name the catalog namespaces of the base array and the
	// staged batch for each join side. For self-join views the α and β
	// entries coincide.
	BaseAlpha, BaseBeta   string
	DeltaAlpha, DeltaBeta string
	// CellPruning uses each chunk's cached cell bounding box instead of its
	// full region when identifying join pairs and affected view chunks —
	// the paper's cell-granularity alternative, which prunes unnecessary
	// pairs at the price of richer metadata.
	CellPruning bool

	// PendingAlpha and PendingBeta list base-side chunk keys that do not
	// exist in the catalog yet but will before this batch's joins run: a
	// pipelined caller generates units while predecessor micro-batches are
	// still in flight, and those predecessors' commits create the chunks.
	// Pending chunks participate as candidates with their full chunk region
	// (no bbox exists yet — conservative, never misses a pair).
	PendingAlpha, PendingBeta []array.ChunkKey

	// DirtyBase, when non-nil, reports base chunks whose content an
	// in-flight predecessor batch will change before this batch joins. Under
	// CellPruning their cached bounding box is stale, so pruning falls back
	// to the full chunk region for them — again conservative: extra units
	// join harmlessly empty regions, missing units would corrupt the view.
	DirtyBase func(arrayName string, key array.ChunkKey) bool
}

// pendingFor returns the pending key set registered for arrayName.
func (g *UnitGen) pendingFor(arrayName string) map[array.ChunkKey]bool {
	set := make(map[array.ChunkKey]bool)
	if arrayName == g.BaseAlpha {
		for _, k := range g.PendingAlpha {
			set[k] = true
		}
	}
	if arrayName == g.BaseBeta {
		for _, k := range g.PendingBeta {
			set[k] = true
		}
	}
	return set
}

// regionFor returns the chunk's effective region: the tight cell bounding
// box under cell pruning (when recorded and not dirty), the full chunk
// region otherwise.
func (g *UnitGen) regionFor(schema *array.Schema, arrayName string, key array.ChunkKey) array.Region {
	if g.CellPruning && !(g.DirtyBase != nil && g.DirtyBase(arrayName, key)) {
		if bb, ok := g.Catalog.ChunkBBox(arrayName, key); ok {
			return bb
		}
	}
	return schema.ChunkRegion(key.Coord())
}

// Generate enumerates the units. For a self-join view the unit set is
// {(p, q) : p ∈ Δ, q ∈ base, either orientation joins} ∪
// {(p, q) : p ≤ q ∈ Δ}; for a two-array view it is the three differential
// terms Δα⋈β, α⋈Δβ, Δα⋈Δβ.
func (g *UnitGen) Generate() ([]Unit, error) {
	if g.Def.SelfJoin() {
		return g.generateSelf()
	}
	return g.generateTwoArray()
}

func (g *UnitGen) generateSelf() ([]Unit, error) {
	base, delta := g.BaseAlpha, g.DeltaAlpha
	schema := g.Catalog.Schema(base)
	if schema == nil {
		return nil, fmt.Errorf("view: base array %q not in catalog", base)
	}
	deltaKeys := g.Catalog.Keys(delta)
	var units []Unit
	// Delta × base pairs.
	for _, pk := range deltaKeys {
		p := ChunkRef{Array: delta, Key: pk}
		for _, qk := range g.candidates(schema, base, pk) {
			q := ChunkRef{Array: base, Key: qk}
			u, ok := g.buildUnit(schema, p, q, true)
			if ok {
				units = append(units, u)
			}
		}
	}
	// Delta × delta pairs, p ≤ q.
	for i, pk := range deltaKeys {
		p := ChunkRef{Array: delta, Key: pk}
		cand := make(map[array.ChunkKey]bool)
		for _, qk := range g.candidates(schema, delta, pk) {
			cand[qk] = true
		}
		for j := i; j < len(deltaKeys); j++ {
			qk := deltaKeys[j]
			if !cand[qk] {
				continue
			}
			q := ChunkRef{Array: delta, Key: qk}
			u, ok := g.buildUnit(schema, p, q, pk != qk)
			if ok {
				units = append(units, u)
			}
		}
	}
	sortUnits(units)
	return units, nil
}

func (g *UnitGen) generateTwoArray() ([]Unit, error) {
	sa := g.Catalog.Schema(g.BaseAlpha)
	sb := g.Catalog.Schema(g.BaseBeta)
	if sa == nil || sb == nil {
		return nil, fmt.Errorf("view: base arrays %q/%q not in catalog", g.BaseAlpha, g.BaseBeta)
	}
	var units []Unit
	add := func(pArr string, pk array.ChunkKey, qArr string, qk array.ChunkKey) {
		u, ok := g.buildDirectedUnit(sa, sb, ChunkRef{Array: pArr, Key: pk}, ChunkRef{Array: qArr, Key: qk})
		if ok {
			units = append(units, u)
		}
	}
	dAlphaKeys := g.Catalog.Keys(g.DeltaAlpha)
	dBetaKeys := g.Catalog.Keys(g.DeltaBeta)
	// Δα ⋈ β.
	for _, pk := range dAlphaKeys {
		for _, qk := range g.reachCandidates(sa, sb, g.BaseBeta, pk) {
			add(g.DeltaAlpha, pk, g.BaseBeta, qk)
		}
	}
	// α ⋈ Δβ (α excludes Δα: the paper's double-counting rule).
	for _, qk := range dBetaKeys {
		for _, pk := range g.sourceCandidates(sa, sb, g.BaseAlpha, qk) {
			add(g.BaseAlpha, pk, g.DeltaBeta, qk)
		}
	}
	// Δα ⋈ Δβ.
	for _, pk := range dAlphaKeys {
		for _, qk := range g.reachCandidates(sa, sb, g.DeltaBeta, pk) {
			add(g.DeltaAlpha, pk, g.DeltaBeta, qk)
		}
	}
	sortUnits(units)
	return units, nil
}

// candidates returns the chunk keys of arrayName whose region could join
// the chunk pk (of the same schema) in either orientation.
func (g *UnitGen) candidates(schema *array.Schema, arrayName string, pk array.ChunkKey) []array.ChunkKey {
	pr := g.regionFor(schema, g.DeltaAlpha, pk)
	pending := g.pendingFor(arrayName)
	seen := make(map[array.ChunkKey]bool)
	var out []array.ChunkKey
	consider := func(region array.Region) {
		for _, cc := range schema.ChunksOverlapping(region) {
			k := cc.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			if _, ok := g.Catalog.Home(arrayName, k); ok || pending[k] {
				out = append(out, k)
			}
		}
	}
	consider(g.Def.Pred.ReachRegion(pr))  // p as α: q must hold reachable cells
	consider(g.Def.Pred.SourceRegion(pr)) // q as α: q must hold cells reaching p
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// reachCandidates returns β-side chunks of arrayName reachable from α chunk pk.
func (g *UnitGen) reachCandidates(sa, sb *array.Schema, arrayName string, pk array.ChunkKey) []array.ChunkKey {
	pr := g.regionFor(sa, g.DeltaAlpha, pk)
	pending := g.pendingFor(arrayName)
	var out []array.ChunkKey
	for _, cc := range sb.ChunksOverlapping(g.Def.Pred.ReachRegion(pr)) {
		k := cc.Key()
		if _, ok := g.Catalog.Home(arrayName, k); ok || pending[k] {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sourceCandidates returns α-side chunks of arrayName that can reach β chunk qk.
func (g *UnitGen) sourceCandidates(sa, sb *array.Schema, arrayName string, qk array.ChunkKey) []array.ChunkKey {
	qr := g.regionFor(sb, g.DeltaBeta, qk)
	pending := g.pendingFor(arrayName)
	var out []array.ChunkKey
	for _, cc := range sa.ChunksOverlapping(g.Def.Pred.SourceRegion(qr)) {
		k := cc.Key()
		if _, ok := g.Catalog.Home(arrayName, k); ok || pending[k] {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// buildUnit assembles a self-join unit: view chunks are those overlapping
// the group projection of either orientation's contributing α cells.
func (g *UnitGen) buildUnit(schema *array.Schema, p, q ChunkRef, both bool) (Unit, bool) {
	pr := g.regionFor(schema, p.Array, p.Key)
	qr := g.regionFor(schema, q.Array, q.Key)
	views := make(map[array.ChunkKey]bool)
	// Orientation a ∈ p, b ∈ q: contributing a's lie in p ∩ Source(q).
	if g.Def.Pred.PairChunks(pr, qr) {
		if src, ok := pr.Intersect(g.Def.Pred.SourceRegion(qr)); ok {
			g.addViewChunks(views, src)
		}
	}
	// Orientation a ∈ q, b ∈ p.
	if g.Def.Pred.PairChunks(qr, pr) {
		if src, ok := qr.Intersect(g.Def.Pred.SourceRegion(pr)); ok {
			g.addViewChunks(views, src)
		}
	}
	if len(views) == 0 {
		return Unit{}, false
	}
	return Unit{P: p, Q: q, Views: sortedViewKeys(views), BothDirections: both}, true
}

// buildDirectedUnit assembles a two-array unit evaluated only as α=P, β=Q.
func (g *UnitGen) buildDirectedUnit(sa, sb *array.Schema, p, q ChunkRef) (Unit, bool) {
	pr := g.regionFor(sa, p.Array, p.Key)
	qr := g.regionFor(sb, q.Array, q.Key)
	if !g.Def.Pred.PairChunks(pr, qr) {
		return Unit{}, false
	}
	views := make(map[array.ChunkKey]bool)
	if src, ok := pr.Intersect(g.Def.Pred.SourceRegion(qr)); ok {
		g.addViewChunks(views, src)
	}
	if len(views) == 0 {
		return Unit{}, false
	}
	return Unit{P: p, Q: q, Views: sortedViewKeys(views)}, true
}

func (g *UnitGen) addViewChunks(views map[array.ChunkKey]bool, alphaRegion array.Region) {
	proj := g.Def.GroupRegion(alphaRegion)
	for _, cc := range g.Def.Schema().ChunksOverlapping(proj) {
		views[cc.Key()] = true
	}
}

func sortedViewKeys(m map[array.ChunkKey]bool) []array.ChunkKey {
	out := make([]array.ChunkKey, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortUnits(units []Unit) {
	slices.SortFunc(units, func(a, b Unit) int {
		if c := a.P.Compare(b.P); c != 0 {
			return c
		}
		return a.Q.Compare(b.Q)
	})
}
