package maintain

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/view"
)

// randomBatchContext stages a random delta over a random base on a random
// small cluster and returns its planning context.
func randomBatchContext(t *testing.T, rng *rand.Rand) *Context {
	t.Helper()
	cl, err := cluster.New(2+rng.Intn(5), cluster.WithWorkersPerNode(1))
	if err != nil {
		t.Fatal(err)
	}
	base := array.New(fig1Schema())
	for i := 0; i < 6+rng.Intn(10); i++ {
		_ = base.Set(array.Point{1 + rng.Int63n(6), 1 + rng.Int63n(8)}, array.Tuple{1, 1})
	}
	placements := []cluster.Placement{&cluster.RoundRobin{}, cluster.HashPlacement{},
		cluster.RangePlacement{Dim: 0, NumChunks: 3}}
	if err := cl.LoadArray(base, placements[rng.Intn(len(placements))]); err != nil {
		t.Fatal(err)
	}
	def := fig1Def(t)
	if err := BuildView(cl, def, placements[rng.Intn(len(placements))]); err != nil {
		t.Fatal(err)
	}
	ds := *fig1Schema()
	ds.Name = "A#rand"
	if err := cl.Catalog().Register(&ds); err != nil {
		t.Fatal(err)
	}
	delta := array.New(fig1Schema())
	for i := 0; i < 2+rng.Intn(6); i++ {
		p := array.Point{1 + rng.Int63n(6), 1 + rng.Int63n(8)}
		if _, ok := base.Get(p); !ok {
			_ = delta.Set(p, array.Tuple{1, 1})
		}
	}
	var chunks []*array.Chunk
	delta.EachChunk(func(c *array.Chunk) bool { chunks = append(chunks, c); return true })
	if err := cl.StageDelta(ds.Name, chunks); err != nil {
		t.Fatal(err)
	}
	gen := &view.UnitGen{Catalog: cl.Catalog(), Def: def,
		BaseAlpha: "A", BaseBeta: "A", DeltaAlpha: ds.Name, DeltaBeta: ds.Name}
	units, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.Seed = rng.Int63()
	ctx, err := NewContext(cl, def, units, "A", "A", ds.Name, ds.Name, "V", nil, params)
	if err != nil {
		t.Fatal(err)
	}
	ctx.ViewPlacement = placements[1+rng.Intn(2)] // stateless: a hint is asked for twice
	return ctx
}

// TestPlanIndexMatchesAccessors: every column of the index equals the
// catalog accessor it replaces, for every chunk, view chunk and unit of
// random batches; and after each planner's solve the holder bitset is
// exactly "origin plus the transfers emitted".
func TestPlanIndexMatchesAccessors(t *testing.T) {
	f := func(seed int64) bool {
		ctx := randomBatchContext(t, rand.New(rand.NewSource(seed)))
		ix := ctx.index()
		cat := ctx.Cluster.Catalog()
		ok := true
		fail := func(format string, args ...any) {
			t.Errorf("seed %d: "+format, append([]any{seed}, args...)...)
			ok = false
		}
		for id, r := range ix.refs {
			if ix.size[id] != ctx.SizeOf(r) {
				fail("size[%v] = %d, SizeOf = %d", r, ix.size[id], ctx.SizeOf(r))
			}
			if int(ix.origin[id]) != ctx.HomeOf(r) {
				fail("origin[%v] = %d, HomeOf = %d", r, ix.origin[id], ctx.HomeOf(r))
			}
			if ix.isDelta[id] != ctx.IsDelta(r) {
				fail("isDelta[%v] = %v", r, ix.isDelta[id])
			}
			baseHome, exists := cat.Home(ctx.BaseNameFor(r.Array), r.Key)
			if (ix.baseHome[id] != absent) != exists || (exists && int(ix.baseHome[id]) != baseHome) {
				fail("baseHome[%v] = %d, catalog says %d/%v", r, ix.baseHome[id], baseHome, exists)
			}
			if home, known := ix.homeOf(ctx, r); !known || home != ctx.HomeOf(r) {
				fail("homeOf(%v) = %d/%v", r, home, known)
			}
		}
		for id, v := range ix.views {
			want, exists := ctx.ViewHomeOf(v)
			if !exists {
				want = ctx.ViewPlacement.Place(v, ix.nodes)
			}
			if int(ix.viewHint[id]) != want || ctx.ViewHomeHint(v) != want {
				fail("viewHint[%v] = %d (ViewHomeHint %d), want %d", v, ix.viewHint[id], ctx.ViewHomeHint(v), want)
			}
		}
		for i, u := range ctx.Units {
			if ix.refs[ix.unitP[i]] != u.P || ix.refs[ix.unitQ[i]] != u.Q {
				fail("unit %d interned as %v/%v, want %v/%v", i, ix.refs[ix.unitP[i]], ix.refs[ix.unitQ[i]], u.P, u.Q)
			}
			if ix.pairBytes[i] != ctx.PairBytes(u) {
				fail("pairBytes[%d] = %d, PairBytes = %d", i, ix.pairBytes[i], ctx.PairBytes(u))
			}
			vs := ix.viewsOf(i)
			if len(vs) != len(u.Views) {
				fail("unit %d feeds %d view chunks, want %d", i, len(vs), len(u.Views))
				continue
			}
			for k, v := range vs {
				if ix.views[v] != u.Views[k] {
					fail("unit %d view %d = %v, want %v", i, k, ix.views[v], u.Views[k])
				}
			}
		}
		for _, planner := range []Planner{Baseline{}, Differential{}, Reassign{}} {
			p, err := planner.Plan(ctx)
			if err != nil {
				fail("%s: %v", planner.Name(), err)
				continue
			}
			if err := p.Validate(ctx); err != nil {
				fail("%s: %v", planner.Name(), err)
			}
			want := make(map[view.ChunkRef]map[int]bool)
			for id, r := range ix.refs {
				want[r] = map[int]bool{int(ix.origin[id]): true}
			}
			for _, tr := range p.Transfers {
				want[tr.Ref][tr.To] = true
			}
			for id, r := range ix.refs {
				for j := 0; j < ix.nodes; j++ {
					if ix.has(int32(id), j) != want[r][j] {
						fail("%s: holder bit (%v, node %d) = %v, transfers say %v",
							planner.Name(), r, j, ix.has(int32(id), j), want[r][j])
					}
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestCandidateEvaluationDoesNotAllocate: choosing a join site (Algorithm 1)
// and a view home (Algorithm 2) runs on the index's columns and scratch
// vectors alone.
func TestCandidateEvaluationDoesNotAllocate(t *testing.T) {
	ctx, cl := stageFig1Batch(t)
	ix := ctx.index()
	ix.resetHolders()
	ledger := cl.NewLedger()
	unit := 0
	for i := range ctx.Units { // a unit that exercises the merge-shipping terms
		if len(ix.viewsOf(i)) > len(ix.viewsOf(unit)) {
			unit = i
		}
	}
	if n := testing.AllocsPerRun(100, func() { ix.chooseJoinSite(ctx, ledger, unit) }); n != 0 {
		t.Errorf("chooseJoinSite allocates %v times per call, want 0", n)
	}
	contribs := []viewContrib{{site: 0, bytes: 10, ship: 10}, {site: 1, bytes: 7, ship: 7}, {site: 1, bytes: 3, ship: 3}}
	if n := testing.AllocsPerRun(100, func() { ix.chooseViewHome(ledger, ctx.Model, contribs, 2) }); n != 0 {
		t.Errorf("chooseViewHome allocates %v times per call, want 0", n)
	}
}

// sizingPlanner sums Σ B_pq over the batch's triples as the planner sees
// them: with the delta namespace still staged and the base not yet merged.
type sizingPlanner struct {
	Planner
	triplePairBytes int64
}

func (s *sizingPlanner) Plan(ctx *Context) (*Plan, error) {
	s.triplePairBytes = 0
	for _, u := range ctx.Units {
		s.triplePairBytes += ctx.PairBytes(u) * int64(len(u.Views))
	}
	return s.Planner.Plan(ctx)
}

// TestHistoryRecordsPlanningTimeSizes: a batch is recorded after cleanup
// dropped its delta namespace, when the catalog sizes every staged chunk at
// zero. The window must keep the sizes the plan was solved against, or
// Algorithm 3 weighs the freshly inserted chunks at nothing.
func TestHistoryRecordsPlanningTimeSizes(t *testing.T) {
	sp := &sizingPlanner{Planner: Reassign{}}
	_, m, _ := setupFig1(t, sp)
	if _, err := m.ApplyBatch(fig1Delta()); err != nil {
		t.Fatal(err)
	}
	rec := m.History().batches[0]
	if len(rec.pairs) == 0 {
		t.Fatal("nothing recorded")
	}
	for _, pr := range rec.pairs {
		if pr.Bytes == 0 {
			t.Errorf("recorded pair (%v, %v) has Bytes == 0", pr.Ref, pr.View)
		}
	}
	if rec.pairBytes != sp.triplePairBytes {
		t.Errorf("recorded pairBytes = %d, want Σ B_pq over the batch's triples = %d", rec.pairBytes, sp.triplePairBytes)
	}
}
