package arrayview

import (
	"errors"
	"testing"

	"github.com/arrayview/arrayview/internal/view"
)

func demoSchema() *Schema {
	return MustSchema("sky",
		[]Dimension{
			{Name: "x", Start: 0, End: 99, ChunkSize: 10},
			{Name: "y", Start: 0, End: 99, ChunkSize: 10},
		},
		[]Attribute{{Name: "flux", Type: Float64}})
}

func demoArray(t *testing.T) *Array {
	t.Helper()
	a := NewArray(demoSchema())
	pts := []Point{{5, 5}, {5, 6}, {6, 5}, {40, 40}, {41, 41}, {80, 20}}
	for i, p := range pts {
		if err := a.Set(p, Tuple{float64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func demoView(t *testing.T) *Definition {
	t.Helper()
	s := demoSchema()
	def, err := NewDefinition("neighbors", s, s,
		Pred(L1(2, 1), nil),
		[]string{"x", "y"},
		[]Aggregate{{Kind: Count, As: "cnt"}, {Kind: Sum, Attr: "flux", As: "fluxsum"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return def
}

func TestFacadeEndToEnd(t *testing.T) {
	db, err := Open(4, WithWorkersPerNode(2))
	if err != nil {
		t.Fatal(err)
	}
	if db.NumNodes() != 4 {
		t.Fatal("node count")
	}
	base := demoArray(t)
	if err := db.Load(base); err != nil {
		t.Fatal(err)
	}
	mv, err := db.CreateView(demoView(t), StrategyReassign, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Initial content matches the local reference.
	content, err := mv.Content()
	if err != nil {
		t.Fatal(err)
	}
	want, err := MaterializeLocal(mv.Definition(), base, base)
	if err != nil {
		t.Fatal(err)
	}
	if !content.Equal(want) {
		t.Fatal("initial view content diverges")
	}

	// Values renders COUNT and SUM: cell (5,5) has neighbors (5,6), (6,5)
	// plus itself.
	vals, ok, err := mv.Values(Point{5, 5})
	if err != nil || !ok {
		t.Fatalf("Values: %v %v", ok, err)
	}
	if vals[0] != 3 {
		t.Errorf("cnt at (5,5) = %v, want 3", vals[0])
	}
	if vals[1] != 1+2+3 {
		t.Errorf("fluxsum at (5,5) = %v, want 6", vals[1])
	}
	if _, ok, _ := mv.Values(Point{0, 0}); ok {
		t.Error("empty cell must report ok=false")
	}

	// A batch update.
	delta := NewArray(demoSchema())
	_ = delta.Set(Point{5, 4}, Tuple{10})
	_ = delta.Set(Point{42, 41}, Tuple{20})
	if err := DisjointInsert(base, delta); err != nil {
		t.Fatal(err)
	}
	rep, err := mv.Update(delta)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaintenanceSeconds <= 0 || rep.NumUnits == 0 {
		t.Errorf("report: %+v", rep)
	}
	vals, _, err = mv.Values(Point{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 4 {
		t.Errorf("cnt at (5,5) after update = %v, want 4", vals[0])
	}

	// Query integration: L∞(1) from the L1(1) view.
	ans, err := mv.Query(Linf(2, 1), Auto)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Choice.UseView {
		t.Error("Δ ratio 4/9 should favour the view")
	}
	got, found := ans.Array.Get(Point{40, 40})
	if !found || got[0] != 2 { // self + diagonal (41,41)
		t.Errorf("query cnt at (40,40) = %v, %v, want 2", got, found)
	}

	ch, err := mv.DecideQuery(Linf(2, 1))
	if err != nil || !ch.UseView {
		t.Errorf("DecideQuery = %+v, %v", ch, err)
	}

	// Chunk home accounting covers all chunks.
	homes := db.ChunkHomes("sky")
	total := 0
	for _, n := range homes {
		total += n
	}
	gathered, _ := db.Gather("sky")
	if total != gathered.NumChunks() {
		t.Errorf("ChunkHomes sums to %d, want %d", total, gathered.NumChunks())
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := Open(0); err == nil {
		t.Error("zero nodes must fail")
	}
	db, _ := Open(2)
	if err := db.Load(demoArray(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateView(demoView(t), "nope", nil); err == nil {
		t.Error("unknown strategy must fail")
	}
	bad := DefaultParams()
	bad.Lambda = 7
	if _, err := db.CreateView(demoView(t), StrategyBaseline, &bad); err == nil {
		t.Error("invalid params must fail")
	}
	// A two-array view refuses query integration with the one sentinel every
	// self-join-only layer wraps.
	mv, _, _ := crossmatchView(t)
	if _, err := mv.Query(Linf(1, 1), Auto); !errors.Is(err, view.ErrSelfJoinOnly) {
		t.Errorf("two-array Query = %v, want ErrSelfJoinOnly", err)
	}
	if _, err := mv.DecideQuery(Linf(1, 1)); !errors.Is(err, view.ErrSelfJoinOnly) {
		t.Errorf("two-array DecideQuery = %v, want ErrSelfJoinOnly", err)
	}
}

func TestFacadeShapeHelpers(t *testing.T) {
	if L1(2, 1).Card() != 5 || Linf(2, 1).Card() != 9 || L2(2, 1).Card() != 5 {
		t.Error("norm ball cardinalities")
	}
	d, err := DeltaShape(L1(2, 1), Linf(2, 1))
	if err != nil || d == nil || d.Card() != 4 {
		t.Errorf("DeltaShape = %v, %v", d, err)
	}
	if same, err := DeltaShape(L1(2, 2), L1(2, 2)); err != nil || same != nil {
		t.Error("identical shapes have nil delta")
	}
	if _, err := DeltaShape(L1(2, 1), L1(3, 1)); err == nil {
		t.Error("arity mismatch must return an error, not panic")
	}
	s, err := ShapeFromOffsets("ring", [][]int64{{0, 1}, {1, 0}, {0, -1}, {-1, 0}})
	if err != nil || s.Card() != 4 {
		t.Errorf("ShapeFromOffsets: %v %v", s, err)
	}
	e, err := EmbedShape(L1(2, 1), 3, []int{1, 2}, map[int][2]int64{0: {-5, 0}})
	if err != nil || e.NumDims() != 3 {
		t.Errorf("EmbedShape: %v %v", e, err)
	}
}

func TestFacadeCostModel(t *testing.T) {
	m := DefaultCostModel()
	if m.Tntwk <= 0 || m.Tcpu <= 0 {
		t.Error("cost model constants must be positive")
	}
	db, err := Open(2, WithCostModel(CostModel{Tntwk: 1, Tcpu: 1}))
	if err != nil {
		t.Fatal(err)
	}
	_ = db
}

func TestFacadeDeleteAndFilters(t *testing.T) {
	db, err := Open(3)
	if err != nil {
		t.Fatal(err)
	}
	base := demoArray(t)
	if err := db.Load(base); err != nil {
		t.Fatal(err)
	}
	def := demoView(t)
	if err := def.SetFilters(nil, []Condition{{Attr: "flux", Op: Le, Value: 5}}); err != nil {
		t.Fatal(err)
	}
	mv, err := db.CreateView(def, StrategyReassign, nil)
	if err != nil {
		t.Fatal(err)
	}
	// (5,5) neighbors under flux<=5: self(1), (5,6)=2, (6,5)=3 → count 3.
	vals, ok, err := mv.Values(Point{5, 5})
	if err != nil || !ok || vals[0] != 3 {
		t.Fatalf("filtered count = %v ok=%v err=%v, want 3", vals, ok, err)
	}
	// Delete (5,6): count drops to 2.
	del := NewArray(demoSchema())
	_ = del.Set(Point{5, 6}, Tuple{2})
	if err := SubsetOf(base, del); err != nil {
		t.Fatal(err)
	}
	if _, err := mv.Delete(del); err != nil {
		t.Fatal(err)
	}
	vals, _, err = mv.Values(Point{5, 5})
	if err != nil || vals[0] != 2 {
		t.Fatalf("count after delete = %v, want 2", vals)
	}
	// The deleted cell's own view entry retracts to zero state.
	vals, ok, _ = mv.Values(Point{5, 6})
	if ok && vals[0] != 0 {
		t.Errorf("deleted cell view = %v, want 0 state", vals)
	}
	// SubsetOf rejects absent cells.
	bad := NewArray(demoSchema())
	_ = bad.Set(Point{0, 0}, Tuple{1})
	gathered, _ := db.Gather("sky")
	if err := SubsetOf(gathered, bad); err == nil {
		t.Error("SubsetOf must reject absent cells")
	}
}

func TestFacadeMinMaxView(t *testing.T) {
	db, _ := Open(2)
	base := demoArray(t)
	if err := db.Load(base); err != nil {
		t.Fatal(err)
	}
	s := demoSchema()
	def, err := NewDefinition("extremes", s, s, Pred(L1(2, 1), nil),
		[]string{"x", "y"},
		[]Aggregate{{Kind: Min, Attr: "flux", As: "fmin"}, {Kind: Max, Attr: "flux", As: "fmax"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := db.CreateView(def, StrategyDifferential, nil)
	if err != nil {
		t.Fatal(err)
	}
	// (5,5): fluxes {1, 2, 3} → min 1, max 3.
	vals, ok, err := mv.Values(Point{5, 5})
	if err != nil || !ok || vals[0] != 1 || vals[1] != 3 {
		t.Fatalf("min/max = %v, want [1 3]", vals)
	}
	// Insert a brighter neighbor; max rises incrementally.
	d := NewArray(s)
	_ = d.Set(Point{4, 5}, Tuple{9})
	if _, err := mv.Update(d); err != nil {
		t.Fatal(err)
	}
	vals, _, _ = mv.Values(Point{5, 5})
	if vals[1] != 9 {
		t.Errorf("max after insert = %v, want 9", vals[1])
	}
	// Deletions are rejected for MIN/MAX views.
	if _, err := mv.Delete(d); err == nil {
		t.Error("MIN/MAX view must reject Delete")
	}
}

func TestFacadeChain(t *testing.T) {
	s := MustSchema("L",
		[]Dimension{{Name: "x", Start: 0, End: 19, ChunkSize: 5}},
		[]Attribute{{Name: "v", Type: Float64}})
	chain, err := NewChain("triples", []*Schema{s, s, s},
		[]JoinPred{Pred(Linf(1, 1), nil), Pred(Linf(1, 1), nil)},
		[]string{"x"}, []Aggregate{{Kind: Count, As: "c"}})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(pts ...int64) *Array {
		a := NewArray(s)
		for _, x := range pts {
			_ = a.Set(Point{x}, Tuple{float64(x)})
		}
		return a
	}
	inputs := []*Array{mk(1, 2), mk(2, 3), mk(3, 4)}
	v, err := chain.Materialize(inputs)
	if err != nil {
		t.Fatal(err)
	}
	// Chains from 2: 2→(2|3)→(3|4 within 1): 2→2→3, 2→3→3, 2→3→4 → count 3.
	tup, ok := v.Get(Point{2})
	if !ok || tup[0] != 3 {
		t.Fatalf("chain count at 2 = %v ok=%v, want 3", tup, ok)
	}
	// Incremental insert at position 2.
	delta := mk(5)
	dv, err := chain.DeltaInsert(inputs, 2, delta)
	if err != nil {
		t.Fatal(err)
	}
	if err := MergeDeltaLocal(chain.StateDefinition(), v, dv); err != nil {
		t.Fatal(err)
	}
	// New chains ending at 5: need middle 4 (absent) → none; verify count
	// unchanged.
	tup, _ = v.Get(Point{2})
	if tup[0] != 3 {
		t.Errorf("count after no-op delta = %v, want 3", tup[0])
	}
}

func TestChainViewOnCluster(t *testing.T) {
	mkSchema := func(name string) *Schema {
		return MustSchema(name,
			[]Dimension{{Name: "x", Start: 0, End: 19, ChunkSize: 5}},
			[]Attribute{{Name: "v", Type: Float64}})
	}
	sa, sb := mkSchema("CA"), mkSchema("CB")
	mk := func(s *Schema, pts ...int64) *Array {
		a := NewArray(s)
		for _, x := range pts {
			_ = a.Set(Point{x}, Tuple{float64(x)})
		}
		return a
	}
	db, err := Open(3)
	if err != nil {
		t.Fatal(err)
	}
	alpha := mk(sa, 1, 5, 9)
	beta := mk(sb, 2, 5, 10)
	if err := db.Load(alpha); err != nil {
		t.Fatal(err)
	}
	if err := db.Load(beta); err != nil {
		t.Fatal(err)
	}
	chain, err := NewChain("pairsV", []*Schema{sa, sb},
		[]JoinPred{Pred(Linf(1, 1), nil)},
		[]string{"x"}, []Aggregate{{Kind: Count, As: "c"}})
	if err != nil {
		t.Fatal(err)
	}
	cv, err := db.CreateChainView(chain)
	if err != nil {
		t.Fatal(err)
	}
	content, err := cv.Content()
	if err != nil {
		t.Fatal(err)
	}
	// 1→2 (dist 1) ✓; 5→5 ✓; 9→10 ✓.
	for _, x := range []int64{1, 5, 9} {
		if tup, ok := content.Get(Point{x}); !ok || tup[0] != 1 {
			t.Errorf("chain view at %d = %v ok=%v, want 1", x, tup, ok)
		}
	}
	// Insert 4 into β: α cell 5 gains a partner (|4-5| ≤ 1).
	if err := cv.Update(1, mk(sb, 4)); err != nil {
		t.Fatal(err)
	}
	content, err = cv.Content()
	if err != nil {
		t.Fatal(err)
	}
	if tup, _ := content.Get(Point{5}); tup[0] != 2 {
		t.Errorf("chain view at 5 after update = %v, want 2", tup)
	}
	// Verify against full recomputation over the gathered inputs.
	a2, _ := db.Gather("CA")
	b2, _ := db.Gather("CB")
	want, err := chain.Materialize([]*Array{a2, b2})
	if err != nil {
		t.Fatal(err)
	}
	ok := true
	want.EachCell(func(p Point, tup Tuple) bool {
		got, found := content.Get(p)
		if !found || got[0] != tup[0] {
			ok = false
		}
		return ok
	})
	if !ok {
		t.Fatal("chain view diverges from recomputation")
	}
	// Bad position errors.
	if err := cv.Update(7, mk(sb, 3)); err == nil {
		t.Error("bad position must fail")
	}
}

// crossmatchView loads two small arrays and materializes a two-array view
// over them: optical detections cross-matched against radio sources within 2
// cells.
func crossmatchView(t *testing.T) (mv *MaterializedView, sa, sb *Schema) {
	t.Helper()
	sa = MustSchema("optical",
		[]Dimension{{Name: "p", Start: 0, End: 29, ChunkSize: 10}},
		[]Attribute{{Name: "mag", Type: Float64}})
	sb = MustSchema("radio",
		[]Dimension{{Name: "p", Start: 0, End: 29, ChunkSize: 6}},
		[]Attribute{{Name: "flux", Type: Float64}})
	db, err := Open(3)
	if err != nil {
		t.Fatal(err)
	}
	alpha := NewArray(sa)
	beta := NewArray(sb)
	for _, x := range []int64{3, 10, 20} {
		_ = alpha.Set(Point{x}, Tuple{float64(x)})
	}
	for _, x := range []int64{4, 11, 25} {
		_ = beta.Set(Point{x}, Tuple{float64(x * 2)})
	}
	if err := db.Load(alpha); err != nil {
		t.Fatal(err)
	}
	if err := db.Load(beta); err != nil {
		t.Fatal(err)
	}
	def, err := NewDefinition("crossmatch", sa, sb,
		Pred(Linf(1, 2), nil),
		[]string{"p"},
		[]Aggregate{{Kind: Count, As: "n"}, {Kind: Sum, Attr: "flux", As: "f"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mv, err = db.CreateView(def, StrategyReassign, nil); err != nil {
		t.Fatal(err)
	}
	return mv, sa, sb
}

func TestFacadeTwoArrayView(t *testing.T) {
	mv, sa, sb := crossmatchView(t)
	vals, ok, err := mv.Values(Point{3}) // matches radio 4
	if err != nil || !ok || vals[0] != 1 || vals[1] != 8 {
		t.Fatalf("crossmatch[3] = %v ok=%v err=%v, want [1 8]", vals, ok, err)
	}
	// Insert into both sides simultaneously.
	dA := NewArray(sa)
	_ = dA.Set(Point{24}, Tuple{24})
	dB := NewArray(sb)
	_ = dB.Set(Point{22}, Tuple{44})
	if _, err := mv.Update2(dA, dB); err != nil {
		t.Fatal(err)
	}
	// New optical 24 matches radio 22 (|2|) and 25 (|1|); optical 20
	// gains radio 22.
	vals, _, _ = mv.Values(Point{24})
	if vals[0] != 2 || vals[1] != 44+50 {
		t.Errorf("crossmatch[24] = %v, want [2 94]", vals)
	}
	vals, _, _ = mv.Values(Point{20})
	if vals[0] != 1 || vals[1] != 44 {
		t.Errorf("crossmatch[20] = %v, want [1 44]", vals)
	}
	// Two-array views don't take self-join deletes (nor Δ-shape queries:
	// TestFacadeErrors).
	if _, err := mv.Delete(dA); err == nil {
		t.Error("two-array view must reject Delete")
	}
}
