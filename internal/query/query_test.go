package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/shape"
	"github.com/arrayview/arrayview/internal/simjoin"
	"github.com/arrayview/arrayview/internal/view"
)

// setup builds a 3-node cluster with a random sparse 2-D array and an
// L∞(1)-count view over it (the GEO-style configuration).
func setup(t *testing.T, seed int64, viewShape *shape.Shape) (*Engine, *array.Array) {
	t.Helper()
	schema := array.MustSchema("A",
		[]array.Dimension{
			{Name: "x", Start: 0, End: 39, ChunkSize: 5},
			{Name: "y", Start: 0, End: 39, ChunkSize: 5},
		},
		[]array.Attribute{{Name: "v", Type: array.Float64}})
	rng := rand.New(rand.NewSource(seed))
	base := array.New(schema)
	for i := 0; i < 150; i++ {
		_ = base.Set(array.Point{rng.Int63n(40), rng.Int63n(40)}, array.Tuple{float64(rng.Intn(5) + 1)})
	}
	cl, err := cluster.New(3, cluster.WithWorkersPerNode(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadArray(base, &cluster.RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	def, err := view.NewDefinition("V", schema, schema,
		simjoin.NewPred(viewShape, nil),
		[]string{"x", "y"},
		[]view.Aggregate{{Kind: view.Count, As: "cnt"}, {Kind: view.Sum, Attr: "v", As: "vs"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := maintain.BuildView(cl, def, &cluster.RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cl, def, maintain.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return eng, base
}

// reference computes the query aggregate locally.
func reference(t *testing.T, eng *Engine, base *array.Array, queryShape *shape.Shape) *array.Array {
	t.Helper()
	def, err := view.NewDefinition("ref", eng.Def.Alpha, eng.Def.Beta,
		simjoin.NewPred(queryShape, eng.Def.Pred.Mapping),
		eng.Def.GroupBy, eng.Def.Aggs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := view.Materialize(def, base, base)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// statesEqual compares aggregate state arrays, treating absent cells as
// all-zero state.
func statesEqual(a, b *array.Array) bool {
	ok := true
	check := func(x, y *array.Array) {
		x.EachCell(func(p array.Point, tup array.Tuple) bool {
			got, found := y.Get(p)
			if !found {
				for _, v := range tup {
					if v != 0 {
						ok = false
						return false
					}
				}
				return true
			}
			for i := range tup {
				if got[i] != tup[i] {
					ok = false
					return false
				}
			}
			return true
		})
	}
	check(a, b)
	check(b, a)
	return ok
}

func TestQueryBothPathsMatchReference(t *testing.T) {
	cases := []struct {
		name       string
		viewShape  *shape.Shape
		queryShape *shape.Shape
	}{
		{"Linf1<-L1_1", shape.L1(2, 1), shape.Linf(2, 1)},
		{"Linf1<-Linf2", shape.Linf(2, 2), shape.Linf(2, 1)},
		{"L1_3<-Linf2", shape.Linf(2, 2), shape.L1(2, 3)},
		{"L2_2<-Linf2", shape.Linf(2, 2), shape.L2(2, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, base := setup(t, 11, tc.viewShape)
			want := reference(t, eng, base, tc.queryShape)
			for _, mode := range []Mode{ForceView, ForceComplete} {
				res, err := eng.Answer(tc.queryShape, mode)
				if err != nil {
					t.Fatal(err)
				}
				if !statesEqual(res.Array, want) {
					t.Fatalf("mode %v diverges from reference", mode)
				}
			}
		})
	}
}

func TestQueryIdenticalShapeIsFree(t *testing.T) {
	eng, base := setup(t, 5, shape.L1(2, 1))
	res, err := eng.Answer(shape.L1(2, 1), Auto)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Choice.UseView {
		t.Error("identical shape must use the view")
	}
	if res.Choice.DeltaCard != 0 {
		t.Errorf("DeltaCard = %d, want 0", res.Choice.DeltaCard)
	}
	want := reference(t, eng, base, shape.L1(2, 1))
	if !statesEqual(res.Array, want) {
		t.Error("identical-shape answer diverges")
	}
}

func TestQueryCostModelFollowsDeltaRatio(t *testing.T) {
	// Figure 6 / Section 6.4: Δ(L∞(1)←L1(1)) has ratio 4/9 < 1 → the view
	// wins; Δ(L∞(1)←L∞(2)) has ratio 16/9 > 1 → the complete join wins.
	eng1, _ := setup(t, 21, shape.L1(2, 1))
	ch1, err := eng1.Decide(shape.Linf(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(ch1.DeltaCard) / float64(ch1.QueryCard); ratio >= 1 {
		t.Fatalf("ratio = %v, want < 1", ratio)
	}
	if !ch1.UseView {
		t.Errorf("L∞(1)←L1(1): expected the view path (Δ ratio 4/9); costs view=%v complete=%v",
			ch1.ViewCost, ch1.CompleteCost)
	}

	eng2, _ := setup(t, 21, shape.Linf(2, 2))
	ch2, err := eng2.Decide(shape.Linf(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(ch2.DeltaCard) / float64(ch2.QueryCard); ratio <= 1 {
		t.Fatalf("ratio = %v, want > 1", ratio)
	}
	if ch2.UseView {
		t.Errorf("L∞(1)←L∞(2): expected the complete join (Δ ratio 16/9); costs view=%v complete=%v",
			ch2.ViewCost, ch2.CompleteCost)
	}
}

func TestQueryAutoMatchesDecision(t *testing.T) {
	eng, base := setup(t, 31, shape.L1(2, 1))
	q := shape.Linf(2, 1)
	ch, err := eng.Decide(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Answer(q, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Choice.UseView != ch.UseView {
		t.Error("Answer(Auto) must follow Decide")
	}
	want := reference(t, eng, base, q)
	if !statesEqual(res.Array, want) {
		t.Error("auto answer diverges from reference")
	}
}

// storeKeys lists every chunk resident on every node as "node/array/key".
func storeKeys(t *testing.T, cl *cluster.Cluster) []string {
	t.Helper()
	var keys []string
	for node := 0; node < cl.NumNodes(); node++ {
		err := cl.Node(node).Store.EachEncoded(func(name string, key array.ChunkKey, _ []byte, _ uint64) error {
			keys = append(keys, fmt.Sprintf("%d/%s/%s", node, name, key))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(keys)
	return keys
}

// TestQueryLeavesLayoutUntouched: an answer is a pure read under every mode,
// with or without epochs. No scratch array appears, no chunk moves, and a
// cluster whose epochs are off keeps them off without publishing.
func TestQueryLeavesLayoutUntouched(t *testing.T) {
	for _, epochs := range []bool{false, true} {
		for mode, name := range map[Mode]string{Auto: "auto", ForceView: "view", ForceComplete: "complete"} {
			t.Run(fmt.Sprintf("epochs=%v/%s", epochs, name), func(t *testing.T) {
				eng, _ := setup(t, 41, shape.L1(2, 1))
				cl := eng.Cluster
				es := cl.Epochs()
				if epochs {
					es.Enable()
				}
				before, epoch := storeKeys(t, cl), es.Current()
				if _, err := eng.Answer(shape.Linf(2, 1), mode); err != nil {
					t.Fatal(err)
				}
				for _, name := range cl.Catalog().Names() {
					if strings.Contains(name, "#") {
						t.Errorf("query left scratch array %q in the catalog", name)
					}
				}
				if after := storeKeys(t, cl); !slices.Equal(before, after) {
					t.Errorf("query changed the node stores:\nbefore %v\nafter  %v", before, after)
				}
				if !epochs && (es.Enabled() || es.Current() != epoch) {
					t.Errorf("query on an epochs-off cluster: enabled=%v current=%d, want false %d",
						es.Enabled(), es.Current(), epoch)
				}
			})
		}
	}
}

func TestNewEngineValidation(t *testing.T) {
	sa := array.MustSchema("P",
		[]array.Dimension{{Name: "i", Start: 0, End: 9, ChunkSize: 5}},
		[]array.Attribute{{Name: "v", Type: array.Float64}})
	sb := array.MustSchema("Q",
		[]array.Dimension{{Name: "i", Start: 0, End: 9, ChunkSize: 5}},
		[]array.Attribute{{Name: "w", Type: array.Float64}})
	def, err := view.NewDefinition("W", sa, sb,
		simjoin.NewPred(shape.Linf(1, 1), nil),
		[]string{"i"}, []view.Aggregate{{Kind: view.Count, As: "c"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := cluster.New(2)
	if _, err := NewEngine(cl, def, maintain.DefaultParams()); !errors.Is(err, view.ErrSelfJoinOnly) {
		t.Errorf("NewEngine on a two-array view = %v, want ErrSelfJoinOnly", err)
	}
}

// TestDeltaSigns: offsets the query adds count +1, offsets only the view
// has count −1, in both directions of containment.
func TestDeltaSigns(t *testing.T) {
	cross, square := shape.L1(2, 1), shape.Linf(2, 1)
	for _, tc := range []struct {
		view, query *shape.Shape
		want        float64
	}{
		{cross, square, 1},  // L1(1) ⊂ L∞(1): the 4 corners are added
		{square, cross, -1}, // reverse: the 4 corners are view-only
	} {
		delta := shape.Delta(tc.view, tc.query)
		if delta.Card() != 4 {
			t.Fatalf("delta has %d offsets, want the 4 corners", delta.Card())
		}
		ch := Choice{Delta: delta, query: tc.query}
		for _, off := range delta.Offsets() {
			if got := ch.signOf(off); got != tc.want {
				t.Errorf("signOf(%v) = %v, want %v", off, got, tc.want)
			}
		}
	}
}

// choiceBits renders a decision's exported fields, costs to the last bit.
func choiceBits(ch Choice) string {
	return fmt.Sprintf("useView=%v view=%016x complete=%016x delta=%d query=%d",
		ch.UseView, math.Float64bits(ch.ViewCost), math.Float64bits(ch.CompleteCost),
		ch.DeltaCard, ch.QueryCard)
}

// TestQueryDecisionReadsSnapshotEpoch: an Auto decision is priced on the
// snapshot it answers from. A commit that resizes chunks the query's pairs
// read must not move the decision of a still-pinned snapshot, with or
// without the fast path's memos.
func TestQueryDecisionReadsSnapshotEpoch(t *testing.T) {
	eng, _ := setup(t, 17, shape.L1(2, 1))
	cl := eng.Cluster
	cl.Epochs().Enable()
	ctx := context.Background()
	qs := shape.Linf(2, 1)
	snap, err := cl.Epochs().Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	first, err := eng.AnswerSnapshot(ctx, snap, nil, qs, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if first.Choice.CompleteCost <= 0 || first.Choice.ViewCost <= 0 {
		t.Fatalf("unpriced decision: %s", choiceBits(first.Choice))
	}

	m, err := maintain.NewMaintainer(cl, eng.Def, nil, maintain.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	insertBatch(t, m, cl, 0, 6)
	resized := 0
	for _, k := range snap.Keys("A") {
		if _, size, _, _ := snap.ChunkMeta("A", k); cl.Catalog().ChunkSize("A", k) != size {
			resized++
		}
	}
	if resized == 0 {
		t.Fatal("the commit resized no chunk the query reads")
	}

	fast := fastEngine(eng, &obs.FastPathCounters{})
	for i, e := range []*Engine{eng, fast} {
		again, err := e.AnswerSnapshot(ctx, snap, nil, qs, Auto)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := choiceBits(again.Choice), choiceBits(first.Choice); got != want {
			t.Errorf("engine %d (0 cold, 1 fast): decision on the pinned snapshot moved after a commit:\n  got  %s\n  want %s", i, got, want)
		}
	}
}
