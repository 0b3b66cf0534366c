package maintain

// Tests reproducing the worked examples of Appendix B of the paper, with
// the exact arithmetic of Figure 7 (Algorithm 1), Table 2 (Algorithm 2),
// and Figure 8 (Algorithm 3).

import (
	"testing"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/view"
)

// nodes X, Y, Z of the examples map to 0, 1, 2.
const (
	nodeX = 0
	nodeY = 1
	nodeZ = 2
)

// TestAppendixB1DifferentialChoice reproduces Figure 7: when the triple
// (ΔA7, A2, *) is processed with state
//
//	X: ntwk=0 cpu=4, Y: ntwk=4 cpu=2, Z: ntwk=4 cpu=0,
//
// ΔA7 (size 1) on X and A2 (size 1) on Y, Tntwk=4 and Tcpu=1, the
// candidate costs are X:8, Y:4, Z:8 and the join is assigned to Y.
func TestAppendixB1DifferentialChoice(t *testing.T) {
	model := cluster.CostModel{Tntwk: 4, Tcpu: 1}
	cl, err := cluster.New(3, cluster.WithCostModel(model))
	if err != nil {
		t.Fatal(err)
	}
	cat := cl.Catalog()
	schema := array.MustSchema("A",
		[]array.Dimension{{Name: "i", Start: 1, End: 6, ChunkSize: 2}}, nil)
	if err := cat.Register(schema); err != nil {
		t.Fatal(err)
	}
	dschema := *schema
	dschema.Name = "D"
	if err := cat.Register(&dschema); err != nil {
		t.Fatal(err)
	}
	dA7 := view.ChunkRef{Array: "D", Key: array.ChunkCoord{0}.Key()}
	a2 := view.ChunkRef{Array: "A", Key: array.ChunkCoord{1}.Key()}
	cat.SetChunk("D", dA7.Key, nodeX, 1, 1)
	cat.SetChunk("A", a2.Key, nodeY, 1, 1)

	// The figure's walk-through prices only co-location and join CPU, so
	// the unit carries no view targets here (merge terms are exercised by
	// the B2 example).
	unit := view.Unit{P: dA7, Q: a2}
	def := fig1Def(t)
	ctx, err := NewContext(cl, def, []view.Unit{unit}, "A", "A", "D", "D", "V", nil, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}

	ledger := cl.NewLedger()
	ledger.Apply([]float64{0, 4, 4}, []float64{4, 2, 0})
	ix := ctx.index()
	ix.resetHolders()

	dest := ix.chooseJoinSite(ctx, ledger, 0)
	if dest != nodeY {
		t.Fatalf("join assigned to node %d, want Y (%d)", dest, nodeY)
	}
	// Check the three candidate opt_now values the figure reports.
	wantOptNow := map[int]float64{nodeX: 8, nodeY: 4, nodeZ: 8}
	for j, want := range wantOptNow {
		extraNtwk := make([]float64, 3)
		extraCPU := make([]float64, 3)
		ix.addJoinCharges(ctx, 0, j, extraNtwk, extraCPU)
		if got := ledger.CostWith(extraNtwk, extraCPU); got != want {
			t.Errorf("opt_now for node %d = %v, want %v", j, got, want)
		}
	}
	// Committing updates the ledger exactly as the figure's bottom row.
	extraNtwk := make([]float64, 3)
	extraCPU := make([]float64, 3)
	ix.addJoinCharges(ctx, 0, dest, extraNtwk, extraCPU)
	ledger.Apply(extraNtwk, extraCPU)
	if ledger.Ntwk(nodeX) != 4 || ledger.CPU(nodeY) != 4 {
		t.Errorf("after commit: ntwk[X]=%v cpu[Y]=%v, want 4 and 4",
			ledger.Ntwk(nodeX), ledger.CPU(nodeY))
	}
}

// TestAppendixB2ViewChunkChoice reproduces Table 2: with per-node state
// ntwk=(32,36,30), cpu=(36,30,35), joins J1,J2 on X and J3 on Y (B_pq = 1
// each), Tntwk=4 and Tcpu=2, assigning V1 to X/Y/Z costs 42/40/41 and Y
// wins.
func TestAppendixB2ViewChunkChoice(t *testing.T) {
	model := cluster.CostModel{Tntwk: 4, Tcpu: 2}
	ledger := cluster.NewLedger(3, model)
	ledger.Apply([]float64{32, 36, 30}, []float64{36, 30, 35})
	contribs := []viewContrib{
		{site: nodeX, bytes: 1, ship: 1}, // J1: ΔA1 ⋈ A1 on X
		{site: nodeX, bytes: 1, ship: 1}, // J2: ΔA4 ⋈ A1 on X
		{site: nodeY, bytes: 1, ship: 1}, // J3: ΔA2 ⋈ A1 on Y
	}
	wantCosts := map[int]float64{nodeX: 42, nodeY: 40, nodeZ: 41}
	for j, want := range wantCosts {
		extraNtwk := make([]float64, 3)
		extraCPU := make([]float64, 3)
		addViewCharges(extraNtwk, extraCPU, model, contribs, j)
		if got := ledger.CostWith(extraNtwk, extraCPU); got != want {
			t.Errorf("opt_now for V1 at node %d = %v, want %v", j, got, want)
		}
	}
	ix := &planIndex{nodes: 3, extraNtwk: make([]float64, 3), extraCPU: make([]float64, 3)}
	if dest := ix.chooseViewHome(ledger, model, contribs, -1); dest != nodeY {
		t.Errorf("V1 assigned to node %d, want Y (%d)", dest, nodeY)
	}
}

// TestAppendixB3ArrayChunkGreedy reproduces Figure 8: scores (A2,V1)=8,
// (A1,V1)=6, (A1,V2)=4, (A2,V3)=4, (A3,V3)=2; view homes V1→Y, V2→X,
// V3→Z; replicas A1:{X,Z}, A2:{Y,Z}, A3:{Z,Y}; quotas X=4, Y=3, Z=1; all
// chunk sizes 1. Expected assignment: A2→Y, A1→X (skipping V1 because A1
// has no replica on Y), A3→Z.
func TestAppendixB3ArrayChunkGreedy(t *testing.T) {
	ref := func(name string) view.ChunkRef {
		return view.ChunkRef{Array: "A", Key: array.ChunkKey(name)}
	}
	vkey := func(name string) array.ChunkKey { return array.ChunkKey(name) }
	pairs := []scoredPair{
		{ref: ref("A2"), viewKey: vkey("V1"), score: 8},
		{ref: ref("A1"), viewKey: vkey("V1"), score: 6},
		{ref: ref("A1"), viewKey: vkey("V2"), score: 4},
		{ref: ref("A2"), viewKey: vkey("V3"), score: 4},
		{ref: ref("A3"), viewKey: vkey("V3"), score: 2},
	}
	viewHomes := map[array.ChunkKey]int{
		vkey("V1"): nodeY, vkey("V4"): nodeY, vkey("V7"): nodeY,
		vkey("V2"): nodeX, vkey("V6"): nodeX,
		vkey("V3"): nodeZ, vkey("V5"): nodeZ, vkey("V8"): nodeZ,
	}
	replicas := map[view.ChunkRef]map[int]bool{
		ref("A1"): {nodeX: true, nodeZ: true},
		ref("A2"): {nodeY: true, nodeZ: true},
		ref("A3"): {nodeZ: true, nodeY: true},
	}
	quota := []float64{4, 3, 1} // X, Y, Z

	assigned, bestView := greedyCoLocate(pairs, quota,
		func(view.ChunkRef) int64 { return 1 },
		func(v array.ChunkKey) (int, bool) { h, ok := viewHomes[v]; return h, ok },
		func(r view.ChunkRef, j int) bool { return replicas[r][j] },
	)
	want := map[view.ChunkRef]int{
		ref("A2"): nodeY,
		ref("A1"): nodeX,
		ref("A3"): nodeZ,
	}
	for r, node := range want {
		if got, ok := assigned[r]; !ok || got != node {
			t.Errorf("%s assigned to %v (ok=%v), want node %d", r.Key, got, ok, node)
		}
	}
	// Z's quota is exhausted after A3.
	if quota[nodeZ] != 0 {
		t.Errorf("Z quota = %v, want 0", quota[nodeZ])
	}
	// Highest-score view per chunk (the tight-quota fallback input).
	if bestView[ref("A2")] != vkey("V1") || bestView[ref("A1")] != vkey("V1") || bestView[ref("A3")] != vkey("V3") {
		t.Errorf("bestView = %v", bestView)
	}
}

// TestAppendixB3QuotaExhaustion: with zero quota nothing is assigned and
// every chunk keeps its location (Algorithm 3 line 14 / the fallback).
func TestAppendixB3QuotaExhaustion(t *testing.T) {
	pairs := []scoredPair{
		{ref: view.ChunkRef{Array: "A", Key: "A1"}, viewKey: "V1", score: 5},
	}
	assigned, _ := greedyCoLocate(pairs, []float64{0, 0, 0},
		func(view.ChunkRef) int64 { return 1 },
		func(array.ChunkKey) (int, bool) { return nodeX, true },
		func(view.ChunkRef, int) bool { return true },
	)
	if len(assigned) != 0 {
		t.Errorf("zero quota assigned %d chunks, want 0", len(assigned))
	}
}
