package maintain_test

// Golden plans: a digest of every plan (and its Plan.Charge ledger, to the
// last bit) the three strategies produce over a fixed matrix of scenarios
// and cluster sizes. The planners are randomized greedy passes whose float
// additions are order-sensitive, so any rewrite that claims "bit-identical
// plans" must reproduce this file byte for byte.
//
//	go test ./internal/maintain -run TestGoldenPlans -update
//
// regenerates testdata/plan_golden.txt.

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/bench"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/shape"
	"github.com/arrayview/arrayview/internal/simjoin"
	"github.com/arrayview/arrayview/internal/view"
	"github.com/arrayview/arrayview/internal/workload"
)

var updateGolden = flag.Bool("update", false, "regenerate the golden digests under testdata/")

// recordingPlanner wraps a strategy and digests every plan it returns,
// priced under the very context it was solved in.
type recordingPlanner struct {
	maintain.Planner
	prefix string
	batch  int
	lines  *[]string
}

func (r *recordingPlanner) Plan(ctx *maintain.Context) (*maintain.Plan, error) {
	p, err := r.Planner.Plan(ctx)
	if err != nil {
		return nil, err
	}
	r.batch++
	*r.lines = append(*r.lines, fmt.Sprintf("%s batch=%d units=%d plan=%016x ledger=%016x",
		r.prefix, r.batch, len(ctx.Units), planDigest(p), ledgerDigest(p.Charge(ctx))))
	return p, nil
}

func planDigest(p *maintain.Plan) uint64 {
	h := fnv.New64a()
	num := func(v int) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(int64(v)))
		h.Write(b[:])
	}
	str := func(s string) {
		num(len(s))
		h.Write([]byte(s))
	}
	num(len(p.JoinSite))
	for _, j := range p.JoinSite {
		num(j)
	}
	num(len(p.Transfers))
	for _, t := range p.Transfers {
		str(t.Ref.Array)
		str(string(t.Ref.Key))
		num(t.From)
		num(t.To)
	}
	views := make([]array.ChunkKey, 0, len(p.ViewHome))
	for v := range p.ViewHome {
		views = append(views, v)
	}
	sort.Slice(views, func(i, j int) bool { return views[i] < views[j] })
	num(len(views))
	for _, v := range views {
		str(string(v))
		num(p.ViewHome[v])
	}
	refs := make([]view.ChunkRef, 0, len(p.ArrayRehome))
	for r := range p.ArrayRehome {
		refs = append(refs, r)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].Less(refs[j]) })
	num(len(refs))
	for _, r := range refs {
		str(r.Array)
		str(string(r.Key))
		num(p.ArrayRehome[r])
	}
	return h.Sum64()
}

func ledgerDigest(l *cluster.Ledger) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for k := 0; k < l.NumNodes(); k++ {
		binary.BigEndian.PutUint64(b[:], math.Float64bits(l.Ntwk(k)))
		h.Write(b[:])
		binary.BigEndian.PutUint64(b[:], math.Float64bits(l.CPU(k)))
		h.Write(b[:])
	}
	return h.Sum64()
}

// goldenScenario drives one maintainer through its batches on a cluster of
// the given size.
type goldenScenario struct {
	name string
	run  func(t *testing.T, nodes int, planner maintain.Planner, params maintain.Params)
}

func specScenario(ds bench.Dataset, mode workload.BatchMode, tweak func(*maintain.Params)) func(*testing.T, int, maintain.Planner, maintain.Params) {
	return func(t *testing.T, nodes int, planner maintain.Planner, params maintain.Params) {
		spec := bench.SmallSpec(ds, mode)
		spec.Nodes = nodes
		spec.PTF.NumBatches = 6
		spec.GEO.NumBatches = 6
		if tweak != nil {
			tweak(&params)
		}
		data, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		def, err := spec.ViewFor(data)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := spec.Cluster()
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.LoadArray(data.Base, spec.Placement()); err != nil {
			t.Fatal(err)
		}
		if err := maintain.BuildView(cl, def, spec.Placement()); err != nil {
			t.Fatal(err)
		}
		m, err := maintain.NewMaintainer(cl, def, planner, params)
		if err != nil {
			t.Fatal(err)
		}
		m.SetPlacements(spec.Placement(), spec.Placement())
		if len(data.Batches) < 6 {
			t.Fatalf("%d batches, want >= 6", len(data.Batches))
		}
		for i, b := range data.Batches {
			if _, err := m.ApplyBatch(b); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
		}
	}
}

func fig1Maintainer(t *testing.T, nodes int, planner maintain.Planner, params maintain.Params) *maintain.Maintainer {
	cl, err := cluster.New(nodes, cluster.WithWorkersPerNode(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadArray(maintain.Fig1Array(), &cluster.RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	if err := maintain.BuildView(cl, maintain.Fig1Def(t), &cluster.RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	m, err := maintain.NewMaintainer(cl, maintain.Fig1Def(t), planner, params)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func goldenScenarios() []goldenScenario {
	return []goldenScenario{
		{"fig1", func(t *testing.T, nodes int, planner maintain.Planner, params maintain.Params) {
			m := fig1Maintainer(t, nodes, planner, params)
			if _, err := m.ApplyBatch(maintain.Fig1Delta()); err != nil {
				t.Fatal(err)
			}
		}},
		{"ptf5-real", specScenario(bench.PTF5, workload.Real, nil)},
		{"geo-correlated", specScenario(bench.GEO, workload.Correlated, nil)},
		{"two-array", func(t *testing.T, nodes int, planner maintain.Planner, params maintain.Params) {
			sa := array.MustSchema("X",
				[]array.Dimension{{Name: "i", Start: 1, End: 60, ChunkSize: 4}},
				[]array.Attribute{{Name: "v", Type: array.Float64}})
			sb := array.MustSchema("Y",
				[]array.Dimension{{Name: "i", Start: 1, End: 60, ChunkSize: 5}},
				[]array.Attribute{{Name: "w", Type: array.Float64}})
			def, err := view.NewDefinition("V2", sa, sb,
				simjoin.NewPred(shape.Linf(1, 2), nil),
				[]string{"i"},
				[]view.Aggregate{{Kind: view.Count, As: "c"}, {Kind: view.Sum, Attr: "w", As: "ws"}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			cl, err := cluster.New(nodes, cluster.WithWorkersPerNode(1))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			alpha, beta := array.New(sa), array.New(sb)
			for i := 0; i < 20; i++ {
				_ = alpha.Set(array.Point{1 + rng.Int63n(60)}, array.Tuple{1})
				_ = beta.Set(array.Point{1 + rng.Int63n(60)}, array.Tuple{2})
			}
			if err := cl.LoadArray(alpha, &cluster.RoundRobin{}); err != nil {
				t.Fatal(err)
			}
			if err := cl.LoadArray(beta, &cluster.RoundRobin{}); err != nil {
				t.Fatal(err)
			}
			if err := maintain.BuildView(cl, def, &cluster.RoundRobin{}); err != nil {
				t.Fatal(err)
			}
			m, err := maintain.NewMaintainer(cl, def, planner, params)
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b < 3; b++ {
				dA, dB := array.New(sa), array.New(sb)
				for i := 0; i < 6; i++ {
					p := array.Point{1 + rng.Int63n(60)}
					if _, ok := alpha.Get(p); !ok {
						_ = dA.Set(p, array.Tuple{3})
						_ = alpha.Set(p, array.Tuple{3})
					}
					q := array.Point{1 + rng.Int63n(60)}
					if _, ok := beta.Get(q); !ok {
						_ = dB.Set(q, array.Tuple{4})
						_ = beta.Set(q, array.Tuple{4})
					}
				}
				if _, err := m.ApplyBatch2(dA, dB); err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
			}
		}},
		{"delete", func(t *testing.T, nodes int, planner maintain.Planner, params maintain.Params) {
			m := fig1Maintainer(t, nodes, planner, params)
			grow := array.New(maintain.Fig1Schema())
			_ = grow.Set(array.Point{2, 2}, array.Tuple{7, 7})
			_ = grow.Set(array.Point{2, 3}, array.Tuple{8, 8})
			if _, err := m.ApplyBatch(grow); err != nil {
				t.Fatal(err)
			}
			del := array.New(maintain.Fig1Schema())
			_ = del.Set(array.Point{1, 2}, array.Tuple{2, 5})
			_ = del.Set(array.Point{6, 5}, array.Tuple{4, 3})
			_ = del.Set(array.Point{2, 2}, array.Tuple{7, 7})
			if _, err := m.ApplyDelete(del); err != nil {
				t.Fatal(err)
			}
			if _, err := m.ApplyBatch(maintain.Fig1Delta()); err != nil {
				t.Fatal(err)
			}
		}},
		{"ptf5-cellpruning", specScenario(bench.PTF5, workload.Real, func(p *maintain.Params) { p.CellPruning = true })},
		{"ptf5-sortedpairs", specScenario(bench.PTF5, workload.Real, func(p *maintain.Params) { p.SortedPairOrder = true })},
	}
}

// goldenLines runs the whole matrix: scenario × {3, 8, 16 nodes} ×
// strategy. The 16-node runs turn ParallelCandidates on (16 is the fan-out
// threshold), so they also pin the parallel candidate loop to the serial
// selection rule.
func goldenLines(t *testing.T) []string {
	var lines []string
	for _, sc := range goldenScenarios() {
		for _, nodes := range []int{3, 8, 16} {
			for _, name := range maintain.StrategyNames() {
				params := maintain.DefaultParams()
				params.ParallelCandidates = nodes >= 16
				rec := &recordingPlanner{
					Planner: maintain.Strategies()[name],
					prefix:  fmt.Sprintf("%s/n%d/%s", sc.name, nodes, name),
					lines:   &lines,
				}
				sc.run(t, nodes, rec, params)
				if rec.batch == 0 {
					t.Fatalf("%s: planner never ran", rec.prefix)
				}
			}
		}
	}
	return lines
}

// checkGolden compares lines with the golden file (or rewrites it under
// -update), reporting every differing line by its scenario prefix.
func checkGolden(t *testing.T, path string, lines []string) {
	t.Helper()
	got := []byte(strings.Join(lines, "\n") + "\n")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Errorf("%d golden lines, got %d", len(wantLines), len(lines))
	}
	shown := 0
	for i := 0; i < len(lines) && i < len(wantLines); i++ {
		if lines[i] != wantLines[i] {
			if shown++; shown <= 10 {
				t.Errorf("line %d:\n  got  %s\n  want %s", i+1, lines[i], wantLines[i])
			}
		}
	}
	t.Fatalf("%s: %d lines differ from the golden digests", path, shown)
}

func TestGoldenPlans(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "plan_golden.txt"), goldenLines(t))
}
