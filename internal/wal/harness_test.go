package wal

import (
	"testing"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/view"
	"github.com/arrayview/arrayview/internal/workload"
)

// The durability tests drive a real (small) maintenance workload over a
// FaultFS and compare recovered state against fault-free replays, the same
// oracle the chaos suite uses for the in-memory commit protocol.

const testNodes = 3

func testConfig() workload.PTFConfig {
	cfg := workload.DefaultPTFConfig()
	cfg.Seed = 7
	cfg.RaRange = 600
	cfg.DecRange = 300
	cfg.BaseNights = 1
	cfg.NumBatches = 4
	cfg.DetectionsPerNight = 50
	cfg.Sigma = 40
	cfg.NumFields = 3
	cfg.FieldsPerNight = 2
	return cfg
}

func testPlacement() cluster.Placement {
	return cluster.RangePlacement{Dim: 1, NumChunks: (testConfig().RaRange + 99) / 100}
}

func testData(t testing.TB) (*workload.Dataset, *view.Definition) {
	t.Helper()
	cfg := testConfig()
	data, err := workload.GeneratePTF(cfg, workload.Real)
	if err != nil {
		t.Fatal(err)
	}
	def, err := workload.PTF5View(data.Schema, 2*cfg.NightLen)
	if err != nil {
		t.Fatal(err)
	}
	return data, def
}

// buildCluster loads the base array and materializes the view on a fresh
// default (in-process stores) cluster.
func buildCluster(t testing.TB, data *workload.Dataset, def *view.Definition) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(testNodes, cluster.WithWorkersPerNode(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadArray(data.Base, testPlacement()); err != nil {
		t.Fatal(err)
	}
	if err := maintain.BuildView(cl, def, testPlacement()); err != nil {
		t.Fatal(err)
	}
	return cl
}

func newMaintainer(t testing.TB, cl *cluster.Cluster, def *view.Definition) *maintain.Maintainer {
	t.Helper()
	m, err := maintain.NewMaintainer(cl, def, maintain.Strategies()["reassign"], maintain.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	m.SetPlacements(testPlacement(), testPlacement())
	return m
}

// cleanReplay applies the first n batches on a fresh fault-free cluster
// and returns the gathered base and view.
func cleanReplay(t *testing.T, data *workload.Dataset, def *view.Definition, n int) (*array.Array, *array.Array) {
	t.Helper()
	cl := buildCluster(t, data, def)
	m := newMaintainer(t, cl, def)
	for i := 0; i < n; i++ {
		if _, err := m.ApplyBatch(data.Batches[i]); err != nil {
			t.Fatalf("clean replay of batch %d: %v", i, err)
		}
	}
	return gatherState(t, cl, def)
}

func gatherState(t *testing.T, cl *cluster.Cluster, def *view.Definition) (*array.Array, *array.Array) {
	t.Helper()
	base, err := cl.Gather(def.Alpha.Name)
	if err != nil {
		t.Fatalf("gather %s: %v", def.Alpha.Name, err)
	}
	vw, err := cl.Gather(def.Name)
	if err != nil {
		t.Fatalf("gather %s: %v", def.Name, err)
	}
	return base, vw
}

// arrayPair bundles a gathered base and view.
type arrayPair struct{ base, view *array.Array }

// sameArray reports cell-exact equality.
func sameArray(a, b *array.Array) bool {
	if a.NumCells() != b.NumCells() {
		return false
	}
	same := true
	a.EachCell(func(p array.Point, tup array.Tuple) bool {
		got, ok := b.Get(p)
		if !ok || len(got) != len(tup) {
			same = false
			return false
		}
		for i := range tup {
			if got[i] != tup[i] {
				same = false
				return false
			}
		}
		return true
	})
	return same
}
