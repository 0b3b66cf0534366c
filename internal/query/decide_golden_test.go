package query_test

// Golden decisions: the Eq. 3 verdict and both plan costs, to the last bit,
// for the query shapes of internal/bench/servemix.go over the SmallSpec
// PTF-5 cluster — at the static layout and again after reassign has moved
// chunks. Each Auto decision runs six greedy solves, so a planner rewrite
// that claims bit-identical plans must reproduce this file byte for byte.
//
//	go test ./internal/query -run TestGoldenDecisions -update

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/arrayview/arrayview/internal/bench"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/query"
	"github.com/arrayview/arrayview/internal/shape"
	"github.com/arrayview/arrayview/internal/workload"
)

var updateGolden = flag.Bool("update", false, "regenerate the golden digests under testdata/")

// coldShape mirrors servemix.go's mixColdShape: a unit cross plus two extra
// symmetric offset pairs drawn from a 5x5 grid.
func coldShape(dims, c int) (*shape.Shape, error) {
	offs := [][]int64{make([]int64, dims)}
	for d := 0; d < dims; d++ {
		for _, s := range []int64{1, -1} {
			o := make([]int64, dims)
			o[d] = s
			offs = append(offs, o)
		}
	}
	addPair := func(dx, dy int64) {
		ex := make([]int64, dims)
		ex[0], ex[1] = dx, dy
		neg := make([]int64, dims)
		for d := range ex {
			neg[d] = -ex[d]
		}
		offs = append(offs, ex, neg)
	}
	addPair(int64(1+c%5), int64(1+(c/5)%5))
	addPair(int64(1+(c/25)%5), -int64(1+(c/125)%5))
	return shape.FromOffsets(fmt.Sprintf("cold-%d", c), offs)
}

func TestGoldenDecisions(t *testing.T) {
	spec := bench.SmallSpec(bench.PTF5, workload.Real)
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
	m, err := maintain.NewMaintainer(cl, def, maintain.Reassign{}, spec.Params)
	if err != nil {
		t.Fatal(err)
	}
	m.SetPlacements(spec.Placement(), spec.Placement())
	eng, err := query.NewEngine(cl, def, spec.Params)
	if err != nil {
		t.Fatal(err)
	}

	dims := def.Pred.Shape.NumDims()
	shapes := []*shape.Shape{def.Pred.Shape, shape.Linf(dims, 1), shape.L1(dims, 2)}
	for _, c := range []int{0, 7, 31, 129, 624} {
		cs, err := coldShape(dims, c)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, cs)
	}

	var lines []string
	decideAll := func(stage string) {
		for _, qs := range shapes {
			ch, err := eng.Decide(qs)
			if err != nil {
				t.Fatalf("%s %s: %v", stage, qs.Name(), err)
			}
			lines = append(lines, fmt.Sprintf("%s/%s useView=%v view=%016x complete=%016x delta=%d query=%d",
				stage, qs.Name(), ch.UseView,
				math.Float64bits(ch.ViewCost), math.Float64bits(ch.CompleteCost),
				ch.DeltaCard, ch.QueryCard))
		}
	}
	decideAll("static")
	for i := 0; i < 2; i++ {
		if _, err := m.ApplyBatch(data.Batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	decideAll("reassigned")

	path := filepath.Join("testdata", "decide_golden.txt")
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
	if !bytes.Equal(got, want) {
		wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
		for i := range lines {
			if i >= len(wantLines) || lines[i] != wantLines[i] {
				w := "<missing>"
				if i < len(wantLines) {
					w = wantLines[i]
				}
				t.Errorf("line %d:\n  got  %s\n  want %s", i+1, lines[i], w)
			}
		}
		t.Fatalf("%s: decisions differ from the golden digests", path)
	}
}
