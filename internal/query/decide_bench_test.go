package query_test

import (
	"testing"

	"github.com/arrayview/arrayview/internal/bench"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/query"
	"github.com/arrayview/arrayview/internal/workload"
)

// BenchmarkDecideCold times one uncached Auto decision at SmallSpec with no
// fast path attached: the Δ decomposition, two pair enumerations and six
// greedy solves a never-seen query shape pays before its answer starts.
func BenchmarkDecideCold(b *testing.B) {
	spec := bench.SmallSpec(bench.PTF5, workload.Real)
	data, err := spec.Generate()
	if err != nil {
		b.Fatal(err)
	}
	def, err := spec.ViewFor(data)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := spec.Cluster()
	if err != nil {
		b.Fatal(err)
	}
	if err := cl.LoadArray(data.Base, spec.Placement()); err != nil {
		b.Fatal(err)
	}
	if err := maintain.BuildView(cl, def, spec.Placement()); err != nil {
		b.Fatal(err)
	}
	eng, err := query.NewEngine(cl, def, spec.Params)
	if err != nil {
		b.Fatal(err)
	}
	qs, err := coldShape(def.Pred.Shape.NumDims(), 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, err := eng.Decide(qs)
		if err != nil {
			b.Fatal(err)
		}
		if ch.CompleteCost <= 0 {
			b.Fatal("unpriced decision")
		}
	}
}
