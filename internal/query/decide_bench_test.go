package query_test

import (
	"context"
	"testing"

	"github.com/arrayview/arrayview/internal/bench"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/query"
	"github.com/arrayview/arrayview/internal/workload"
)

// smallEngine builds the SmallSpec PTF-5 cluster with its view and an
// engine over it, no fast path attached, and returns the generated dataset.
func smallEngine(b *testing.B) (*query.Engine, *workload.Dataset) {
	b.Helper()
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
	return eng, data
}

// BenchmarkDecideCold times one uncached Auto decision at SmallSpec with no
// fast path attached: the Δ decomposition, then the Δ and query chunk-pair
// enumerations on a fresh snapshot and their Eq. 3 sums — what a never-seen
// query shape pays before its answer starts.
func BenchmarkDecideCold(b *testing.B) {
	eng, _ := smallEngine(b)
	qs, err := coldShape(eng.Def.Pred.Shape.NumDims(), 7)
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

// BenchmarkAnswerCold times whole Auto answers of never-repeating cold
// shapes at SmallSpec, served as the daemon serves them: epochs on, a fast
// path with the default view cache, and a read cache.
func BenchmarkAnswerCold(b *testing.B) {
	eng, _ := smallEngine(b)
	es := eng.Cluster.Epochs()
	es.Enable()
	f := query.NewFastPath(0, &obs.FastPathCounters{})
	es.OnPublish(f.Views.InvalidateBefore)
	eng.Fast = f
	rc := cluster.NewReadCache(0)
	dims := eng.Def.Pred.Shape.NumDims()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		qs, err := coldShape(dims, i%625)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, err := eng.AnswerCached(ctx, rc, qs, query.Auto); err != nil {
			b.Fatal(err)
		}
	}
}
