package query_test

import (
	"context"
	"testing"

	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/query"
)

// BenchmarkViewAfterCommit times the first answer of the view shape after
// one real maintenance batch commits at SmallSpec, served as the daemon
// serves it: epochs on, the default view cache hooked to publication, and a
// read cache. Iterations alternate between inserting the dataset's first
// batch and retracting it, so each one commits a real one-batch change
// before the timed answer.
func BenchmarkViewAfterCommit(b *testing.B) {
	eng, data := smallEngine(b)
	es := eng.Cluster.Epochs()
	es.Enable()
	f := query.NewFastPath(0, &obs.FastPathCounters{})
	es.OnPublish(f.Views.InvalidateBefore)
	eng.Fast = f
	m, err := maintain.NewMaintainer(eng.Cluster, eng.Def, nil, eng.Params)
	if err != nil {
		b.Fatal(err)
	}
	rc := cluster.NewReadCache(0)
	ctx := context.Background()
	viewShape := eng.Def.Pred.Shape
	// Warm the caches at the first epoch, as a serving daemon would be.
	if _, _, err := eng.AnswerCached(ctx, rc, viewShape, query.Auto); err != nil {
		b.Fatal(err)
	}
	batch := data.Batches[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i%2 == 0 {
			_, err = m.ApplyBatch(batch)
		} else {
			_, err = m.ApplyDelete(batch)
		}
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, _, err := eng.AnswerCached(ctx, rc, viewShape, query.Auto); err != nil {
			b.Fatal(err)
		}
	}
}
