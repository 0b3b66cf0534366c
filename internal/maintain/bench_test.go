package maintain

import (
	"testing"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/view"
	"github.com/arrayview/arrayview/internal/workload"
)

// benchContext stages one PTF-shaped batch and returns a planning context
// (planning only; no execution).
func benchContext(b *testing.B) *Context {
	b.Helper()
	cfg := workload.DefaultPTFConfig()
	cfg.RaRange, cfg.DecRange = 4000, 2000
	cfg.DetectionsPerNight = 800
	cfg.BaseNights, cfg.NumBatches = 2, 1
	data, err := workload.GeneratePTF(cfg, workload.Real)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := cluster.New(8, cluster.WithWorkersPerNode(2))
	if err != nil {
		b.Fatal(err)
	}
	if err := cl.LoadArray(data.Base, &cluster.RoundRobin{}); err != nil {
		b.Fatal(err)
	}
	def, err := workload.PTF5View(data.Schema, 2*cfg.NightLen)
	if err != nil {
		b.Fatal(err)
	}
	if err := BuildView(cl, def, cluster.HashPlacement{}); err != nil {
		b.Fatal(err)
	}
	deltaName := "PTF#bench"
	ds := *data.Schema
	ds.Name = deltaName
	if err := cl.Catalog().Register(&ds); err != nil {
		b.Fatal(err)
	}
	var chunks []*array.Chunk
	data.Batches[0].EachChunk(func(c *array.Chunk) bool {
		chunks = append(chunks, c)
		return true
	})
	if err := cl.StageDelta(deltaName, chunks); err != nil {
		b.Fatal(err)
	}
	gen := &view.UnitGen{Catalog: cl.Catalog(), Def: def,
		BaseAlpha: "PTF", BaseBeta: "PTF", DeltaAlpha: deltaName, DeltaBeta: deltaName}
	units, err := gen.Generate()
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := NewContext(cl, def, units, "PTF", "PTF", deltaName, deltaName, def.Name, nil, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	return ctx
}

func BenchmarkPlanBaseline(b *testing.B)     { benchPlanner(b, Baseline{}) }
func BenchmarkPlanDifferential(b *testing.B) { benchPlanner(b, Differential{}) }
func BenchmarkPlanReassign(b *testing.B)     { benchPlanner(b, Reassign{}) }

func benchPlanner(b *testing.B, p Planner) {
	ctx := benchContext(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := p.Plan(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(plan.JoinSite) != len(ctx.Units) {
			b.Fatal("incomplete plan")
		}
	}
	b.ReportMetric(float64(len(ctx.Units)), "units")
}

func BenchmarkPlanCharge(b *testing.B) {
	ctx := benchContext(b)
	plan, err := (Reassign{}).Plan(ctx)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if plan.Charge(ctx).Cost() <= 0 {
			b.Fatal("bad cost")
		}
	}
}
