package bench

import (
	"fmt"
	"io"
	"text/tabwriter"

	"github.com/arrayview/arrayview/internal/engine"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/shape"
	"github.com/arrayview/arrayview/internal/workload"
)

// Fig3Result is one panel of Figure 3: per-batch maintenance time for the
// three strategies on one dataset and batch mode.
type Fig3Result struct {
	Spec    Spec
	Results map[string]*SeqResult
}

// Fig3 runs one Figure 3 panel and prints the per-batch series.
func Fig3(w io.Writer, spec Spec) (*Fig3Result, error) {
	results, err := RunAllStrategies(spec)
	if err != nil {
		return nil, err
	}
	out := &Fig3Result{Spec: spec, Results: results}
	fmt.Fprintf(w, "Figure 3 — view maintenance time per update batch: %s / %s\n", spec.Dataset, spec.Mode)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "batch\tbaseline (s)\tdifferential (s)\treassign (s)\tunits\n")
	n := len(results["baseline"].Batches)
	for i := 0; i < n; i++ {
		fmt.Fprintf(tw, "%d\t%.4f\t%.4f\t%.4f\t%d\n", i+1,
			results["baseline"].Batches[i].Maintenance,
			results["differential"].Batches[i].Maintenance,
			results["reassign"].Batches[i].Maintenance,
			results["baseline"].Batches[i].Units)
	}
	tw.Flush()
	return out, nil
}

// Fig5 prints the average optimization time per batch (Figure 5). The
// baseline's optimization time is triple generation alone; differential
// adds Algorithm 1; reassign adds Algorithms 2 and 3.
func Fig5(w io.Writer, spec Spec) (*Fig3Result, error) {
	results, err := RunAllStrategies(spec)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Figure 5 — average optimization time per batch: %s / %s\n", spec.Dataset, spec.Mode)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "strategy\toptimization (s)\ttriple gen (s)\n")
	for _, name := range maintain.StrategyNames() {
		r := results[name]
		opt := r.AvgOptimization()
		if name == "baseline" {
			opt = r.AvgTripleGen() // the baseline only generates triples
		}
		fmt.Fprintf(tw, "%s\t%.6f\t%.6f\n", name, opt, r.AvgTripleGen())
	}
	tw.Flush()
	return &Fig3Result{Spec: spec, Results: results}, nil
}

// Fig9 prints the overall time (optimization + maintenance) across the
// batch sequence (Appendix C.1).
func Fig9(w io.Writer, spec Spec) (*Fig3Result, error) {
	results, err := RunAllStrategies(spec)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "Figure 9 — overall time (optimization + maintenance): %s / %s\n", spec.Dataset, spec.Mode)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "strategy\ttotal (s)\tmaintenance (s)\toptimization (s)\n")
	for _, name := range maintain.StrategyNames() {
		r := results[name]
		opt := r.TotalOptimization()
		if name == "baseline" {
			opt = r.AvgTripleGen() * float64(len(r.Batches))
		}
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%.6f\n", name, r.TotalMaintenance()+opt, r.TotalMaintenance(), opt)
	}
	tw.Flush()
	return &Fig3Result{Spec: spec, Results: results}, nil
}

// Fig6Row is one bar pair of Figure 6: a query shape answered from a view
// with a different shape.
type Fig6Row struct {
	Name            string
	CompleteSeconds float64
	ViewSeconds     float64
	DeltaCard       int64
	QueryCard       int64
	ChoseView       bool
}

// Fig6Pairs returns the paper's four (query ← view) shape pairs, as 2-D
// cross-sections that get embedded over the time window.
func Fig6Pairs() []struct {
	Name        string
	Query, View *shape.Shape
} {
	return []struct {
		Name        string
		Query, View *shape.Shape
	}{
		{"L1(3)<-Linf(2)", shape.L1(2, 3), shape.Linf(2, 2)},
		{"L2(2)<-Linf(2)", shape.L2(2, 2), shape.Linf(2, 2)},
		{"Linf(1)<-L1(1)", shape.Linf(2, 1), shape.L1(2, 1)},
		{"Linf(1)<-Linf(2)", shape.Linf(2, 1), shape.Linf(2, 2)},
	}
}

// Fig6 reproduces the query-integration experiment: for each shape pair,
// answer the query from scratch and from the view, reporting both
// execution costs. The view wins exactly when |Δ|/|query| < 1.
func Fig6(w io.Writer, spec Spec) ([]Fig6Row, error) {
	if spec.Dataset == GEO {
		return nil, fmt.Errorf("bench: Figure 6 runs on the PTF dataset")
	}
	var rows []Fig6Row
	for _, pair := range Fig6Pairs() {
		row, err := fig6Row(spec, pair.Name, pair.Query, pair.View)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	fmt.Fprintf(w, "Figure 6 — differential query vs. complete similarity join (PTF)\n")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "query<-view\tcomplete (s)\tview (s)\t|Δ|/|query|\tcost model picks\n")
	for _, r := range rows {
		pick := "complete"
		if r.ChoseView {
			pick = "view"
		}
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%d/%d\t%s\n",
			r.Name, r.CompleteSeconds, r.ViewSeconds, r.DeltaCard, r.QueryCard, pick)
	}
	tw.Flush()
	return rows, nil
}

// fig6Row prices one query shape both ways over a view of the other shape:
// the Eq. 3 costs of the differential and the complete plan.
func fig6Row(spec Spec, name string, query2d, view2d *shape.Shape) (Fig6Row, error) {
	data, err := workload.GeneratePTF(spec.PTF, spec.Mode)
	if err != nil {
		return Fig6Row{}, err
	}
	window := map[int][2]int64{0: {-spec.PTF5Window, 0}}
	viewShape, err := shape.Embed(view2d, 3, []int{1, 2}, window)
	if err != nil {
		return Fig6Row{}, err
	}
	queryShape, err := shape.Embed(query2d, 3, []int{1, 2}, window)
	if err != nil {
		return Fig6Row{}, err
	}
	def, err := workload.CountView("V", data.Schema, viewShape)
	if err != nil {
		return Fig6Row{}, err
	}
	h, err := spec.Open(data, func(c *engine.Config) { c.Def = def })
	if err != nil {
		return Fig6Row{}, err
	}
	defer h.Close()
	choice, err := h.Query().Decide(queryShape)
	if err != nil {
		return Fig6Row{}, err
	}
	return Fig6Row{
		Name:            name,
		CompleteSeconds: choice.CompleteCost,
		ViewSeconds:     choice.ViewCost,
		DeltaCard:       choice.DeltaCard,
		QueryCard:       choice.QueryCard,
		ChoseView:       choice.UseView,
	}, nil
}

// Fig10aRow is one point of the batch-size sensitivity sweep.
type Fig10aRow struct {
	Detections  int
	DeltaChunks int
	Maintenance map[string]float64
}

// Fig10a reproduces Appendix C.2: batches with exponentially increasing
// size fed in order; per-batch maintenance time per strategy.
func Fig10a(w io.Writer, spec Spec, sizes []int) ([]Fig10aRow, error) {
	if len(sizes) == 0 {
		sizes = []int{50, 100, 200, 400, 800, 1600}
	}
	rows := make([]Fig10aRow, len(sizes))
	for i, s := range sizes {
		rows[i] = Fig10aRow{Detections: s, Maintenance: make(map[string]float64)}
	}
	for _, name := range maintain.StrategyNames() {
		data, err := workload.GeneratePTFSizes(spec.PTF, sizes)
		if err != nil {
			return nil, err
		}
		res, err := runBatches(spec, name, data, false)
		if err != nil {
			return nil, err
		}
		for i, b := range res.Batches {
			rows[i].Maintenance[name] = b.Maintenance
			rows[i].DeltaChunks = data.Batches[i].NumChunks()
		}
	}
	fmt.Fprintf(w, "Figure 10a — sensitivity to batch size (%s, real updates)\n", spec.Dataset)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "detections\tchunks\tbaseline (s)\tdifferential (s)\treassign (s)\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%.4f\t%.4f\t%.4f\n", r.Detections, r.DeltaChunks,
			r.Maintenance["baseline"], r.Maintenance["differential"], r.Maintenance["reassign"])
	}
	tw.Flush()
	return rows, nil
}

// Fig10bRow is one point of the batch-count sensitivity sweep.
type Fig10bRow struct {
	NumBatches  int
	Maintenance map[string]float64
}

// Fig10b reproduces Appendix C.3: a fixed update workload divided into a
// varying number of batches; total maintenance time per strategy.
func Fig10b(w io.Writer, spec Spec, totalDetections int, counts []int) ([]Fig10bRow, error) {
	if len(counts) == 0 {
		counts = []int{1, 2, 5, 10, 20}
	}
	var rows []Fig10bRow
	for _, k := range counts {
		sizes := make([]int, k)
		for i := range sizes {
			sizes[i] = totalDetections / k
		}
		row := Fig10bRow{NumBatches: k, Maintenance: make(map[string]float64)}
		for _, name := range maintain.StrategyNames() {
			data, err := workload.GeneratePTFSizes(spec.PTF, sizes)
			if err != nil {
				return nil, err
			}
			res, err := runBatches(spec, name, data, false)
			if err != nil {
				return nil, err
			}
			row.Maintenance[name] = res.TotalMaintenance()
		}
		rows = append(rows, row)
	}
	fmt.Fprintf(w, "Figure 10b — sensitivity to number of batches (%s, %d detections total)\n", spec.Dataset, totalDetections)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "#batches\tbaseline (s)\tdifferential (s)\treassign (s)\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.4f\t%.4f\t%.4f\n", r.NumBatches,
			r.Maintenance["baseline"], r.Maintenance["differential"], r.Maintenance["reassign"])
	}
	tw.Flush()
	return rows, nil
}

// Fig10cRow is one point of the update-spread sensitivity sweep.
type Fig10cRow struct {
	Spread      float64
	Maintenance map[string]float64
}

// Fig10c reproduces Appendix C.4: the spatial spread of updates varies
// while batch count and size stay fixed; total maintenance time per
// strategy. Larger spread means less sharing and longer maintenance.
func Fig10c(w io.Writer, spec Spec, spreads []float64) ([]Fig10cRow, error) {
	if len(spreads) == 0 {
		spreads = []float64{0.1, 0.2, 0.8}
	}
	// As in the paper, the number of sampled chunks per batch is fixed
	// while their spatial dispersion varies. The hash layout isolates the
	// sharing effect: wider spread means fewer deltas per base chunk, so
	// less shared computation and communication; under the
	// space-partitioned layout the trend inverts because a narrow spread
	// concentrates the whole batch on one band's node.
	spec.HashLayout = true
	spec.PTF.BaseNights = 4 // four slabs of dense background catalog
	numChunks := spec.PTF.DetectionsPerNight / 5
	if numChunks < 20 {
		numChunks = 20
	}
	var rows []Fig10cRow
	for _, sp := range spreads {
		row := Fig10cRow{Spread: sp, Maintenance: make(map[string]float64)}
		for _, name := range maintain.StrategyNames() {
			data, err := workload.GeneratePTFSpread(spec.PTF, numChunks, 5, sp)
			if err != nil {
				return nil, err
			}
			res, err := runBatches(spec, name, data, false)
			if err != nil {
				return nil, err
			}
			row.Maintenance[name] = res.TotalMaintenance()
		}
		rows = append(rows, row)
	}
	fmt.Fprintf(w, "Figure 10c — sensitivity to update spread (%s)\n", spec.Dataset)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "spread\tbaseline (s)\tdifferential (s)\treassign (s)\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.2f\t%.4f\t%.4f\t%.4f\n", r.Spread,
			r.Maintenance["baseline"], r.Maintenance["differential"], r.Maintenance["reassign"])
	}
	tw.Flush()
	return rows, nil
}

// ScalingRow is one point of the cluster-size scaling experiment — the
// paper's future-work direction ("in the case of a large cluster with
// thousands of nodes N, solutions to accelerate this algorithm include the
// parallel processing of the inner loop over the nodes").
type ScalingRow struct {
	Nodes        int
	Maintenance  map[string]float64
	Optimization map[string]float64
}

// Scaling sweeps the worker count for a fixed workload, reporting total
// maintenance (simulated) and average optimization time (measured) per
// strategy. Parallel candidate evaluation kicks in automatically on 16+
// nodes.
func Scaling(w io.Writer, spec Spec, nodeCounts []int) ([]ScalingRow, error) {
	if len(nodeCounts) == 0 {
		nodeCounts = []int{2, 4, 8, 16, 32}
	}
	var rows []ScalingRow
	for _, n := range nodeCounts {
		s := spec
		s.Nodes = n
		s.Params.ParallelCandidates = true
		row := ScalingRow{
			Nodes:        n,
			Maintenance:  make(map[string]float64),
			Optimization: make(map[string]float64),
		}
		for _, name := range maintain.StrategyNames() {
			res, err := RunSequence(s, name)
			if err != nil {
				return nil, err
			}
			row.Maintenance[name] = res.TotalMaintenance()
			row.Optimization[name] = res.AvgOptimization()
		}
		rows = append(rows, row)
	}
	fmt.Fprintf(w, "Scaling — cluster size sweep: %s / %s\n", spec.Dataset, spec.Mode)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "nodes\tbaseline (s)\tdifferential (s)\treassign (s)\treassign opt (s)\n")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.4f\t%.4f\t%.4f\t%.4f\n", r.Nodes,
			r.Maintenance["baseline"], r.Maintenance["differential"],
			r.Maintenance["reassign"], r.Optimization["reassign"])
	}
	tw.Flush()
	return rows, nil
}
