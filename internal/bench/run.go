package bench

import (
	"fmt"

	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/engine"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/workload"
)

// BatchResult is the outcome of maintaining one batch.
type BatchResult struct {
	Batch        int
	Maintenance  float64 // simulated seconds (Eq. 1 plan cost)
	Optimization float64 // measured seconds (triple gen + planning)
	TripleGen    float64 // measured seconds (triple gen only)
	Exec         float64 // measured seconds (plan execution on the fabric)
	Units        int
	Triples      int
	Transfers    int
	// Phases breaks Exec down by pipeline phase (transfer, view-move,
	// join, merge, catalog-refresh, ingest, cleanup); NodeTasks is the
	// per-node join-task busy time. Both come from the batch's obs.Trace.
	Phases    []obs.PhaseTiming
	NodeTasks []obs.NodeTiming
}

// SeqResult is a full batch sequence under one strategy.
type SeqResult struct {
	Spec     Spec
	Strategy string
	Batches  []BatchResult
	// Fabric is the end-of-sequence per-node fabric snapshot: storage
	// footprint plus cumulative data-plane counters (bytes, frames,
	// retries on a network fabric; operation/payload counts locally).
	Fabric []cluster.FabricStats
}

// TotalMaintenance sums the per-batch maintenance times.
func (r *SeqResult) TotalMaintenance() float64 {
	t := 0.0
	for _, b := range r.Batches {
		t += b.Maintenance
	}
	return t
}

// TotalOptimization sums the per-batch optimization times.
func (r *SeqResult) TotalOptimization() float64 {
	t := 0.0
	for _, b := range r.Batches {
		t += b.Optimization
	}
	return t
}

// AvgOptimization is the Figure 5 quantity.
func (r *SeqResult) AvgOptimization() float64 {
	if len(r.Batches) == 0 {
		return 0
	}
	return r.TotalOptimization() / float64(len(r.Batches))
}

// AvgTripleGen averages the triple-generation share (the "baseline"
// optimization time of Figure 5).
func (r *SeqResult) AvgTripleGen() float64 {
	if len(r.Batches) == 0 {
		return 0
	}
	t := 0.0
	for _, b := range r.Batches {
		t += b.TripleGen
	}
	return t / float64(len(r.Batches))
}

// RunSequence generates the spec's dataset fresh (seeded, so identical
// across strategies), loads base and view, and applies every batch with
// the named strategy.
func RunSequence(spec Spec, strategy string) (*SeqResult, error) {
	data, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	return runBatches(spec, strategy, data, false)
}

// runBatches drives a pre-generated dataset through eager maintenance with
// the named strategy: on the in-process fabric, or with tcp on a fresh set
// of loopback node daemons.
func runBatches(spec Spec, strategy string, data *workload.Dataset, tcp bool) (*SeqResult, error) {
	h, err := spec.Open(data, func(c *engine.Config) { c.Strategy, c.Distributed = strategy, tcp })
	if err != nil {
		return nil, err
	}
	defer h.Close()
	res := &SeqResult{Spec: spec, Strategy: strategy}
	for i, batch := range data.Batches {
		rep, err := h.Maintainer().ApplyBatch(batch)
		if err != nil {
			return nil, fmt.Errorf("bench: %s batch %d: %w", strategy, i, err)
		}
		res.Batches = append(res.Batches, BatchResult{
			Batch:        i + 1,
			Maintenance:  rep.MaintenanceSeconds,
			Optimization: rep.OptimizationSeconds,
			TripleGen:    rep.TripleGenSeconds,
			Exec:         rep.ExecSeconds,
			Units:        rep.NumUnits,
			Triples:      rep.NumTriples,
			Transfers:    rep.NumTransfers,
			Phases:       rep.Trace.Phases(),
			NodeTasks:    rep.Trace.Nodes(),
		})
	}
	cl := h.Cluster()
	for node := 0; node < cl.NumNodes(); node++ {
		st, err := cl.Fabric().Stats(node)
		if err != nil {
			return nil, fmt.Errorf("bench: fabric stats for node %d: %w", node, err)
		}
		res.Fabric = append(res.Fabric, st)
	}
	return res, nil
}

// RunAllStrategies runs the spec once per built-in strategy over identical
// data.
func RunAllStrategies(spec Spec) (map[string]*SeqResult, error) {
	out := make(map[string]*SeqResult)
	for _, name := range maintain.StrategyNames() {
		r, err := RunSequence(spec, name)
		if err != nil {
			return nil, err
		}
		out[name] = r
	}
	return out, nil
}
