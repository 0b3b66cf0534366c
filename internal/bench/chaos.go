package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/engine"
	"github.com/arrayview/arrayview/internal/storage"
	"github.com/arrayview/arrayview/internal/workload"
)

// ChaosClassResult aggregates one fault class's run of the batch sequence.
type ChaosClassResult struct {
	Class          string
	Batches        int
	Completed      int
	Failed         int
	CompletionRate float64
	// WallSeconds is the measured wall-clock of the maintenance loop;
	// Overhead is WallSeconds relative to the fault-free class — the price
	// of retries, replica reads, and re-planned work under that fault.
	WallSeconds float64
	Overhead    float64
	Faults      cluster.FaultCounts
	// FinalStateOK reports whether the end-of-sequence base and view equal
	// a fault-free replay of exactly the batches that committed — a failed
	// batch that left a hybrid behind, or a committed batch that lost
	// writes, shows up here.
	FinalStateOK bool
}

// ChaosResult is the chaos experiment: the same seeded batch sequence run
// once per injected fault class.
type ChaosResult struct {
	Dataset  Dataset
	Mode     workload.BatchMode
	Strategy string
	Classes  []ChaosClassResult
}

// chaosClass describes one fault class of the experiment matrix.
type chaosClass struct {
	name   string
	inject func(ff *cluster.FaultFabric)
	// blackoutBatch, when >= 0, blacks node 0 out for that batch (0-based)
	// and restores it afterwards.
	blackoutBatch int
}

// Chaos runs the spec's batch sequence once per fault class on a
// fault-injecting fabric and reports completion rate and failover overhead
// per class. Every run sees identical data (same seed); faults are seeded
// too, so the whole experiment is reproducible.
func Chaos(w io.Writer, spec Spec) (*ChaosResult, error) {
	const strategy = "reassign"
	classes := []chaosClass{
		{name: "fault-free", blackoutBatch: -1},
		{name: "latency", blackoutBatch: -1, inject: func(ff *cluster.FaultFabric) {
			ff.Inject(&cluster.FaultRule{Node: cluster.AnyNode, Op: cluster.AnyOp,
				Kind: cluster.FaultLatency, Latency: 200 * time.Microsecond, P: 0.2})
		}},
		{name: "ack-loss", blackoutBatch: -1, inject: func(ff *cluster.FaultFabric) {
			ff.Inject(&cluster.FaultRule{Node: cluster.AnyNode, Op: "Put",
				Kind: cluster.FaultDropAfterWrite, P: 0.05})
		}},
		{name: "node-errors", blackoutBatch: -1, inject: func(ff *cluster.FaultFabric) {
			// A bursty episode of failed reads on one node, then recovery.
			ff.Inject(&cluster.FaultRule{Node: 0, Op: "Get",
				Kind: cluster.FaultError, P: 0.5, Count: 40})
		}},
		{name: "blackout", blackoutBatch: 1},
	}

	res := &ChaosResult{Dataset: spec.Dataset, Mode: spec.Mode, Strategy: strategy}
	fmt.Fprintf(w, "Chaos: %s/%s, %d nodes, strategy %s\n", spec.Dataset, spec.Mode, spec.Nodes, strategy)
	fmt.Fprintf(w, "%-12s %8s %10s %10s %10s %8s %6s\n",
		"class", "batches", "completed", "rate", "wall(s)", "overhead", "state")
	var baseWall float64
	for _, cc := range classes {
		r, err := runChaosClass(spec, strategy, cc)
		if err != nil {
			return nil, fmt.Errorf("bench: chaos class %s: %w", cc.name, err)
		}
		if cc.name == "fault-free" {
			baseWall = r.WallSeconds
		}
		if baseWall > 0 {
			r.Overhead = r.WallSeconds / baseWall
		}
		res.Classes = append(res.Classes, *r)
		fmt.Fprintf(w, "%-12s %8d %10d %9.0f%% %10.3f %7.2fx %6s\n",
			r.Class, r.Batches, r.Completed, r.CompletionRate*100, r.WallSeconds, r.Overhead, okFail(r.FinalStateOK))
	}
	return res, nil
}

// runChaosClass runs the full batch sequence under one fault class.
func runChaosClass(spec Spec, strategy string, cc chaosClass) (*ChaosClassResult, error) {
	data, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	ff := cluster.NewFaultFabric(localFabric(spec.Nodes), 1)
	h, err := spec.Open(data, func(c *engine.Config) { c.Strategy, c.Fabric = strategy, ff.AsFabric() })
	if err != nil {
		return nil, err
	}
	defer h.Close()
	cl, def := h.Cluster(), h.Def()

	if cc.inject != nil {
		cc.inject(ff)
	}
	r := &ChaosClassResult{Class: cc.name, Batches: len(data.Batches)}
	var committed []int
	start := time.Now()
	for i, batch := range data.Batches {
		// Re-replicate before every batch: cleanup scrubs the scratch
		// replicas, and failover needs somewhere to go.
		replicateOnce(cl, def.Alpha.Name)
		replicateOnce(cl, def.Name)
		if cc.blackoutBatch == i {
			ff.Blackout(0)
		}
		_, err := h.Maintainer().ApplyBatch(batch)
		if cc.blackoutBatch == i {
			ff.Restore(0)
		}
		if err != nil {
			r.Failed++
			continue
		}
		r.Completed++
		committed = append(committed, i)
	}
	r.WallSeconds = time.Since(start).Seconds()
	if r.Batches > 0 {
		r.CompletionRate = float64(r.Completed) / float64(r.Batches)
	}
	r.Faults = ff.FaultCounts()

	// The chaos contract: the surviving state must equal a fault-free
	// replay of exactly the batches that committed — failed batches rolled
	// back completely, committed ones lost nothing. (Not Handle.Verify: the
	// correlated and periodic sequences replay cells, and a view maintained
	// under replays is not the materialization of its base.)
	ff.ClearRules()
	got, err := stateOf(h)
	if err != nil {
		return nil, err
	}
	want, err := replayClean(spec, strategy, data, committed)
	if err != nil {
		return nil, err
	}
	r.FinalStateOK = got.equal(want)
	return r, nil
}

// localFabric is the in-process fabric over n fresh stores, for a ladder that
// dresses it (fault injection, stripped capabilities) before a cluster is
// built on it.
func localFabric(n int) *cluster.LocalFabric {
	stores := make([]*storage.Store, n)
	for i := range stores {
		stores[i] = storage.NewStore()
	}
	return cluster.NewLocalFabric(stores)
}

// endState is a system's base and view, gathered.
type endState struct{ base, view *array.Array }

func stateOf(h *engine.Handle) (endState, error) {
	base, err := h.Cluster().Gather(h.Def().Alpha.Name)
	if err != nil {
		return endState{}, err
	}
	vw, err := h.Cluster().Gather(h.Def().Name)
	return endState{base, vw}, err
}

// equal compares two end states modulo zero-state cells.
func (s endState) equal(o endState) bool {
	return s.base.EqualStates(o.base) && s.view.EqualStates(o.view)
}

// replayClean applies the given batches (by index) on a fresh fault-free
// system and returns its end state.
func replayClean(spec Spec, strategy string, data *workload.Dataset, batches []int) (endState, error) {
	h, err := spec.Open(data, func(c *engine.Config) { c.Strategy = strategy })
	if err != nil {
		return endState{}, err
	}
	defer h.Close()
	for _, i := range batches {
		if _, err := h.Maintainer().ApplyBatch(data.Batches[i]); err != nil {
			return endState{}, fmt.Errorf("clean replay of batch %d: %w", i, err)
		}
	}
	return stateOf(h)
}

// replicateOnce best-effort ships one replica of each chunk of the array
// to the next node over; errors are ignored (a dead node just means no
// replica lands there this round).
func replicateOnce(cl *cluster.Cluster, name string) {
	cat := cl.Catalog()
	n := cl.NumNodes()
	if n < 2 {
		return
	}
	for _, key := range cat.Keys(name) {
		home, ok := cat.Home(name, key)
		if !ok {
			continue
		}
		_ = cl.Transfer(nil, name, key, home, (home+1)%n)
	}
}
