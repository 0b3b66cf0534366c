package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/engine"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/query"
	"github.com/arrayview/arrayview/internal/workload"
)

// SkewRung compares all-eager maintenance against the heavy-light adaptive
// maintainer on one pointing distribution of the skew ladder: same data,
// same planner and placements — the only variable is the maintenance
// policy. Correlated and periodic pointings reward the eager path's
// content-addressed join memo (replayed batches re-derive identical join
// state); the skewed pointing rewards deferral of the cold scatter tail;
// the uniform pointing is the no-free-lunch control where the adaptive
// layer must not lose.
type SkewRung struct {
	Mode       string `json:"mode"`
	Fabric     string `json:"fabric"`
	Batches    int    `json:"batches"`
	DeltaCells int    `json:"delta_cells"`

	// Maintenance wall-clock (min over repetitions). The adaptive number
	// includes the final drain of the pending log, so deferred work is
	// charged to the policy that deferred it.
	EagerSeconds    float64 `json:"eager_seconds"`
	AdaptiveSeconds float64 `json:"adaptive_seconds"`
	DrainSeconds    float64 `json:"drain_seconds"`

	EagerPerBatchMillis    float64 `json:"eager_per_batch_millis"`
	AdaptivePerBatchMillis float64 `json:"adaptive_per_batch_millis"`
	// Reduction is 1 - adaptive/eager on the per-batch cost (negative when
	// the adaptive layer loses).
	Reduction float64 `json:"reduction"`

	// Query latency percentiles over bursts issued between batches. The
	// adaptive leg's queries run with the materialize-on-read hook, so its
	// percentiles carry the lazy path's freshness overhead.
	EagerQueryP50Millis float64 `json:"eager_query_p50_millis"`
	EagerQueryP99Millis float64 `json:"eager_query_p99_millis"`
	LazyQueryP50Millis  float64 `json:"lazy_query_p50_millis"`
	LazyQueryP99Millis  float64 `json:"lazy_query_p99_millis"`

	// Adaptive-layer behaviour (from the audited repetition).
	HeavyClasses int                  `json:"heavy_classes"`
	SeenClasses  int                  `json:"seen_classes"`
	Promotions   int64                `json:"promotions"`
	Demotions    int64                `json:"demotions"`
	Pending      cluster.PendingStats `json:"pending"`
	MemoHits     int64                `json:"memo_hits"`
	MemoMisses   int64                `json:"memo_misses"`
	PlanReuses   int64                `json:"plan_reuses"`
	PlanSolves   int64                `json:"plan_solves"`

	// Snapshot-isolation audit (both legs, identical harness) and the
	// cross-policy equivalence check: after the adaptive leg drains, base
	// and view must be cell-for-cell identical to the all-eager leg.
	EagerObservations int  `json:"eager_observations"`
	EagerViolations   int  `json:"eager_violations"`
	Observations      int  `json:"observations"`
	Violations        int  `json:"violations"`
	StatesMatch       bool `json:"states_match"`
}

// SkewStreamRung runs the skewed trickle through the pipelined streaming
// graph with the adaptive classifier attached: the graph maintains every
// chunk eagerly but feeds the classifier, shares the join memo, and weights
// hot-footprint touches in the router's drift signal.
type SkewStreamRung struct {
	Batches        int     `json:"batches"`
	StreamSeconds  float64 `json:"stream_seconds"`
	PerBatchMillis float64 `json:"per_batch_millis"`
	Solves         int64   `json:"solves"`
	Reuses         int64   `json:"reuses"`
	HeavyClasses   int     `json:"heavy_classes"`
	MemoHits       int64   `json:"memo_hits"`
	MemoMisses     int64   `json:"memo_misses"`
	StatesMatch    bool    `json:"states_match"`
}

// SkewResult is the full skew-ladder experiment.
type SkewResult struct {
	Spec    Spec    `json:"spec"`
	HotFrac float64 `json:"hot_frac"`

	Rungs  []*SkewRung     `json:"rungs"`
	TCP    *SkewRung       `json:"tcp"`
	Stream *SkewStreamRung `json:"stream"`
}

// skewLadderModes is the pointing-distribution ladder, least to most
// skewed: uniform scatter, correlated replay, periodic revisits, and the
// hot-footprint-plus-cold-tail workload.
var skewLadderModes = []string{"uniform", "correlated", "periodic", "skewed"}

// Skew runs the heavy-light adaptive maintenance experiment: the pointing
// ladder on the in-process fabric, one TCP-loopback rung, and one streamed
// rung. Needs a PTF (self-join) dataset.
func Skew(w io.Writer, spec Spec, hotFrac float64) (*SkewResult, error) {
	if spec.Dataset == GEO {
		return nil, fmt.Errorf("bench: skew experiment needs a PTF (self-join) dataset")
	}
	if hotFrac <= 0 || hotFrac >= 1 {
		hotFrac = 0.8
	}
	out := &SkewResult{Spec: spec, HotFrac: hotFrac}
	for _, mode := range skewLadderModes {
		r, err := skewRung(spec, mode, hotFrac, false)
		if err != nil {
			return nil, fmt.Errorf("bench: skew rung %s: %w", mode, err)
		}
		out.Rungs = append(out.Rungs, r)
	}
	tcp, err := skewRung(spec, "skewed", hotFrac, true)
	if err != nil {
		return nil, fmt.Errorf("bench: skew tcp rung: %w", err)
	}
	out.TCP = tcp
	sr, err := skewStreamRung(spec, hotFrac)
	if err != nil {
		return nil, fmt.Errorf("bench: skew stream rung: %w", err)
	}
	out.Stream = sr
	out.WriteTable(w)
	return out, nil
}

// WriteTable renders the human-readable skew report.
func (r *SkewResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Heavy-light adaptive maintenance — %s, hot fraction %.2f\n", r.Spec.Dataset, r.HotFrac)
	rows := append(append([]*SkewRung{}, r.Rungs...), r.TCP)
	for _, g := range rows {
		if g == nil {
			continue
		}
		fmt.Fprintf(w, "  %-10s %-5s eager %6.1fms/b  adaptive %6.1fms/b (drain %5.2fs)  reduction %5.1f%%  q p50/p99 %5.2f/%5.2fms lazy %5.2f/%5.2fms  heavy %d/%d  memo %d/%d  plans %d/%d  defer %d  audit %d/%d+%d/%d viol  match %v\n",
			g.Mode, g.Fabric, g.EagerPerBatchMillis, g.AdaptivePerBatchMillis, g.DrainSeconds,
			100*g.Reduction,
			g.EagerQueryP50Millis, g.EagerQueryP99Millis, g.LazyQueryP50Millis, g.LazyQueryP99Millis,
			g.HeavyClasses, g.SeenClasses, g.MemoHits, g.MemoMisses, g.PlanReuses, g.PlanSolves, g.Pending.Appended,
			g.EagerObservations, g.EagerViolations, g.Observations, g.Violations, g.StatesMatch)
	}
	if s := r.Stream; s != nil {
		fmt.Fprintf(w, "  streamed   %6.1fms/b  solves %d reuses %d  heavy %d  memo %d/%d  match %v\n",
			s.PerBatchMillis, s.Solves, s.Reuses, s.HeavyClasses, s.MemoHits, s.MemoMisses, s.StatesMatch)
	}
}

// skewData generates one rung's dataset: the existing PTF batch modes for
// uniform/correlated/periodic pointings, the hot-footprint generator for
// the skewed rung.
func skewData(spec Spec, mode string, hotFrac float64) (*workload.Dataset, error) {
	switch mode {
	case "uniform":
		return workload.GeneratePTF(spec.PTF, workload.Random)
	case "correlated":
		return workload.GeneratePTF(spec.PTF, workload.Correlated)
	case "periodic":
		return workload.GeneratePTF(spec.PTF, workload.Periodic)
	case "skewed":
		return workload.GeneratePTFSkewed(spec.PTF, hotFrac)
	}
	return nil, fmt.Errorf("bench: unknown skew mode %q", mode)
}

// skewAdaptive puts the heavy-light layer in front of a rung's driver with
// the ladder's tuning. The classifier projects out the time dimension: PTF
// batches land in fresh (or replayed) time slabs, so the persistent identity
// of a chunk is its sky pointing.
func skewAdaptive(c *engine.Config) {
	cfg := maintain.DefaultAdaptiveConfig()
	cfg.Project = maintain.DropDims(0)
	// Promote any class touched in the current batch and at least once more
	// anywhere in the window (minimum revisit score 1 + decay^4 ≈ 1.06):
	// periodic pointings revisit a slab every few batches, and a threshold
	// that demands consecutive touches would misread them as cold.
	cfg.HeavyThreshold = 1.05
	cfg.MaxPendingBatches = 6
	// At default scale a batch carries several thousand memoable units; the
	// default memo cap would thrash (every entry evicted before its replay
	// arrives).
	cfg.MemoCap = 32768
	c.Adaptive = &cfg
}

// pctMillis returns the p-th percentile of the sorted latency slice in
// milliseconds.
func pctMillis(lats []time.Duration, p float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	i := int(p * float64(len(lats)-1))
	return float64(lats[i]) / float64(time.Millisecond)
}

// skewQuerySchedule issues a burst of queries every few batches — often
// enough to sample the lazy path's materialize-on-read spike, rarely
// enough to leave the deferral benefit intact between touches.
const (
	skewQueryEvery = 4
	skewQueryBurst = 6
)

// submitAll hands every batch to the system's driver, one at a time.
func submitAll(h *engine.Handle, batches []*array.Array, each func(i int) error) error {
	for i, b := range batches {
		tk, err := h.Submit(b)
		if err != nil {
			return fmt.Errorf("submit %d: %w", i, err)
		}
		if res := tk.Wait(); res.Err != nil {
			return fmt.Errorf("batch %d: %w", i, res.Err)
		}
		if each != nil {
			if err := each(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// skewTimedLeg is one unaudited, unqueried repetition — pure maintenance
// cost — on a fresh system: the batches, then the final drain of the pending
// log, timed apart.
func skewTimedLeg(spec Spec, data *workload.Dataset, dress func(*engine.Config)) (batchSec, drainSec float64, err error) {
	h, err := spec.Open(data, dress)
	if err != nil {
		return 0, 0, err
	}
	defer h.Close()
	t0 := time.Now()
	if err := submitAll(h, data.Batches, nil); err != nil {
		return 0, 0, err
	}
	batchSec = time.Since(t0).Seconds()
	t1 := time.Now()
	if err := h.Drain(); err != nil {
		return 0, 0, err
	}
	return batchSec, time.Since(t1).Seconds(), nil
}

// skewAuditedLeg is the audited + queried repetition of one policy, not
// timed: snapshot auditors ride the whole run and a burst of view-path
// queries follows every few batches (through the freshness hook, when the
// policy has one). It returns the drained system — the caller closes it —
// with the sorted query latencies and the audit's score.
func skewAuditedLeg(spec Spec, data *workload.Dataset, dress func(*engine.Config), auditors int) (h *engine.Handle, lats []time.Duration, observations, violations int, err error) {
	if h, err = spec.Open(data, dress); err != nil {
		return nil, nil, 0, 0, err
	}
	var audit *snapshotAudit
	if auditors > 0 {
		audit = attachAudit(h.Cluster(), h.Def().Name, auditors)
	}
	err = submitAll(h, data.Batches, func(i int) error {
		if (i+1)%skewQueryEvery != 0 {
			return nil
		}
		for q := 0; q < skewQueryBurst; q++ {
			t0 := time.Now()
			if _, err := h.Query().Answer(h.Def().Pred.Shape, query.ForceView); err != nil {
				return fmt.Errorf("query at batch %d: %w", i, err)
			}
			lats = append(lats, time.Since(t0))
		}
		return nil
	})
	if err == nil {
		err = h.Drain()
	}
	if audit != nil {
		observations, violations = audit.finish()
	}
	if err != nil {
		h.Close()
		return nil, nil, 0, 0, err
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return h, lats, observations, violations, nil
}

func skewRung(spec Spec, mode string, hotFrac float64, tcp bool) (*SkewRung, error) {
	data, err := skewData(spec, mode, hotFrac)
	if err != nil {
		return nil, err
	}
	deltaCells := 0
	for _, b := range data.Batches {
		deltaCells += b.NumCells()
	}
	rung := &SkewRung{
		Mode:       mode,
		Fabric:     fabricLabel(tcp),
		Batches:    len(data.Batches),
		DeltaCells: deltaCells,
	}
	// Timing repetitions run unaudited and unqueried (pure maintenance
	// cost, min over reps); one audited repetition per leg carries the
	// snapshot auditors and the query bursts and supplies the end states
	// for the equivalence check. TCP rungs skip the audit reps to keep the
	// daemon churn bounded.
	reps := 2
	auditors := 2
	if tcp {
		reps, auditors = 1, 0
	}
	eager := func(c *engine.Config) { c.Distributed = tcp }
	adaptive := func(c *engine.Config) { c.Distributed = tcp; skewAdaptive(c) }

	for rep := 0; rep < reps; rep++ {
		sec, _, err := skewTimedLeg(spec, data, eager)
		if err != nil {
			return nil, fmt.Errorf("eager leg: %w", err)
		}
		if rep == 0 || sec < rung.EagerSeconds {
			rung.EagerSeconds = sec
		}
	}
	// The final drain is charged to the adaptive total.
	for rep := 0; rep < reps; rep++ {
		batchSec, drainSec, err := skewTimedLeg(spec, data, adaptive)
		if err != nil {
			return nil, fmt.Errorf("adaptive leg: %w", err)
		}
		if rep == 0 || batchSec+drainSec < rung.AdaptiveSeconds+rung.DrainSeconds {
			rung.AdaptiveSeconds, rung.DrainSeconds = batchSec, drainSec
		}
	}

	// Audited + queried repetitions: one per leg, supplying the equivalence
	// states, the isolation audit, the query percentiles, and the
	// adaptive-layer counters.
	eagerH, lats, obsN, viol, err := skewAuditedLeg(spec, data, eager, auditors)
	if err != nil {
		return nil, fmt.Errorf("eager audit leg: %w", err)
	}
	defer eagerH.Close()
	rung.EagerObservations, rung.EagerViolations = obsN, viol
	rung.EagerQueryP50Millis, rung.EagerQueryP99Millis = pctMillis(lats, 0.50), pctMillis(lats, 0.99)

	adH, lats, obsN, viol, err := skewAuditedLeg(spec, data, adaptive, auditors)
	if err != nil {
		return nil, fmt.Errorf("adaptive audit leg: %w", err)
	}
	defer adH.Close()
	rung.Observations, rung.Violations = obsN, viol
	rung.LazyQueryP50Millis, rung.LazyQueryP99Millis = pctMillis(lats, 0.50), pctMillis(lats, 0.99)
	st := adH.Adaptive().Stats()
	rung.HeavyClasses, rung.SeenClasses = st.HeavyClasses, st.SeenClasses
	rung.Promotions, rung.Demotions = st.Promotions, st.Demotions
	rung.Pending = st.Pending
	rung.MemoHits, rung.MemoMisses = st.Memo.Hits, st.Memo.Misses
	rung.PlanReuses, rung.PlanSolves = st.Plans.Hits, st.Plans.Misses

	rung.StatesMatch, err = sameState(eagerH.Cluster(), adH.Cluster(), data.Schema.Name, adH.Def().Name)
	if err != nil {
		return nil, err
	}

	n := float64(len(data.Batches))
	rung.EagerPerBatchMillis = rung.EagerSeconds * 1000 / n
	rung.AdaptivePerBatchMillis = (rung.AdaptiveSeconds + rung.DrainSeconds) * 1000 / n
	if rung.EagerSeconds > 0 {
		rung.Reduction = 1 - rung.AdaptivePerBatchMillis/rung.EagerPerBatchMillis
	}
	return rung, nil
}

// skewStreamRung pushes the skewed trickle through the pipelined graph with
// the classifier attached, and checks the end state against a plain eager
// pass over the same data.
func skewStreamRung(spec Spec, hotFrac float64) (*SkewStreamRung, error) {
	data, err := workload.GeneratePTFSkewed(spec.PTF, hotFrac)
	if err != nil {
		return nil, err
	}
	out := &SkewStreamRung{Batches: len(data.Batches)}

	// Reference: plain eager batch-at-a-time.
	ref, err := spec.Open(data, nil)
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	if err := submitAll(ref, data.Batches, nil); err != nil {
		return nil, fmt.Errorf("stream reference: %w", err)
	}

	// Streamed leg with the adaptive classifier attached, one batch in the
	// pipeline at a time.
	h, err := spec.Open(data, func(c *engine.Config) { c.Streamed = true; skewAdaptive(c) })
	if err != nil {
		return nil, err
	}
	defer h.Close()
	t0 := time.Now()
	if err := submitAll(h, data.Batches, nil); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if err := h.Drain(); err != nil {
		return nil, err
	}
	out.StreamSeconds = time.Since(t0).Seconds()
	out.PerBatchMillis = out.StreamSeconds * 1000 / float64(len(data.Batches))
	st := h.Graph().Stats()
	out.Solves, out.Reuses = st.Router.Solves, st.Router.Reuses
	ast := h.Adaptive().Stats()
	out.HeavyClasses = ast.HeavyClasses
	out.MemoHits, out.MemoMisses = ast.Memo.Hits, ast.Memo.Misses
	out.StatesMatch, err = sameState(ref.Cluster(), h.Cluster(), data.Schema.Name, h.Def().Name)
	if err != nil {
		return nil, err
	}
	return out, nil
}
