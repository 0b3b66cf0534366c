package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"github.com/arrayview/arrayview/internal/engine"
	"github.com/arrayview/arrayview/internal/query"
	"github.com/arrayview/arrayview/internal/serve"
	"github.com/arrayview/arrayview/internal/shape"
)

// ServeMixLeg is one pass of the repeated-shape query mix: the same
// deterministic schedule of repeated and cold query shapes, answered by a
// daemon with the query fast path either disabled (the uncached baseline)
// or enabled.
type ServeMixLeg struct {
	Label   string
	Queries int
	Batches int
	Seconds float64
	QPS     float64
	// Latency percentiles over all queries, then split by class:
	// repeated shapes recur every round, cold shapes never repeat within
	// the memo's horizon.
	P50Millis         float64
	P99Millis         float64
	RepeatedP50Millis float64
	RepeatedP99Millis float64
	ColdP50Millis     float64
	ColdP99Millis     float64
	// Overloads counts admission rejections; QueryErrors counts queries
	// that failed outright.
	Overloads   int64
	QueryErrors int
	// Violations counts per-epoch oracle divergences: the serving engine's
	// answer compared against a fast-path-free engine on the same pinned
	// snapshot. Must be zero.
	Violations int
	// Fast-path counters from the daemon (all zero on the uncached leg).
	ViewHits   int64
	ViewMisses int64
	MemoHits   int64
	MemoMisses int64
	SolveSkips int64
}

// ServeMixResult compares the repeated-shape mix with the fast path off
// and on, over identical seeded data and an identical query schedule.
type ServeMixResult struct {
	Spec     Spec
	Workers  int
	PerRound int
	Uncached *ServeMixLeg
	Cached   *ServeMixLeg
	// SpeedupQPS is Cached.QPS / Uncached.QPS; P99ReductionPct is the
	// relative p99 improvement of the cached leg, in percent.
	SpeedupQPS      float64
	P99ReductionPct float64
	// RepeatedSpeedupP50 is the median repeated-shape latency ratio
	// (uncached / cached): the direct payoff of the view cache and memo.
	RepeatedSpeedupP50 float64
}

// ServeMix measures the query fast path end to end: two sequential legs on
// identically seeded clusters run the same mixed schedule — four out of
// five queries repeat hot shapes (the view shape and two Lp balls,
// recurring every round: the multi-tenant dashboard case), one in five is
// a cold shape whose offset set cycles past the memo capacity, so every
// one plans from scratch — while maintenance batches commit between
// rounds.
// The first leg serves cold (DisableFastPath), the second with the view
// cache, plan memo, and parallel joins engaged. Every round also audits
// the serving engine against a fast-path-free oracle on one shared pinned
// snapshot.
func ServeMix(w io.Writer, spec Spec, workers, perRound int) (*ServeMixResult, error) {
	if workers <= 0 {
		workers = 4
	}
	if perRound <= 0 {
		perRound = 40
	}
	out := &ServeMixResult{Spec: spec, Workers: workers, PerRound: perRound}
	var err error
	if out.Uncached, err = serveMixLeg(spec, workers, perRound, false); err != nil {
		return nil, fmt.Errorf("bench: serve mix uncached: %w", err)
	}
	if out.Cached, err = serveMixLeg(spec, workers, perRound, true); err != nil {
		return nil, fmt.Errorf("bench: serve mix cached: %w", err)
	}
	if out.Uncached.QPS > 0 {
		out.SpeedupQPS = out.Cached.QPS / out.Uncached.QPS
	}
	if out.Uncached.P99Millis > 0 {
		out.P99ReductionPct = 100 * (1 - out.Cached.P99Millis/out.Uncached.P99Millis)
	}
	if out.Cached.RepeatedP50Millis > 0 {
		out.RepeatedSpeedupP50 = out.Uncached.RepeatedP50Millis / out.Cached.RepeatedP50Millis
	}
	out.WriteTable(w)
	return out, nil
}

// WriteTable renders the human-readable mix report.
func (r *ServeMixResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Repeated-shape mix — %s / %s, %d workers x %d queries/round\n",
		r.Spec.Dataset, r.Spec.Mode, r.Workers, r.PerRound)
	for _, l := range []*ServeMixLeg{r.Uncached, r.Cached} {
		fmt.Fprintf(w, "  %-8s  %6.0f qps  p50 %6.2fms  p99 %6.2fms  repeated-p50 %6.2fms  cold-p50 %6.2fms  violations %d\n",
			l.Label, l.QPS, l.P50Millis, l.P99Millis,
			l.RepeatedP50Millis, l.ColdP50Millis, l.Violations)
	}
	fmt.Fprintf(w, "  fast path: %.2fx qps, p99 -%.0f%%, repeated-p50 %.2fx (view %d/%d, memo %d/%d, solves skipped %d)\n",
		r.SpeedupQPS, r.P99ReductionPct, r.RepeatedSpeedupP50,
		r.Cached.ViewHits, r.Cached.ViewMisses,
		r.Cached.MemoHits, r.Cached.MemoMisses, r.Cached.SolveSkips)
}

// mixRepeatedShapes are the recurring query shapes: the view shape itself
// (the identity fast case) plus two Lp balls that exercise the Δ paths.
func mixRepeatedShapes(viewShape *shape.Shape) []*shape.Shape {
	d := viewShape.NumDims()
	return []*shape.Shape{viewShape, shape.Linf(d, 1), shape.L1(d, 2)}
}

// mixColdShape builds the c-th cold query shape: a unit cross plus two
// extra symmetric offset pairs, each drawn from a 5x5 grid, so consecutive
// indices cycle through 625 distinct offset sets — past the decision
// memo's FIFO capacity, keeping every cold query a memo miss — while every
// offset stays within radius 5, so cold joins cost about as much as the
// repeated Lp balls rather than dominating the tail.
func mixColdShape(dims int, c int) (*shape.Shape, error) {
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
		ex[0] = dx
		if dims > 1 {
			ex[1] = dy
		}
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

func serveMixLeg(spec Spec, workers, perRound int, fast bool) (*ServeMixLeg, error) {
	data, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	h, err := spec.Open(data, func(c *engine.Config) {
		c.Placement, c.Listen = nil, "127.0.0.1:0"
		c.Serve = serve.Config{
			MaxConcurrent:   workers * 2,
			QueueDepth:      workers * 4,
			DisableFastPath: !fast,
		}
	})
	if err != nil {
		return nil, err
	}
	defer h.Close()
	cl, def, srv := h.Cluster(), h.Def(), h.Server()
	// The daemon answers through its own (fast-path) engine; the oracle is
	// the cold engine it was built from, which never gets a fast path: every
	// audit answer is recomputed from scratch on the shared pinned snapshot.
	serving, oracle := srv.Engine(), h.Query()

	label := "uncached"
	if fast {
		label = "cached"
	}

	repeated := mixRepeatedShapes(def.Pred.Shape)
	dims := def.Pred.Shape.NumDims()

	type obs struct {
		cold bool
		lat  time.Duration
	}
	outs := make([][]obs, workers)
	errCounts := make([]int, workers)
	clients := make([]*serve.Client, workers)
	for i := range clients {
		c, err := serve.NewClient(srv.Addr(), def.Schema(), nil)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		clients[i] = c
	}

	// Deterministic schedule: each round every worker alternates repeated
	// and cold shapes; cold indices come from a disjoint per-worker stride
	// so the two legs see the identical shape sequence.
	runRound := func(round int) (time.Duration, error) {
		var wg sync.WaitGroup
		errs := make([]error, workers)
		t0 := time.Now()
		for i := 0; i < workers; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				for q := 0; q < perRound; q++ {
					var qs *shape.Shape
					cold := q%5 == 4
					if cold {
						c := (round*workers+i)*perRound + q
						var err error
						if qs, err = mixColdShape(dims, c); err != nil {
							errs[i] = err
							return
						}
					} else {
						qs = repeated[(q/5*4+q%5+i)%len(repeated)]
					}
					t := time.Now()
					if _, err := clients[i].Query(qs, query.Auto); err != nil {
						if !serve.IsOverload(err) {
							errCounts[i]++
						}
						continue
					}
					outs[i] = append(outs[i], obs{cold: cold, lat: time.Since(t)})
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}

	// audit compares the serving engine (fast path and all) against the
	// oracle on one shared pinned snapshot: byte-for-byte cell equality.
	violations := 0
	audit := func(round int) error {
		snap, err := cl.Epochs().Acquire()
		if err != nil {
			return err
		}
		defer snap.Release()
		probes := append([]*shape.Shape{}, repeated...)
		if cs, err := mixColdShape(dims, round); err == nil {
			probes = append(probes, cs)
		}
		ctx := context.Background()
		for _, qs := range probes {
			got, err := serving.AnswerSnapshot(ctx, snap, srv.ReadCache(), qs, query.Auto)
			if err != nil {
				return err
			}
			want, err := oracle.AnswerSnapshot(ctx, snap, nil, qs, query.Auto)
			if err != nil {
				return err
			}
			if serveFingerprint(got.Array) != serveFingerprint(want.Array) {
				violations++
			}
		}
		return nil
	}

	var elapsed time.Duration
	batches := 0
	for round := 0; ; round++ {
		d, err := runRound(round)
		if err != nil {
			return nil, err
		}
		elapsed += d
		if err := audit(round); err != nil {
			return nil, err
		}
		if round >= len(data.Batches) {
			break
		}
		if _, err := h.Maintainer().ApplyBatch(data.Batches[round]); err != nil {
			return nil, err
		}
		batches++
	}

	var all, rep, cold []time.Duration
	errsTotal := 0
	for i := range outs {
		errsTotal += errCounts[i]
		for _, o := range outs[i] {
			all = append(all, o.lat)
			if o.cold {
				cold = append(cold, o.lat)
			} else {
				rep = append(rep, o.lat)
			}
		}
	}
	pct := func(ls []time.Duration, p float64) float64 {
		if len(ls) == 0 {
			return 0
		}
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
		return float64(ls[int(p*float64(len(ls)-1))]) / float64(time.Millisecond)
	}
	st := srv.Stats()
	leg := &ServeMixLeg{
		Label:             label,
		Queries:           len(all),
		Batches:           batches,
		Seconds:           elapsed.Seconds(),
		P50Millis:         pct(all, 0.50),
		P99Millis:         pct(all, 0.99),
		RepeatedP50Millis: pct(rep, 0.50),
		RepeatedP99Millis: pct(rep, 0.99),
		ColdP50Millis:     pct(cold, 0.50),
		ColdP99Millis:     pct(cold, 0.99),
		Overloads:         st.Rejected,
		QueryErrors:       errsTotal,
		Violations:        violations,
		ViewHits:          st.FastPath.ViewHits,
		ViewMisses:        st.FastPath.ViewMisses,
		MemoHits:          st.FastPath.MemoHits,
		MemoMisses:        st.FastPath.MemoMisses,
		SolveSkips:        st.FastPath.SolveSkips,
	}
	if leg.Seconds > 0 {
		leg.QPS = float64(leg.Queries) / leg.Seconds
	}
	return leg, nil
}
