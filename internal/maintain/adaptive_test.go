package maintain

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/shape"
	"github.com/arrayview/arrayview/internal/simjoin"
	"github.com/arrayview/arrayview/internal/storage"
	"github.com/arrayview/arrayview/internal/view"
)

func ck(coords ...int64) array.ChunkKey { return array.ChunkCoord(coords).Key() }

// --- Params validation (NaN regression) -------------------------------------

func TestParamsValidateRejectsNonFinite(t *testing.T) {
	cases := map[string]func(*Params){
		"nan lambda":    func(p *Params) { p.Lambda = math.NaN() },
		"nan decay":     func(p *Params) { p.Decay = math.NaN() },
		"nan cpu":       func(p *Params) { p.CPUThresholdFactor = math.NaN() },
		"inf lambda":    func(p *Params) { p.Lambda = math.Inf(1) },
		"-inf decay":    func(p *Params) { p.Decay = math.Inf(-1) },
		"inf cpu":       func(p *Params) { p.CPUThresholdFactor = math.Inf(1) },
		"neg window":    func(p *Params) { p.Window = -1 },
		"zero decay":    func(p *Params) { p.Decay = 0 },
		"lambda above1": func(p *Params) { p.Lambda = 1.5 },
	}
	for name, mut := range cases {
		p := DefaultParams()
		mut(&p)
		if p.Validate() == nil {
			t.Errorf("%s: Validate accepted %+v", name, p)
		}
	}
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params rejected: %v", err)
	}
}

// A NaN decay must be stopped at construction: every comparison against NaN
// is false, so without the explicit check it would slip through the range
// checks and silently zero both the Eq. 1 window weights and the adaptive
// classifier's scores.
func TestNewMaintainerRejectsNaNParams(t *testing.T) {
	cl, _, def := setupFig1(t, Differential{})
	p := DefaultParams()
	p.Decay = math.NaN()
	if _, err := NewMaintainer(cl, def, Differential{}, p); err == nil {
		t.Fatal("NewMaintainer accepted NaN decay")
	}
	if _, err := NewAdaptiveMaintainer(cl, def, nil, p, DefaultAdaptiveConfig()); err == nil {
		t.Fatal("NewAdaptiveMaintainer accepted NaN decay")
	}
}

// --- History touch-ring properties ------------------------------------------

// A key touched in every one of L recorded batches scores Σ_{l<L} Decay^l;
// one touched only in the oldest batch scores exactly Decay^(L-1).
func TestHistoryUpdateScoreDecayWeights(t *testing.T) {
	const batches = 4
	h := NewHistory(8)
	hot, once := ck(0, 0), ck(9, 9)
	h.RecordUpdates([]array.ChunkKey{hot, once})
	for i := 1; i < batches; i++ {
		h.RecordUpdates([]array.ChunkKey{hot})
	}
	for _, decay := range []float64{0.25, 0.5, 1.0} {
		scores := h.UpdateScores(decay)
		var wantHot float64
		for l := 0; l < batches; l++ {
			wantHot += math.Pow(decay, float64(l))
		}
		if math.Abs(scores[hot]-wantHot) > 1e-12 {
			t.Errorf("decay %v: hot score %v, want %v", decay, scores[hot], wantHot)
		}
		wantOnce := math.Pow(decay, float64(batches-1))
		if math.Abs(scores[once]-wantOnce) > 1e-12 {
			t.Errorf("decay %v: once score %v, want %v", decay, scores[once], wantOnce)
		}
	}
}

func TestHistoryTouchWindowTruncation(t *testing.T) {
	h := NewHistory(3)
	for i := 0; i < 5; i++ {
		h.RecordUpdates([]array.ChunkKey{ck(int64(i))})
	}
	if len(h.touched) != 3 {
		t.Fatalf("touch ring holds %d batches, want 3", len(h.touched))
	}
	scores := h.UpdateScores(0.5)
	for _, evicted := range []array.ChunkKey{ck(0), ck(1)} {
		if _, ok := scores[evicted]; ok {
			t.Errorf("evicted batch key %v still scored", evicted)
		}
	}
	if scores[ck(4)] != 1.0 {
		t.Errorf("most recent touch scores %v, want weight 1", scores[ck(4)])
	}
	if scores[ck(3)] != 0.5 || scores[ck(2)] != 0.25 {
		t.Errorf("decayed touches score %v/%v, want 0.5/0.25", scores[ck(3)], scores[ck(2)])
	}
}

// Scores are a deterministic function of the recorded touch sequence: two
// histories built from the same batches agree exactly, for any decay.
func TestHistoryScoresDeterministicProperty(t *testing.T) {
	f := func(raw [][]uint8, decayBits uint8) bool {
		decay := (float64(decayBits%100) + 1) / 100 // (0, 1]
		build := func() map[array.ChunkKey]float64 {
			h := NewHistory(5)
			for _, batch := range raw {
				keys := make([]array.ChunkKey, len(batch))
				for i, b := range batch {
					keys[i] = ck(int64(b % 8))
				}
				h.RecordUpdates(keys)
			}
			return h.UpdateScores(decay)
		}
		a, b := build(), build()
		if len(a) != len(b) {
			return false
		}
		for k, v := range a {
			if b[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- Classifier --------------------------------------------------------------

func TestClassifierHysteresis(t *testing.T) {
	c := &Classifier{HeavyThreshold: 1.0, Hysteresis: 0.5}
	k := ck(1)
	if p, _ := c.Reclassify(map[array.ChunkKey]float64{k: 0.9}); p != 0 || c.IsHeavy(k) {
		t.Fatal("promoted below threshold")
	}
	if p, _ := c.Reclassify(map[array.ChunkKey]float64{k: 1.0}); p != 1 || !c.IsHeavy(k) {
		t.Fatal("not promoted at threshold")
	}
	// Between the demotion bar (0.5) and the promotion bar: stays heavy.
	if _, d := c.Reclassify(map[array.ChunkKey]float64{k: 0.6}); d != 0 || !c.IsHeavy(k) {
		t.Fatal("hysteresis did not hold the class heavy")
	}
	if _, d := c.Reclassify(map[array.ChunkKey]float64{k: 0.49}); d != 1 || c.IsHeavy(k) {
		t.Fatal("not demoted below the hysteresis bar")
	}
	// A heavy class absent from the scores has score 0 and demotes.
	c.Reclassify(map[array.ChunkKey]float64{k: 2.0})
	if _, d := c.Reclassify(map[array.ChunkKey]float64{}); d != 1 || c.IsHeavy(k) {
		t.Fatal("absent class kept heavy status")
	}
	promos, demos := c.Flips()
	if promos != 2 || demos != 2 {
		t.Errorf("flip counters %d/%d, want 2/2", promos, demos)
	}
}

func TestClassifierTopK(t *testing.T) {
	c := &Classifier{TopK: 0.3, Hysteresis: 1}
	scores := map[array.ChunkKey]float64{ck(1): 3, ck(2): 2, ck(3): 1}
	c.Reclassify(scores) // ⌈0.3·3⌉ = 1 heavy class
	if !c.IsHeavy(ck(1)) || c.IsHeavy(ck(2)) || c.IsHeavy(ck(3)) {
		t.Fatalf("top-k picked wrong classes: heavy=%d", c.HeavyCount())
	}
	// With no scores the threshold is +Inf: nothing promotes.
	c2 := &Classifier{TopK: 0.5, Hysteresis: 1}
	c2.Reclassify(map[array.ChunkKey]float64{})
	if c2.HeavyCount() != 0 {
		t.Fatal("empty score map promoted classes")
	}
}

func TestClassifierDropDimsProjection(t *testing.T) {
	proj := DropDims(0)
	if proj(ck(3, 7)) != ck(0, 7) {
		t.Fatalf("DropDims(0) maps (3,7) to %v", proj(ck(3, 7)))
	}
	c := &Classifier{HeavyThreshold: 1, Hysteresis: 0.5, Project: proj}
	c.Reclassify(map[array.ChunkKey]float64{ck(0, 7): 1.0})
	// Any time slab of the same pointing classifies by the shared identity.
	if !c.IsHeavy(ck(5, 7)) {
		t.Error("projection did not collapse slabs onto one class")
	}
	if c.IsHeavy(ck(5, 6)) {
		t.Error("unrelated pointing classified heavy")
	}
}

func TestClassifierPromoteIdempotent(t *testing.T) {
	c := &Classifier{HeavyThreshold: 2, Hysteresis: 0.5}
	if !c.Promote(ck(1)) {
		t.Fatal("first promote reported already-heavy")
	}
	if c.Promote(ck(1)) {
		t.Fatal("second promote reported a fresh promotion")
	}
	if promos, _ := c.Flips(); promos != 1 {
		t.Errorf("promotions %d, want 1", promos)
	}
}

func TestClassifierValidate(t *testing.T) {
	bad := []*Classifier{
		{HeavyThreshold: math.NaN()},
		{HeavyThreshold: -1},
		{TopK: 1.5},
		{TopK: math.Inf(1)},
		{Hysteresis: -0.1},
		{Hysteresis: 2},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d: Validate accepted %+v", i, c)
		}
	}
	if err := (&Classifier{HeavyThreshold: 1.5, Hysteresis: 0.5}).Validate(); err != nil {
		t.Fatalf("default classifier rejected: %v", err)
	}
}

// --- Plan scratch -----------------------------------------------------------

func TestPlanScratchFootprint(t *testing.T) {
	a := scratchFootprint([]array.ChunkKey{ck(1, 2), ck(3, 4)})
	b := scratchFootprint([]array.ChunkKey{ck(3, 4), ck(1, 2)})
	if a != b {
		t.Fatal("footprint is order sensitive")
	}
	if a == scratchFootprint([]array.ChunkKey{ck(1, 2)}) {
		t.Fatal("distinct key sets share a footprint")
	}
}

func TestPlanScratchInvalidationAndEviction(t *testing.T) {
	s := NewPlanScratch(2)
	put := func(fp string) { s.store(fp, &Context{}, NewPlan("t", 0)) }

	put("a")
	if s.lookup("a") == nil {
		t.Fatal("fresh entry missed")
	}
	s.Invalidate()
	if s.lookup("a") != nil {
		t.Fatal("entry survived base invalidation")
	}
	put("a")
	s.InvalidatePlacement()
	if s.lookup("a") != nil {
		t.Fatal("entry survived placement invalidation")
	}

	put("a")
	put("b")
	put("c") // cap 2: evicts the oldest ("a")
	if s.lookup("a") != nil {
		t.Error("oldest entry not evicted at capacity")
	}
	if s.lookup("b") == nil || s.lookup("c") == nil {
		t.Error("surviving entries missed")
	}

	st := s.Stats()
	if st.Hits != 3 || st.Misses != 3 {
		t.Errorf("stats %+v, want 3 hits / 3 misses", st)
	}
	if got := (*PlanScratch)(nil).Stats(); got != (PlanScratchStats{}) {
		t.Errorf("nil scratch stats %+v", got)
	}
}

// Replayed footprints (the same chunk-key set batch over batch) must reuse
// the cached plan and still produce a view bit-identical to a maintainer
// with no scratch attached.
func TestPlanScratchReplayEquivalence(t *testing.T) {
	clPlain, mPlain, _ := setupFig1(t, Differential{})
	clCached, mCached, defCached := setupFig1(t, Differential{})
	scratch := NewPlanScratch(0)
	mCached.scratch = scratch

	// Each round inserts fresh points into the same three chunks, so the
	// delta footprint recurs while the workload stays insert-only (cell
	// overwrites are outside the maintenance algebra's exactness contract).
	offsets := []array.Point{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
	mkBatch := func(round int) *array.Array {
		d := array.New(fig1Schema())
		off := offsets[round]
		for _, p := range []array.Point{{1, 5}, {3, 5}, {5, 1}} {
			q := array.Point{p[0] + off[0], p[1] + off[1]}
			if err := d.Set(q, array.Tuple{float64(round + 1), 1}); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	for r := 0; r < 4; r++ {
		if _, err := mPlain.ApplyBatch(mkBatch(r)); err != nil {
			t.Fatal(err)
		}
		if _, err := mCached.ApplyBatch(mkBatch(r)); err != nil {
			t.Fatal(err)
		}
		requireSameState(t, fmt.Sprintf("round %d", r), clPlain, clCached, "A", defCached.Name)
	}
	verifyView(t, clCached, defCached)
	// Round 1 commits new base keys (no store); round 2 solves and stores;
	// rounds 3-4 reuse.
	if st := scratch.Stats(); st.Hits < 2 {
		t.Errorf("expected plan reuse on replayed footprints, got %+v", st)
	}
}

// --- Adaptive equivalence ---------------------------------------------------

func requireSameState(t *testing.T, tag string, clA, clB *cluster.Cluster, names ...string) {
	t.Helper()
	for _, n := range names {
		a, err := clA.Gather(n)
		if err != nil {
			t.Fatalf("%s: gather %s: %v", tag, n, err)
		}
		b, err := clB.Gather(n)
		if err != nil {
			t.Fatalf("%s: gather %s: %v", tag, n, err)
		}
		if !statesEqual(a, b) {
			t.Fatalf("%s: %s diverges between legs", tag, n)
		}
	}
}

func adaptiveSetup(t *testing.T, cfg AdaptiveConfig) (*cluster.Cluster, *AdaptiveMaintainer, *view.Definition) {
	t.Helper()
	cl, err := cluster.New(3, cluster.WithWorkersPerNode(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadArray(fig1Array(), &cluster.RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	def := fig1Def(t)
	if err := BuildView(cl, def, &cluster.RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	am, err := NewAdaptiveMaintainer(cl, def, nil, DefaultParams(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl, am, def
}

func cloneArray(a *array.Array) *array.Array {
	out := array.New(a.Schema())
	a.EachChunk(func(c *array.Chunk) bool {
		out.PutChunk(c.Clone())
		return true
	})
	return out
}

// Adaptive maintenance must be bit-identical to all-eager maintenance at
// every freshness point, across classifier configurations that exercise
// every path: full deferral (fences, folds, coalesced drains), full
// eagerness, top-k mode, projection, pressure promotion, and deletion.
func TestAdaptiveEquivalenceConfigs(t *testing.T) {
	configs := map[string]AdaptiveConfig{
		"default":   DefaultAdaptiveConfig(),
		"all-light": {HeavyThreshold: math.MaxFloat64, Hysteresis: 0.5},
		"all-heavy": {HeavyThreshold: 0, Hysteresis: 1},
		"topk":      {TopK: 0.5, Hysteresis: 0.5, MaxPendingBatches: 2},
		"projected": {HeavyThreshold: 1.5, Hysteresis: 0.5, Project: DropDims(0),
			MaxPendingBatches: 3, PromoteEntries: 2, PromoteTouches: 1},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			clEager, mEager, _ := setupFig1(t, Differential{})
			clAd, am, def := adaptiveSetup(t, cfg)

			rng := rand.New(rand.NewSource(42))
			// The workload stays insert-only (the maintenance algebra's
			// exactness contract): batches draw fresh points from a pool,
			// but land in already-populated chunks, so the overwrite⇒eager
			// routing, the conflict fence, and the fold path all fire.
			type cell struct {
				p array.Point
				t array.Tuple
			}
			occupied := make(map[string]cell)
			fig1Array().EachCell(func(p array.Point, tup array.Tuple) bool {
				occupied[fmt.Sprint(p)] = cell{append(array.Point{}, p...), append(array.Tuple{}, tup...)}
				return true
			})
			var pool []array.Point
			for i := int64(1); i <= 6; i++ {
				for j := int64(1); j <= 8; j++ {
					if _, ok := occupied[fmt.Sprint(array.Point{i, j})]; !ok {
						pool = append(pool, array.Point{i, j})
					}
				}
			}

			randomBatch := func() *array.Array {
				d := array.New(fig1Schema())
				n := 2 + rng.Intn(2)
				for i := 0; i < n && len(pool) > 0; i++ {
					idx := rng.Intn(len(pool))
					p := pool[idx]
					pool = append(pool[:idx], pool[idx+1:]...)
					tup := array.Tuple{float64(1 + rng.Intn(9)), float64(1 + rng.Intn(9))}
					if err := d.Set(p, tup); err != nil {
						t.Fatal(err)
					}
					occupied[fmt.Sprint(p)] = cell{p, tup}
				}
				return d
			}
			apply := func(d *array.Array) {
				if _, err := mEager.ApplyBatch(cloneArray(d)); err != nil {
					t.Fatal(err)
				}
				if _, err := am.ApplyBatch(cloneArray(d)); err != nil {
					t.Fatal(err)
				}
			}

			for b := 0; b < 12; b++ {
				apply(randomBatch())
				if b%4 == 3 {
					// Query touch: the lazy path materializes, then both legs
					// must agree exactly.
					if err := am.EnsureFresh(context.Background()); err != nil {
						t.Fatal(err)
					}
					requireSameState(t, fmt.Sprintf("batch %d", b), clEager, clAd, "A", def.Name)
				}
			}

			// Delete two committed cells (exact values), returning their
			// points to the pool.
			keys := make([]string, 0, len(occupied))
			for k := range occupied {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			del := array.New(fig1Schema())
			for _, k := range keys[:2] {
				c := occupied[k]
				if err := del.Set(c.p, c.t); err != nil {
					t.Fatal(err)
				}
				delete(occupied, k)
				pool = append(pool, c.p)
			}
			if _, err := mEager.ApplyDelete(cloneArray(del)); err != nil {
				t.Fatal(err)
			}
			if _, err := am.ApplyDelete(cloneArray(del)); err != nil {
				t.Fatal(err)
			}
			requireSameState(t, "post-delete", clEager, clAd, "A", def.Name)

			apply(randomBatch())
			apply(randomBatch())
			if _, err := am.Drain(); err != nil {
				t.Fatal(err)
			}
			requireSameState(t, "final", clEager, clAd, "A", def.Name)
			verifyView(t, clAd, def)

			st := am.Stats()
			if st.Pending.Entries != 0 {
				t.Errorf("pending entries remain after Drain: %+v", st.Pending)
			}
		})
	}
}

func TestAdaptiveRejectsInvalidConfigAndTwoArrayViews(t *testing.T) {
	cl, _, def := setupFig1(t, Differential{})
	if _, err := NewAdaptiveMaintainer(cl, def, nil, DefaultParams(), AdaptiveConfig{HeavyThreshold: math.NaN()}); err == nil {
		t.Fatal("NaN classifier threshold accepted")
	}

	// A two-array view has no adaptive path.
	sB := array.MustSchema("B",
		[]array.Dimension{
			{Name: "i", Start: 1, End: 6, ChunkSize: 2},
			{Name: "j", Start: 1, End: 8, ChunkSize: 2},
		},
		[]array.Attribute{{Name: "r", Type: array.Int64}, {Name: "s", Type: array.Int64}},
	)
	arrB := array.New(sB)
	if err := arrB.Set(array.Point{1, 1}, array.Tuple{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadArray(arrB, &cluster.RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	def2, err := view.NewDefinition("V2", fig1Schema(), sB,
		simjoin.NewPred(shape.L1(2, 1), nil),
		[]string{"i", "j"},
		[]view.Aggregate{{Kind: view.Count, As: "cnt"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := BuildView(cl, def2, &cluster.RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	_, err = NewAdaptiveMaintainer(cl, def2, nil, DefaultParams(), DefaultAdaptiveConfig())
	if !errors.Is(err, view.ErrSelfJoinOnly) {
		t.Fatalf("two-array view accepted (err=%v)", err)
	}
}

// --- Rollback exactness ------------------------------------------------------

func faultClusterSetup(t *testing.T, cfg AdaptiveConfig) (*cluster.FaultFabric, *cluster.Cluster, *AdaptiveMaintainer, *view.Definition) {
	t.Helper()
	stores := make([]*storage.Store, 3)
	for i := range stores {
		stores[i] = storage.NewStore()
	}
	ff := cluster.NewFaultFabric(cluster.NewLocalFabric(stores), 1)
	cl, err := cluster.New(3, cluster.WithWorkersPerNode(2), cluster.WithFabric(ff.AsFabric()))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadArray(fig1Array(), &cluster.RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	def := fig1Def(t)
	if err := BuildView(cl, def, &cluster.RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	am, err := NewAdaptiveMaintainer(cl, def, nil, DefaultParams(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ff, cl, am, def
}

// A failed eager batch must leave the deferred state exactly as it found it:
// no pending appends from the failed batch, and pending entries the conflict
// fence folded into the failed batch restored to the log.
func TestAdaptiveFailedBatchRollsBackPending(t *testing.T) {
	allLight := AdaptiveConfig{HeavyThreshold: math.MaxFloat64, Hysteresis: 0.5}
	ff, clAd, am, def := faultClusterSetup(t, allLight)
	clRef, mRef, _ := setupFig1(t, Differential{})

	// Batch 1: one fresh chunk key — deferred.
	d1 := array.New(fig1Schema())
	if err := d1.Set(array.Point{1, 5}, array.Tuple{3, 3}); err != nil { // chunk (0,2): fresh
		t.Fatal(err)
	}
	if _, err := am.ApplyBatch(cloneArray(d1)); err != nil {
		t.Fatal(err)
	}
	if st := am.Stats(); st.Pending.Entries != 1 {
		t.Fatalf("batch 1 not deferred: %+v", st.Pending)
	}

	// Batch 2: an overwrite of a committed chunk (heavy routing; its join
	// reach covers the pending chunk, so the fence folds that entry into the
	// eager batch) plus a fresh light chunk. Every write is failed with a
	// non-node-down error, so the eager part cannot fail over and must roll
	// back.
	d2 := array.New(fig1Schema())
	if err := d2.Set(array.Point{2, 4}, array.Tuple{9, 9}); err != nil { // chunk (0,1): in base
		t.Fatal(err)
	}
	if err := d2.Set(array.Point{5, 1}, array.Tuple{2, 2}); err != nil { // chunk (2,0): fresh, light
		t.Fatal(err)
	}
	rule := ff.Inject(&cluster.FaultRule{
		Node: cluster.AnyNode, Op: "Put", Kind: cluster.FaultError,
		Err: errors.New("injected write failure"),
	})
	if _, err := am.ApplyBatch(cloneArray(d2)); err == nil {
		t.Fatal("batch applied despite write faults")
	}
	if rule.Fired() == 0 {
		t.Fatal("fault rule never fired; the failure path was not exercised")
	}
	ff.ClearRules()

	st := am.Stats()
	if st.Pending.Entries != 1 {
		t.Fatalf("failed batch disturbed the pending log: %+v", st.Pending)
	}
	if n, _ := clAd.Catalog().Pending().EntriesFor(ck(0, 2)); n != 1 {
		t.Fatalf("folded entry not restored after rollback (entries=%d)", n)
	}
	if n, _ := clAd.Catalog().Pending().EntriesFor(ck(2, 0)); n != 0 {
		t.Fatal("failed batch appended its light chunks")
	}

	// The cluster state must equal the reference having applied batch 1 only.
	if _, err := mRef.ApplyBatch(cloneArray(d1)); err != nil {
		t.Fatal(err)
	}
	if _, err := am.Drain(); err != nil {
		t.Fatal(err)
	}
	requireSameState(t, "after failed batch", clRef, clAd, "A", def.Name)

	// Retrying the failed batch now succeeds and converges with the
	// reference.
	if _, err := am.ApplyBatch(cloneArray(d2)); err != nil {
		t.Fatal(err)
	}
	if _, err := mRef.ApplyBatch(cloneArray(d2)); err != nil {
		t.Fatal(err)
	}
	if _, err := am.Drain(); err != nil {
		t.Fatal(err)
	}
	requireSameState(t, "after retry", clRef, clAd, "A", def.Name)
	verifyView(t, clAd, def)
}

// A failed lazy materialization restores the taken entries to the log.
func TestAdaptiveMaterializeRestoresOnFailure(t *testing.T) {
	allLight := AdaptiveConfig{HeavyThreshold: math.MaxFloat64, Hysteresis: 0.5}
	ff, clAd, am, def := faultClusterSetup(t, allLight)

	d1 := array.New(fig1Schema())
	if err := d1.Set(array.Point{1, 5}, array.Tuple{3, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := am.ApplyBatch(d1); err != nil {
		t.Fatal(err)
	}
	ff.Inject(&cluster.FaultRule{
		Node: cluster.AnyNode, Op: "Put", Kind: cluster.FaultError,
		Err: errors.New("injected write failure"),
	})
	if err := am.EnsureFresh(context.Background()); err == nil {
		t.Fatal("materialization succeeded despite write faults")
	}
	if st := am.Stats(); st.Pending.Entries != 1 {
		t.Fatalf("failed materialization lost entries: %+v", st.Pending)
	}
	ff.ClearRules()
	if err := am.EnsureFresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := am.Stats(); st.Pending.Entries != 0 {
		t.Fatalf("retry left entries pending: %+v", st.Pending)
	}
	verifyView(t, clAd, def)
}

// --- Snapshot isolation under concurrency ------------------------------------

func digestArray(a *array.Array) string {
	var cells []string
	a.EachCell(func(p array.Point, tup array.Tuple) bool {
		cells = append(cells, fmt.Sprint(p, tup))
		return true
	})
	sort.Strings(cells)
	return strings.Join(cells, ";")
}

// Pinned snapshot readers racing adaptive maintenance (deferrals, fences,
// lazy materializations) must always observe exactly the committed state of
// their pinned epoch — the lazy path adds no isolation violations. Run with
// -race to check the synchronization too.
func TestAdaptiveSnapshotIsolationConcurrent(t *testing.T) {
	clAd, am, def := adaptiveSetup(t, DefaultAdaptiveConfig())

	type obsRec struct {
		epoch  uint64
		digest string
	}
	var emu sync.Mutex
	expected := make(map[uint64]string)
	var hookWG sync.WaitGroup
	clAd.Epochs().OnPublish(func(epoch uint64) {
		snap, err := clAd.Epochs().Acquire()
		if err != nil {
			return
		}
		hookWG.Add(1)
		go func() {
			defer hookWG.Done()
			defer snap.Release()
			v, err := snap.Gather(def.Name)
			if err != nil {
				return
			}
			emu.Lock()
			expected[snap.Epoch()] = digestArray(v)
			emu.Unlock()
		}()
	})
	clAd.Epochs().Enable()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	observed := make([][]obsRec, 2)
	for i := range observed {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				cur := clAd.Epochs().Current()
				if cur == last {
					time.Sleep(200 * time.Microsecond)
					continue
				}
				last = cur
				snap, err := clAd.Epochs().Acquire()
				if err != nil {
					continue
				}
				if v, err := snap.Gather(def.Name); err == nil {
					observed[i] = append(observed[i], obsRec{snap.Epoch(), digestArray(v)})
				}
				snap.Release()
			}
		}()
	}

	rng := rand.New(rand.NewSource(7))
	for b := 0; b < 10; b++ {
		d := array.New(fig1Schema())
		for i, n := 0, 3+rng.Intn(5); i < n; i++ {
			p := array.Point{int64(1 + rng.Intn(6)), int64(1 + rng.Intn(8))}
			if err := d.Set(p, array.Tuple{float64(1 + rng.Intn(9)), 1}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := am.ApplyBatch(d); err != nil {
			t.Fatal(err)
		}
		if b%3 == 2 {
			if err := am.EnsureFresh(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	hookWG.Wait()

	total, violations := 0, 0
	for _, list := range observed {
		for _, o := range list {
			total++
			emu.Lock()
			want, ok := expected[o.epoch]
			emu.Unlock()
			if !ok || want != o.digest {
				violations++
			}
		}
	}
	if violations != 0 {
		t.Fatalf("%d/%d snapshot observations violated isolation", violations, total)
	}
	if total == 0 {
		t.Error("auditors made no observations")
	}
}
