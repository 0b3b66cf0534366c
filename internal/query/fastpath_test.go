package query

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/shape"
)

// answerBytes canonically encodes an answer array so equivalence checks are
// byte-exact, not merely value-equal.
func answerBytes(a *array.Array) string {
	keys := a.ChunkKeys()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var out []byte
	for _, k := range keys {
		c := a.ChunkByKey(k)
		if c == nil || c.NumCells() == 0 {
			continue
		}
		out = append(out, array.EncodeChunk(c)...)
	}
	return string(out)
}

// fastEngine clones eng with the full fast path attached: view cache wired
// to epoch publication, memo, and a 4-wide join pool.
func fastEngine(eng *Engine, ctrs *obs.FastPathCounters) *Engine {
	f := NewFastPath(0, ctrs)
	f.JoinWorkers = 4
	fe := *eng
	fe.Fast = f
	eng.Cluster.Epochs().OnPublish(f.Views.InvalidateBefore)
	return &fe
}

// commitBaseChange simulates one maintenance commit against the snapshot
// manager: retain the pre-image of a base chunk, overwrite it, update the
// catalog, publish a fresh epoch.
func commitBaseChange(t testing.TB, cl *cluster.Cluster, name string, round int) {
	t.Helper()
	keys := cl.Catalog().Keys(name)
	key := keys[round%len(keys)]
	home, ok := cl.Catalog().Home(name, key)
	if !ok {
		t.Fatalf("chunk %v has no home", key)
	}
	prev, err := cl.GetAt(home, name, key)
	if err != nil {
		t.Fatal(err)
	}
	cl.Epochs().Retain(name, key, prev)
	next := prev.Clone()
	r := next.Region()
	tup := make(array.Tuple, next.NumAttrs())
	for i := range tup {
		tup[i] = float64(round + 2)
	}
	if err := next.Set(r.Lo, tup); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutAt(home, name, next); err != nil {
		t.Fatal(err)
	}
	if err := cl.Catalog().SetChunk(name, key, home, next.SizeBytes(), next.NumCells()); err != nil {
		t.Fatal(err)
	}
	cl.Epochs().Publish()
}

// insertBatch maintains the view under one batch of n cells absent from
// the live base, committing (and publishing) a fresh epoch.
func insertBatch(t *testing.T, m *maintain.Maintainer, cl *cluster.Cluster, round, n int) {
	t.Helper()
	base, err := cl.Gather("A")
	if err != nil {
		t.Fatal(err)
	}
	delta := array.New(base.Schema())
	for i := 0; delta.NumCells() < n; i++ {
		p := array.Point{int64(7*round+3*i) % 40, int64(11*round+5*i) % 40}
		if _, taken := base.Get(p); !taken {
			if err := delta.Set(p, array.Tuple{float64(round + i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := m.ApplyBatch(delta); err != nil {
		t.Fatal(err)
	}
}

// TestFastPathByteIdenticalAcrossEpochsAndShapes drives the cached and
// uncached serving paths over the same snapshots — repeated shapes, several
// epochs committed by real maintenance batches, all three modes — and
// requires byte-identical answers, each equal to a from-scratch
// materialization of the query shape over the snapshot's base, plus nonzero
// cache/memo traffic. A repeated Auto answer must take its Δ shape and both
// priced pair lists from the memos.
func TestFastPathByteIdenticalAcrossEpochsAndShapes(t *testing.T) {
	cold, _ := setup(t, 7, shape.L1(2, 1))
	cl := cold.Cluster
	cl.Epochs().Enable()
	ctrs := &obs.FastPathCounters{}
	fast := fastEngine(cold, ctrs)
	m, err := maintain.NewMaintainer(cl, cold.Def, nil, maintain.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}

	shapes := []*shape.Shape{
		shape.L1(2, 1), // identity: the query IS the view
		shape.Linf(2, 1),
		shape.L1(2, 2),
		shape.L2(2, 2),
	}
	ctx := context.Background()
	pairHits := 0
	for round := 0; round < 3; round++ {
		snap, err := cl.Epochs().Acquire()
		if err != nil {
			t.Fatal(err)
		}
		base, err := snap.Gather("A")
		if err != nil {
			t.Fatal(err)
		}
		for si, qs := range shapes {
			oracle := reference(t, cold, base, qs)
			for _, mode := range []Mode{Auto, ForceView, ForceComplete} {
				want, err := cold.AnswerSnapshot(ctx, snap, nil, qs, mode)
				if err != nil {
					t.Fatal(err)
				}
				if !statesEqual(want.Array, oracle) {
					t.Fatalf("round %d shape %d mode %v: answer diverges from the materialized reference",
						round, si, mode)
				}
				// Twice: the second answer must hit the warm caches.
				for rep := 0; rep < 2; rep++ {
					before := ctrs.Snapshot()
					got, err := fast.AnswerSnapshot(ctx, snap, nil, qs, mode)
					if err != nil {
						t.Fatal(err)
					}
					if after := ctrs.Snapshot(); rep == 1 && mode == Auto && got.Choice.Delta != nil {
						// One Δ lookup plus the two pair lists it priced.
						if after.MemoMisses != before.MemoMisses || after.MemoHits-before.MemoHits != 3 {
							t.Fatalf("round %d shape %d: repeated Auto answer missed the pair memo: %+v -> %+v",
								round, si, before, after)
						}
						pairHits++
					}
					if answerBytes(got.Array) != answerBytes(want.Array) {
						t.Fatalf("round %d shape %d mode %v rep %d: fast path diverges from cold path",
							round, si, mode, rep)
					}
					if got.Choice.UseView != want.Choice.UseView {
						t.Fatalf("round %d shape %d mode %v: decision diverges", round, si, mode)
					}
				}
			}
		}
		snap.Release()
		insertBatch(t, m, cl, round, 6)
	}
	s := ctrs.Snapshot()
	if s.ViewHits == 0 || s.MemoHits == 0 || pairHits == 0 {
		t.Fatalf("fast path never engaged (%d pair-memo hits): %+v", pairHits, s)
	}
	if s.ViewInvalidations == 0 {
		t.Fatalf("epoch publishes never invalidated cached views: %+v", s)
	}
}

// TestFastPathNeverServesStaleEpoch commits a view-content change and
// checks the cached path answers the new epoch with the new content — the
// epoch-keyed cache must not leak epoch-N data into epoch-N+1 answers.
func TestFastPathNeverServesStaleEpoch(t *testing.T) {
	cold, _ := setup(t, 13, shape.L1(2, 1))
	cl := cold.Cluster
	cl.Epochs().Enable()
	ctrs := &obs.FastPathCounters{}
	fast := fastEngine(cold, ctrs)
	ctx := context.Background()
	viewShape := shape.L1(2, 1)

	snap1, err := cl.Epochs().Acquire()
	if err != nil {
		t.Fatal(err)
	}
	res1, err := fast.AnswerSnapshot(ctx, snap1, nil, viewShape, Auto)
	if err != nil {
		t.Fatal(err)
	}
	old := answerBytes(res1.Array)

	// Commit: overwrite one chunk of the view itself and publish.
	commitBaseChange(t, cl, "V", 0)

	snap2, err := cl.Epochs().Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap2.Release()
	got, err := fast.AnswerSnapshot(ctx, snap2, nil, viewShape, Auto)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.AnswerSnapshot(ctx, snap2, nil, viewShape, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if answerBytes(got.Array) != answerBytes(want.Array) {
		t.Fatal("epoch 2 cached answer diverges from cold gather")
	}
	if answerBytes(got.Array) == old {
		t.Fatal("epoch 2 answer served epoch 1 view content")
	}
	// The still-pinned epoch-1 snapshot keeps answering epoch-1 content.
	res1b, err := fast.AnswerSnapshot(ctx, snap1, nil, viewShape, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if answerBytes(res1b.Array) != old {
		t.Fatal("pinned epoch 1 snapshot changed its answer after the commit")
	}
	snap1.Release()
}

// TestFastPathConcurrentAnswersUnderCommits hammers the cached path from
// many goroutines while commits publish fresh epochs, comparing every
// answer against the cold path on the same snapshot. Run under -race this
// exercises the shared warmed view, the COW overlays, the memo, and the
// parallel join together.
func TestFastPathConcurrentAnswersUnderCommits(t *testing.T) {
	cold, _ := setup(t, 23, shape.L1(2, 1))
	cl := cold.Cluster
	cl.Epochs().Enable()
	ctrs := &obs.FastPathCounters{}
	fast := fastEngine(cold, ctrs)
	ctx := context.Background()
	shapes := []*shape.Shape{shape.L1(2, 1), shape.Linf(2, 1), shape.L1(2, 2)}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := cl.Epochs().Acquire()
				if err != nil {
					errs <- err
					return
				}
				qs := shapes[(g+i)%len(shapes)]
				got, err := fast.AnswerSnapshot(ctx, snap, nil, qs, ForceView)
				if err != nil {
					snap.Release()
					errs <- fmt.Errorf("fast: %w", err)
					return
				}
				want, err := cold.AnswerSnapshot(ctx, snap, nil, qs, ForceView)
				if err != nil {
					snap.Release()
					errs <- fmt.Errorf("cold: %w", err)
					return
				}
				if answerBytes(got.Array) != answerBytes(want.Array) {
					snap.Release()
					errs <- fmt.Errorf("goroutine %d iter %d: fast/cold divergence at epoch %d", g, i, snap.Epoch())
					return
				}
				snap.Release()
			}
		}(g)
	}
	for round := 0; round < 5; round++ {
		commitBaseChange(t, cl, "A", round)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPairMemoSkipsLiveView: with epochs off a snapshot is the unpinned
// live catalog at epoch 0, whose chunk set the next commit can change, so
// its pair lists are priced and joined but never memoized.
func TestPairMemoSkipsLiveView(t *testing.T) {
	eng, _ := setup(t, 9, shape.L1(2, 1))
	eng.Fast = NewFastPath(0, nil)
	eng.Fast.Views = nil
	res, err := eng.Answer(shape.Linf(2, 1), Auto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Choice.CompleteCost <= 0 {
		t.Fatalf("unpriced decision: %+v", res.Choice)
	}
	if n := len(eng.Fast.pairs); n != 0 {
		t.Fatalf("%d pair lists memoized at epoch 0", n)
	}
}
