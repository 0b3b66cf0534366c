package query

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/shape"
	"github.com/arrayview/arrayview/internal/storage"
)

// countingFabric counts chunk reads per array on the way to its inner
// fabric.
type countingFabric struct {
	cluster.Fabric
	mu   sync.Mutex
	gets map[string]int
}

func (f *countingFabric) Get(node int, arrayName string, key array.ChunkKey) (*array.Chunk, error) {
	f.mu.Lock()
	f.gets[arrayName]++
	f.mu.Unlock()
	return f.Fabric.Get(node, arrayName, key)
}

func (f *countingFabric) count(arrayName string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gets[arrayName]
}

// viewPatchFixture is a fast-path engine over a cluster whose fabric counts
// reads (inside a FaultFabric), with epochs on and a real maintainer.
type viewPatchFixture struct {
	eng   *Engine
	cl    *cluster.Cluster
	cf    *countingFabric
	ff    *cluster.FaultFabric
	m     *maintain.Maintainer
	views *cluster.ViewCache
	ctrs  *obs.FastPathCounters

	// prev is the cached view read at the last checked epoch.
	prev *array.Array
}

func newViewPatchFixture(t *testing.T, seed int64) *viewPatchFixture {
	t.Helper()
	stores := make([]*storage.Store, 3)
	for i := range stores {
		stores[i] = storage.NewStore()
	}
	cf := &countingFabric{Fabric: cluster.NewLocalFabric(stores), gets: make(map[string]int)}
	ff := cluster.NewFaultFabric(cf, seed)
	cold, _ := setup(t, seed, shape.L1(2, 1), cluster.WithFabric(ff.AsFabric()))
	cl := cold.Cluster
	cl.Epochs().Enable()
	ctrs := &obs.FastPathCounters{}
	fast := fastEngine(cold, ctrs)
	m, err := maintain.NewMaintainer(cl, cold.Def, nil, maintain.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return &viewPatchFixture{eng: fast, cl: cl, cf: cf, ff: ff, m: m, views: fast.Fast.Views, ctrs: ctrs}
}

// check reads the cached view at the current epoch and requires it to equal
// the snapshot's gather. A patched build must re-read exactly the view
// chunks the epoch's commit wrote plus the chunks new at the epoch, and every
// chunk whose content changed must be in the write set; a full build reads
// every chunk. It returns the cached array.
func (fx *viewPatchFixture) check(t *testing.T, step string, patched bool) *array.Array {
	t.Helper()
	name := fx.eng.Def.Name
	snap, err := fx.cl.Epochs().Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	before, reads := fx.ctrs.Snapshot(), fx.cf.count(name)
	arr, release, err := fx.views.Acquire(name, snap, nil)
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	defer release()
	reread := fx.cf.count(name) - reads
	after := fx.ctrs.Snapshot()

	want, err := snap.Gather(name)
	if err != nil {
		t.Fatal(err)
	}
	if !arr.Equal(want) {
		t.Fatalf("%s: cached view at epoch %d differs from its gather", step, snap.Epoch())
	}
	keys := snap.Keys(name)
	if !patched {
		if after.ViewPatches != before.ViewPatches || reread != len(keys) {
			t.Fatalf("%s: full gather read %d of %d chunks, patches %d -> %d",
				step, reread, len(keys), before.ViewPatches, after.ViewPatches)
		}
		fx.prev = arr
		return arr
	}
	written, ok := snap.Written(name)
	if !ok {
		t.Fatalf("%s: epoch %d has no write set", step, snap.Epoch())
	}
	wantReads := 0
	for _, k := range keys {
		old := fx.prev.ChunkByKey(k)
		if _, w := written[k]; w || old == nil {
			wantReads++
			continue
		}
		if string(array.EncodeChunk(old)) != string(array.EncodeChunk(want.ChunkByKey(k))) {
			t.Fatalf("%s: chunk %v changed content outside the write set", step, k)
		}
	}
	if after.ViewPatches != before.ViewPatches+1 || reread != wantReads {
		t.Fatalf("%s: patch read %d chunks, want %d (%d written, %d keys); patches %d -> %d",
			step, reread, wantReads, len(written), len(keys), before.ViewPatches, after.ViewPatches)
	}
	fx.prev = arr
	return arr
}

// TestFastPathViewPatchMatchesGather walks the assembled-view cache through
// every kind of publish — insert and delete batches, a batch rolled back
// mid-commit, a view-chunk rehome, a publish with no commit, and two
// publishes with no read between — and checks each epoch's cached view
// against a full gather of the same epoch, counting the chunk reads.
func TestFastPathViewPatchMatchesGather(t *testing.T) {
	fx := newViewPatchFixture(t, 31)
	cl, m := fx.cl, fx.m
	name := fx.eng.Def.Name
	fx.check(t, "first epoch", false)

	var inserted []*array.Array
	for round := 1; round <= 2; round++ {
		delta := freshCells(t, cl, round, 6)
		if _, err := m.ApplyBatch(delta); err != nil {
			t.Fatal(err)
		}
		inserted = append(inserted, delta)
		arr := fx.check(t, fmt.Sprintf("insert %d", round), true)
		if w := writtenNow(t, cl, name); len(w) == 0 || len(w) >= arr.NumChunks() {
			t.Fatalf("insert %d wrote %d of %d view chunks", round, len(w), arr.NumChunks())
		}
	}

	if _, err := m.ApplyDelete(inserted[0]); err != nil {
		t.Fatal(err)
	}
	fx.check(t, "delete", true)

	// Fail the commit's second chunk write: the first view chunk is already
	// overwritten, so the rollback restores it and publishes the pre-batch
	// state under a non-empty write set.
	injected := errors.New("injected commit failure")
	rule := fx.ff.Inject(&cluster.FaultRule{Node: cluster.AnyNode, Op: "Has", Kind: cluster.FaultError,
		After: 1, Count: 1, Err: injected})
	if _, err := m.ApplyBatch(freshCells(t, cl, 3, 6)); !errors.Is(err, injected) {
		t.Fatalf("batch under a commit fault: err = %v, want the injected failure", err)
	}
	fx.ff.ClearRules()
	if rule.Fired() != 1 {
		t.Fatalf("commit fault fired %d times", rule.Fired())
	}
	if w := writtenNow(t, cl, name); len(w) == 0 {
		t.Fatal("the rolled-back batch wrote no view chunk before failing")
	}
	fx.check(t, "rollback", true)

	// Move one view chunk the batch does not touch: same content, new home.
	p, err := m.Prepare(maintain.Batch{Alpha: freshCells(t, cl, 4, 6)})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := m.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	moved := array.ChunkKey("")
	for _, k := range cl.Catalog().Keys(name) {
		if _, affected := plan.ViewHome[k]; !affected {
			home, _ := cl.Catalog().Home(name, k)
			plan.ViewHome[k] = (home + 1) % cl.NumNodes()
			moved = k
			break
		}
	}
	if moved == "" {
		t.Fatal("every view chunk is affected by the batch")
	}
	if _, err := m.Run(p, plan); err != nil {
		t.Fatal(err)
	}
	prev := fx.prev
	arr := fx.check(t, "rehome", true)
	if arr.ChunkByKey(moved) == prev.ChunkByKey(moved) {
		t.Error("the rehomed chunk was not re-read")
	}

	cl.Epochs().Publish()
	if got := fx.check(t, "publish with no commit", true); got != arr {
		t.Error("a publish with no commit should share the previous epoch's array")
	}

	cl.Epochs().Publish()
	cl.Epochs().Publish()
	fx.check(t, "two publishes with no read between", false)

	insertBatch(t, m, cl, 5, 6)
	fx.check(t, "insert after a full gather", true)
}

// writtenNow returns the write set of the named array at the current epoch.
func writtenNow(t *testing.T, cl *cluster.Cluster, name string) map[array.ChunkKey]struct{} {
	t.Helper()
	snap, err := cl.Epochs().Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	keys, ok := snap.Written(name)
	if !ok {
		t.Fatalf("epoch %d has no write set", snap.Epoch())
	}
	return keys
}

// TestFastPathViewPatchConcurrentReaders reads the cached view from several
// goroutines while real maintenance batches commit, comparing every read
// against a gather at the same snapshot: patch builds, pinned bases and
// stale reclaims race each other here, so run it under -race.
func TestFastPathViewPatchConcurrentReaders(t *testing.T) {
	fx := newViewPatchFixture(t, 37)
	cl, name := fx.cl, fx.eng.Def.Name

	var wg sync.WaitGroup
	errs := make(chan error, 8)
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
				if err := readMatchesGather(cl, fx.views, name); err != nil {
					errs <- fmt.Errorf("reader %d, read %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	for round := 0; round < 6; round++ {
		insertBatch(t, fx.m, cl, round, 5)
		if round%3 == 2 {
			cl.Epochs().Publish()
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := fx.ctrs.Snapshot(); s.ViewPatches == 0 {
		t.Fatalf("no read was patched from the previous epoch: %+v", s)
	}
}

// readMatchesGather pins the current epoch and compares its cached view
// with a full gather at the same snapshot.
func readMatchesGather(cl *cluster.Cluster, views *cluster.ViewCache, name string) error {
	snap, err := cl.Epochs().Acquire()
	if err != nil {
		return err
	}
	defer snap.Release()
	arr, release, err := views.Acquire(name, snap, nil)
	if err != nil {
		return err
	}
	defer release()
	want, err := snap.Gather(name)
	if err != nil {
		return err
	}
	if !arr.Equal(want) {
		return fmt.Errorf("cached view at epoch %d differs from its gather", snap.Epoch())
	}
	return nil
}
