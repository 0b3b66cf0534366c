package cluster

import (
	"sync"
	"testing"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/obs"
)

func TestViewCacheHitSharesOneGather(t *testing.T) {
	cl, _ := epochCluster(t)
	ctrs := &obs.FastPathCounters{}
	vc := NewViewCache(0, ctrs)

	snap, err := cl.Epochs().Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()

	a1, rel1, err := vc.Acquire("A", snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	a2, rel2, err := vc.Acquire("A", snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("same (view, epoch) should share one assembled array")
	}
	s := ctrs.Snapshot()
	if s.ViewMisses != 1 || s.ViewHits != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", s.ViewHits, s.ViewMisses)
	}
	if s.ViewBytes <= 0 || vc.Bytes() != s.ViewBytes {
		t.Fatalf("byte gauge %d vs cache %d", s.ViewBytes, vc.Bytes())
	}
	rel1()
	rel2()
}

func TestViewCacheSingleflight(t *testing.T) {
	cl, _ := epochCluster(t)
	ctrs := &obs.FastPathCounters{}
	vc := NewViewCache(0, ctrs)
	snap, err := cl.Epochs().Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()

	var wg sync.WaitGroup
	arrs := make([]*array.Array, 8)
	for i := range arrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, rel, err := vc.Acquire("A", snap, nil)
			if err != nil {
				t.Error(err)
				return
			}
			a.EachCell(func(p array.Point, tup array.Tuple) bool { return true })
			arrs[i] = a
			rel()
		}(i)
	}
	wg.Wait()
	for _, a := range arrs[1:] {
		if a != arrs[0] {
			t.Fatal("concurrent acquires returned different arrays")
		}
	}
	if s := ctrs.Snapshot(); s.ViewMisses != 1 {
		t.Fatalf("misses = %d, want exactly one builder", s.ViewMisses)
	}
}

func TestViewCacheInvalidationOnPublish(t *testing.T) {
	cl, _ := epochCluster(t)
	ctrs := &obs.FastPathCounters{}
	vc := NewViewCache(0, ctrs)
	cl.Epochs().OnPublish(vc.InvalidateBefore)

	oldSnap, err := cl.Epochs().Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer oldSnap.Release()
	oldArr, oldRel, err := vc.Acquire("A", oldSnap, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Commit: overwrite one chunk, publish epoch 2. The pinned old entry is
	// marked stale but survives until its release.
	mod := array.New(fig1Schema())
	if err := mod.Set(array.Point{1, 2}, array.Tuple{99, 99}); err != nil {
		t.Fatal(err)
	}
	newCh := mod.ChunkByKey(mod.ChunkKeys()[0])
	overwriteChunk(t, cl, "A", newCh.Key(), newCh)

	// The old view still answers its epoch's content.
	if tup, ok := oldArr.Get(array.Point{1, 2}); ok && tup[0] == 99 {
		t.Fatalf("stale pinned view observed the new commit: %v", tup)
	}

	newSnap, err := cl.Epochs().Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer newSnap.Release()
	newArr, newRel, err := vc.Acquire("A", newSnap, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer newRel()
	if newArr == oldArr {
		t.Fatal("epoch 2 acquire returned the epoch 1 view")
	}
	if tup, ok := newArr.Get(array.Point{1, 2}); !ok || tup[0] != 99 {
		t.Fatalf("epoch 2 view missing committed write: %v (ok=%v)", tup, ok)
	}

	// Releasing the stale pin reclaims its bytes; only the fresh entry stays.
	before := vc.Bytes()
	oldRel()
	if after := vc.Bytes(); after >= before {
		t.Fatalf("stale entry not reclaimed on release: bytes %d -> %d", before, after)
	}
}

func TestViewCacheEviction(t *testing.T) {
	cl, _ := epochCluster(t)
	ctrs := &obs.FastPathCounters{}
	vc := NewViewCache(1, ctrs) // budget far below one view

	snap, err := cl.Epochs().Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	_, rel, err := vc.Acquire("A", snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	rel()
	// The entry was pinned during build, so it survives until a later
	// insert triggers eviction. Publish a new epoch and acquire again.
	cl.Epochs().Publish()
	snap2, err := cl.Epochs().Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap2.Release()
	_, rel2, err := vc.Acquire("A", snap2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rel2()
	if s := ctrs.Snapshot(); s.ViewEvictions == 0 {
		t.Fatal("over-budget cache never evicted")
	}
}

// acquireView pins the current epoch and acquires the cached view of A
// there; the returned func releases both.
func acquireView(t *testing.T, cl *Cluster, vc *ViewCache) (*array.Array, *Snapshot, func()) {
	t.Helper()
	snap, err := cl.Epochs().Acquire()
	if err != nil {
		t.Fatal(err)
	}
	arr, rel, err := vc.Acquire("A", snap, nil)
	if err != nil {
		snap.Release()
		t.Fatal(err)
	}
	return arr, snap, func() { rel(); snap.Release() }
}

// A pinned entry that goes stale is reclaimed by its last release, and that
// reclaim is counted: every entry dropped for age counts once.
func TestViewCacheInvalidationCountedOnRelease(t *testing.T) {
	cl, _ := epochCluster(t)
	ctrs := &obs.FastPathCounters{}
	vc := NewViewCache(0, ctrs)
	cl.Epochs().OnPublish(vc.InvalidateBefore)

	_, _, release := acquireView(t, cl, vc)
	for i := 0; i < 3; i++ {
		cl.Epochs().Publish()
	}
	if s := ctrs.Snapshot(); s.ViewInvalidations != 0 {
		t.Fatalf("pinned entry counted before its release: %+v", s)
	}
	release()
	if s := ctrs.Snapshot(); s.ViewInvalidations != 1 || vc.Bytes() != 0 {
		t.Fatalf("after release: invalidations %d, bytes %d; want 1 and 0", s.ViewInvalidations, vc.Bytes())
	}
	cl.Epochs().Publish()
	if s := ctrs.Snapshot(); s.ViewInvalidations != 1 {
		t.Fatalf("entry counted twice: %d invalidations", s.ViewInvalidations)
	}
}

// The entry at epoch E is epoch E-1's with only the written chunks
// re-read: unwritten chunks are the same objects, a publish with no commit
// shares the whole array, and a gap of two publishes gathers in full.
func TestViewCachePatchesFromPreviousEpoch(t *testing.T) {
	cl, _ := epochCluster(t)
	ctrs := &obs.FastPathCounters{}
	vc := NewViewCache(0, ctrs)
	cl.Epochs().OnPublish(vc.InvalidateBefore)

	v1, _, rel1 := acquireView(t, cl, vc)
	rel1()

	mod := array.New(fig1Schema())
	if err := mod.Set(array.Point{1, 2}, array.Tuple{99, 99}); err != nil {
		t.Fatal(err)
	}
	newCh := mod.ChunkByKey(mod.ChunkKeys()[0])
	overwriteChunk(t, cl, "A", newCh.Key(), newCh)

	v2, snap2, rel2 := acquireView(t, cl, vc)
	want, err := snap2.Gather("A")
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Equal(want) {
		t.Fatal("patched view differs from the gathered view")
	}
	for _, k := range v2.ChunkKeys() {
		shared := v2.ChunkByKey(k) == v1.ChunkByKey(k)
		if shared == (k == newCh.Key()) {
			t.Errorf("chunk %v: shared=%v, want shared exactly when unwritten", k, shared)
		}
	}
	rel2()
	if s := ctrs.Snapshot(); s.ViewPatches != 1 || s.ViewMisses != 2 || s.ViewInvalidations != 1 {
		t.Fatalf("after one patch: %+v", s)
	}

	cl.Epochs().Publish()
	v3, _, rel3 := acquireView(t, cl, vc)
	rel3()
	if v3 != v2 {
		t.Error("a publish with no commit should share the previous array")
	}

	cl.Epochs().Publish()
	cl.Epochs().Publish()
	v5, snap5, rel5 := acquireView(t, cl, vc)
	defer rel5()
	if want, err := snap5.Gather("A"); err != nil || !v5.Equal(want) {
		t.Fatalf("gathered view differs (err %v)", err)
	}
	if s := ctrs.Snapshot(); s.ViewPatches != 2 || s.ViewMisses != 4 {
		t.Fatalf("two publishes with no read between must gather in full: %+v", s)
	}
	if v5.ChunkByKey(newCh.Key()) == v3.ChunkByKey(newCh.Key()) {
		t.Error("a full gather shares chunks with an older entry")
	}
}
