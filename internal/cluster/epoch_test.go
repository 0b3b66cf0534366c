package cluster

import (
	"testing"

	"github.com/arrayview/arrayview/internal/array"
)

// epochCluster loads the Figure 1 array on 3 nodes and enables snapshots.
func epochCluster(t *testing.T) (*Cluster, *array.Array) {
	t.Helper()
	cl, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	a := fig1Array()
	if err := cl.LoadArray(a, &RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	cl.Epochs().Enable()
	return cl, a
}

// overwriteChunk simulates what the committer does to one chunk: retain the
// pre-image, overwrite the store copy, update the catalog, and publish.
func overwriteChunk(t *testing.T, cl *Cluster, name string, key array.ChunkKey, ch *array.Chunk) {
	t.Helper()
	home, ok := cl.Catalog().Home(name, key)
	if !ok {
		t.Fatalf("chunk %v has no home", key)
	}
	prev, err := cl.GetAt(home, name, key)
	if err != nil {
		t.Fatal(err)
	}
	cl.Epochs().Retain(name, key, prev)
	if err := cl.PutAt(home, name, ch); err != nil {
		t.Fatal(err)
	}
	if err := cl.Catalog().SetChunk(name, key, home, ch.SizeBytes(), ch.NumCells()); err != nil {
		t.Fatal(err)
	}
	cl.Epochs().Publish()
}

func TestEpochSnapshotSeesRetainedVersion(t *testing.T) {
	cl, a := epochCluster(t)
	es := cl.Epochs()
	if es.Current() != 1 {
		t.Fatalf("Current = %d after Enable, want 1", es.Current())
	}

	old, err := es.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer old.Release()

	// Overwrite one chunk with modified content and publish epoch 2.
	mod := array.New(fig1Schema())
	if err := mod.Set(array.Point{1, 2}, array.Tuple{99, 99}); err != nil {
		t.Fatal(err)
	}
	newCh := mod.ChunkByKey(mod.ChunkKeys()[0])
	key := newCh.Key()
	if a.ChunkByKey(key) == nil {
		t.Fatalf("base array has no chunk %v", key)
	}
	overwriteChunk(t, cl, "A", key, newCh)

	// The pinned snapshot must still see the pre-image.
	got, err := old.Chunk("A", key)
	if err != nil {
		t.Fatal(err)
	}
	if string(array.EncodeChunk(got)) != string(array.EncodeChunk(a.ChunkByKey(key))) {
		t.Error("pinned snapshot observed the overwritten content")
	}

	// A fresh snapshot at epoch 2 sees the new content.
	cur, err := es.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Release()
	if cur.Epoch() != 2 {
		t.Fatalf("fresh snapshot epoch = %d, want 2", cur.Epoch())
	}
	got2, err := cur.Chunk("A", key)
	if err != nil {
		t.Fatal(err)
	}
	if string(array.EncodeChunk(got2)) != string(array.EncodeChunk(newCh)) {
		t.Error("fresh snapshot did not observe the committed content")
	}
}

func TestEpochReclaimOnRelease(t *testing.T) {
	cl, a := epochCluster(t)
	es := cl.Epochs()
	snap, err := es.Acquire()
	if err != nil {
		t.Fatal(err)
	}

	key := a.ChunkKeys()[1]
	home, _ := cl.Catalog().Home("A", key)
	prev, err := cl.GetAt(home, "A", key)
	if err != nil {
		t.Fatal(err)
	}
	es.Retain("A", key, prev)
	es.Publish()

	if st := es.Stats(); st.Pins != 1 || st.RetainedVers != 1 || st.RetainedBytes <= 0 {
		t.Fatalf("before release: %+v, want 1 pin, 1 retained version", st)
	}
	snap.Release()
	snap.Release() // idempotent
	if st := es.Stats(); st.Pins != 0 || st.RetainedVers != 0 || st.RetainedBytes != 0 {
		t.Fatalf("after release: %+v, want everything reclaimed", st)
	}
}

func TestEpochRetainFirstPreImageWins(t *testing.T) {
	cl, a := epochCluster(t)
	es := cl.Epochs()
	snap, err := es.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()

	// Two retentions of the same chunk within one epoch: the second is
	// intra-batch state no reader can have pinned, so the first sticks.
	mod := array.New(fig1Schema())
	if err := mod.Set(array.Point{1, 2}, array.Tuple{7, 7}); err != nil {
		t.Fatal(err)
	}
	second := mod.ChunkByKey(mod.ChunkKeys()[0])
	key := second.Key()
	first := a.ChunkByKey(key)
	es.Retain("A", key, first)
	es.Retain("A", key, second)
	if st := es.Stats(); st.RetainedVers != 1 {
		t.Fatalf("retained %d versions, want 1", st.RetainedVers)
	}
	if enc, ok := es.lookupRetained("A", key, snap.Epoch()); !ok ||
		string(enc) != string(array.EncodeChunk(first)) {
		t.Error("retained lookup must return the first pre-image of the epoch")
	}
}

func TestEpochScratchNamespacesInvisible(t *testing.T) {
	cl, _ := epochCluster(t)
	// A staged scratch array must never appear in a published epoch.
	sch := array.MustSchema("A#stage",
		[]array.Dimension{{Name: "i", Start: 1, End: 6, ChunkSize: 2}},
		[]array.Attribute{{Name: "r", Type: array.Int64}},
	)
	if err := cl.Catalog().Register(sch); err != nil {
		t.Fatal(err)
	}
	cl.Epochs().Publish()
	snap, err := cl.Epochs().Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	for _, n := range snap.Names() {
		if n != "A" {
			t.Errorf("snapshot exposes %q; scratch namespaces must be filtered", n)
		}
	}
	if snap.Schema("A#stage") != nil {
		t.Error("snapshot resolves a scratch schema")
	}
}

func TestEpochDisabledIsFree(t *testing.T) {
	cl, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	es := cl.Epochs()
	if es.Enabled() {
		t.Fatal("epochs must start disabled")
	}
	if ep := es.Publish(); ep != 0 {
		t.Fatalf("Publish while disabled = %d, want 0", ep)
	}
	es.Retain("A", array.ChunkKey("k"), nil)
	if _, err := es.Acquire(); err == nil {
		t.Fatal("Acquire must fail while disabled")
	}
	if st := es.Stats(); st.RetainedVers != 0 {
		t.Fatalf("disabled manager retained %d versions", st.RetainedVers)
	}
}

// A published epoch's write set is every durable key Retain saw since the
// previous publish — a write into an empty slot included, scratch arrays
// excluded — and exists only for an epoch that directly follows epoch-1.
func TestEpochWriteSet(t *testing.T) {
	cl, a := epochCluster(t)
	es := cl.Epochs()
	first, err := es.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := first.Written("A"); ok {
		t.Error("the first epoch has no epoch-1 for a write set")
	}
	first.Release()

	keys := a.ChunkKeys()
	es.Retain("A", keys[2], a.ChunkByKey(keys[2]))
	es.Retain("A", keys[0], nil)
	es.Retain("A", keys[2], a.ChunkByKey(keys[2]))
	es.Retain("A#stage", keys[1], nil)
	es.Publish()
	snap, err := es.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := snap.Written("A")
	_, has0 := got[keys[0]]
	_, has2 := got[keys[2]]
	if !ok || len(got) != 2 || !has0 || !has2 {
		t.Errorf("write set = %v (ok=%v), want {%v, %v}", got, ok, keys[0], keys[2])
	}
	if got, _ := snap.Written("A#stage"); len(got) != 0 {
		t.Errorf("scratch array in the write set: %v", got)
	}
	snap.Release()

	es.Publish()
	snap, err = es.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := snap.Written("A"); !ok || len(got) != 0 {
		t.Errorf("publish with no commit: write set %v (ok=%v), want empty", got, ok)
	}
	snap.Release()

	es.FastForward(es.Current() + 5)
	es.Publish()
	snap, err = es.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if _, ok := snap.Written("A"); ok {
		t.Error("an epoch after FastForward has no epoch-1 for a write set")
	}
}
