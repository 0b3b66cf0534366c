package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/storage"
)

// foldDir folds the live generation's meta log the way Open does and
// returns the last record and the catalog it folds to.
func foldDir(t *testing.T, fs FS) (*metaRecord, []catArray) {
	t.Helper()
	cur, err := fs.ReadFile("CURRENT")
	if err != nil {
		t.Fatal(err)
	}
	gen, diffs, err := parseCurrent(cur)
	if err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile(fmt.Sprintf("gen-%d/meta.wal", gen))
	if err != nil {
		t.Fatal(err)
	}
	rec, cat, err := foldMeta(data, diffs)
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatal("meta log holds no record")
	}
	return rec, cat
}

func catalogJSON(t *testing.T, cat []catArray) []byte {
	t.Helper()
	b, err := json.Marshal(cat)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// requireFoldsToLive fails unless the on-disk meta log folds to the live
// catalog, byte for byte in the record encoding.
func requireFoldsToLive(t *testing.T, fs FS, cl *cluster.Cluster, step string) {
	t.Helper()
	_, got := foldDir(t, fs)
	if want := exportCatalog(cl.Catalog()); !bytes.Equal(catalogJSON(t, got), catalogJSON(t, want)) {
		t.Fatalf("%s: the meta log folds to a catalog that differs from the live one", step)
	}
}

// foldCheckingSink runs a check after every barrier the maintenance layer
// issues through it.
type foldCheckingSink struct {
	*Durable
	after func(kind string)
}

func (s *foldCheckingSink) CommitBarrier() error {
	return s.check("commit", s.Durable.CommitBarrier())
}
func (s *foldCheckingSink) CommitBarrierRetire() error {
	return s.check("commit", s.Durable.CommitBarrierRetire())
}
func (s *foldCheckingSink) RollbackBarrier() error {
	return s.check("rollback", s.Durable.RollbackBarrier())
}
func (s *foldCheckingSink) RetireBarrier() error {
	return s.check("skip", s.Durable.RetireBarrier())
}
func (s *foldCheckingSink) check(kind string, err error) error {
	if err == nil {
		s.after(kind)
	}
	return err
}

// Every barrier after the checkpoint writes a catalog diff, and after each
// one the meta log must fold to exactly the live catalog: through insert
// batches, a deletion batch, a batch rolled back by an injected commit
// fault, a replica ship and a rehome, and an array registered then
// dropped. The directory then recovers to the same catalog and contents.
func TestBarrierDiffFoldsToCatalog(t *testing.T) {
	data, def := testData(t)
	stores := make([]*storage.Store, testNodes)
	for i := range stores {
		stores[i] = storage.NewStore()
	}
	ff := cluster.NewFaultFabric(cluster.NewLocalFabric(stores), 11)
	cl, err := cluster.New(testNodes, cluster.WithWorkersPerNode(2), cluster.WithFabric(ff.AsFabric()))
	if err != nil {
		t.Fatal(err)
	}
	// The fault fabric wraps in-process stores; expose them to the
	// durable store, which journals them directly.
	for i, s := range stores {
		cl.Node(i).Store = s
	}
	if err := cl.LoadArray(data.Base, testPlacement()); err != nil {
		t.Fatal(err)
	}
	if err := maintain.BuildView(cl, def, testPlacement()); err != nil {
		t.Fatal(err)
	}
	m := newMaintainer(t, cl, def)

	fs := NewMemFS()
	d, _, err := Open(fs, testNodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Attach(cl); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	step := "attach"
	cl.SetDurable(&foldCheckingSink{Durable: d, after: func(kind string) {
		kinds[kind]++
		rec, _ := foldDir(t, fs)
		if rec.Diff == nil {
			t.Fatalf("%s: %s barrier wrote a full record", step, kind)
		}
		requireFoldsToLive(t, fs, cl, step)
	}})
	requireFoldsToLive(t, fs, cl, step)

	for i := 0; i < 3; i++ {
		step = fmt.Sprintf("insert batch %d", i)
		if _, err := m.ApplyBatch(data.Batches[i]); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}

	step = "delete batch"
	if _, err := m.ApplyDelete(data.Batches[1]); err != nil {
		t.Fatalf("%s: %v", step, err)
	}

	step = "rolled-back batch"
	injected := errors.New("injected commit failure")
	rule := ff.Inject(&cluster.FaultRule{Node: cluster.AnyNode, Op: "Has", Kind: cluster.FaultError,
		After: 1, Count: 1, Err: injected})
	if _, err := m.ApplyBatch(data.Batches[3]); !errors.Is(err, injected) {
		t.Fatalf("%s: err = %v, want the injected failure", step, err)
	}
	ff.ClearRules()
	if rule.Fired() != 1 || kinds["rollback"] == 0 {
		t.Fatalf("%s: fault fired %d times, %d rollback barriers", step, rule.Fired(), kinds["rollback"])
	}

	// Ship one view chunk to a second node, then move its home there.
	cat := cl.Catalog()
	key := cat.Keys(def.Name)[0]
	from, _ := cat.Home(def.Name, key)
	to := (from + 1) % testNodes
	step = "replica ship"
	if err := cl.Transfer(nil, def.Name, key, from, to); err != nil {
		t.Fatal(err)
	}
	if err := cl.Durable().CommitBarrier(); err != nil {
		t.Fatal(err)
	}
	step = "rehome"
	if err := cat.Rehome(def.Name, key, to, true); err != nil {
		t.Fatal(err)
	}
	if err := cl.Durable().CommitBarrier(); err != nil {
		t.Fatal(err)
	}

	extra := array.New(oneDim("extra", 100))
	for i := int64(0); i < 40; i += 3 {
		if err := extra.Set(array.Point{i}, array.Tuple{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	step = "register"
	if err := cl.LoadArray(extra, cluster.HashPlacement{}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Durable().CommitBarrier(); err != nil {
		t.Fatal(err)
	}
	step = "drop"
	cat.Drop("extra")
	for i := 0; i < testNodes; i++ {
		if _, err := cl.DropArrayAt(i, "extra"); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Durable().CommitBarrier(); err != nil {
		t.Fatal(err)
	}
	if kinds["commit"] < 8 {
		t.Fatalf("only %d commit barriers checked", kinds["commit"])
	}

	wantBase, wantView := gatherState(t, cl, def)
	want := catalogJSON(t, exportCatalog(cat))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(fs, testNodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl2, _ := cluster.New(testNodes, cluster.WithWorkersPerNode(2))
	if err := rec.Install(cl2); err != nil {
		t.Fatal(err)
	}
	if got := catalogJSON(t, exportCatalog(cl2.Catalog())); !bytes.Equal(got, want) {
		t.Fatal("the installed catalog differs from the live one")
	}
	gotBase, gotView := gatherState(t, cl2, def)
	if !sameArray(gotBase, wantBase) || !sameArray(gotView, wantView) {
		t.Fatal("recovered contents differ from the live ones")
	}
}

// oneDim is a one-dimensional schema of n cells in chunks of ten.
func oneDim(name string, n int64) *array.Schema {
	return array.MustSchema(name, []array.Dimension{{Name: "i", Start: 0, End: n - 1, ChunkSize: 10}},
		[]array.Attribute{{Name: "v"}})
}

// rewriteAsFullRecords turns a diff-format directory into the format that
// predates diffs: every record of the live generation's meta log becomes
// the full record it folds to, and CURRENT names the bare generation.
func rewriteAsFullRecords(t *testing.T, fs *FaultFS) {
	t.Helper()
	cur, _ := fs.ReadFile("CURRENT")
	gen, _, err := parseCurrent(cur)
	if err != nil {
		t.Fatal(err)
	}
	dir := fmt.Sprintf("gen-%d", gen)
	data, _ := fs.ReadFile(dir + "/meta.wal")
	var out []byte
	var prefix []byte
	frames(data, func(payload []byte, _ int64) bool {
		prefix = appendFrame(prefix, payload)
		rec, cat, err := foldMeta(prefix, true)
		if err != nil {
			t.Fatal(err)
		}
		rec.Catalog, rec.Diff = cat, nil
		full, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out = appendFrame(out, full)
		return true
	})
	for name, body := range map[string][]byte{dir + "/meta.wal": out, "CURRENT": []byte(dir + "\n")} {
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(body); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
}

// A directory written before diffs — every record full, CURRENT a bare
// generation — opens and installs exactly as the diff-format directory
// it was rewritten from, and a diff record inside it is refused.
func TestOldFormatDirectoryOpens(t *testing.T) {
	data, def := testData(t)
	fs := NewMemFS()
	d, _, err := Open(fs, testNodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl := buildCluster(t, data, def)
	m := newMaintainer(t, cl, def)
	if err := d.Attach(cl); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.ApplyBatch(data.Batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	install := func() (*Recovered, []byte) {
		t.Helper()
		_, rec, err := Open(fs, testNodes, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cl, _ := cluster.New(testNodes, cluster.WithWorkersPerNode(2))
		if err := rec.Install(cl); err != nil {
			t.Fatal(err)
		}
		return rec, catalogJSON(t, exportCatalog(cl.Catalog()))
	}
	newRec, newCat := install()
	meta, _ := fs.ReadFile("gen-1/meta.wal")

	rewriteAsFullRecords(t, fs)
	oldRec, oldCat := install()
	if !bytes.Equal(oldCat, newCat) {
		t.Fatal("the old-format directory installs a different catalog")
	}
	if oldRec.Seq != newRec.Seq || oldRec.Applied != newRec.Applied || oldRec.Epoch != newRec.Epoch || oldRec.Kind != newRec.Kind {
		t.Fatalf("old-format cut %+v, diff-format cut %+v", oldRec, newRec)
	}

	// The diff records are refused under the old manifest.
	f, _ := fs.Create("gen-1/meta.wal")
	f.Write(meta)
	f.Sync()
	if _, _, err := Open(fs, testNodes, Options{}); err == nil || !strings.Contains(err.Error(), "directory of full records") {
		t.Fatalf("diff records under an old-format CURRENT: err = %v", err)
	}
}

// The meta log fails recovery, rather than skipping, on a CRC-valid frame
// that does not decode and on a diff with no full record before it.
func TestMetaLogFailsClosed(t *testing.T) {
	full := appendFrame(nil, []byte(`{"Kind":"checkpoint","Cuts":[0],"Catalog":[]}`))
	diff := appendFrame(nil, []byte(`{"Kind":"commit","Seq":1,"Cuts":[0],"Diff":{}}`))
	junk := appendFrame(nil, []byte(`{"Kind":`))
	for _, tc := range []struct {
		name string
		log  []byte
		ok   bool
	}{
		{"full then diff", append(append([]byte{}, full...), diff...), true},
		{"undecodable frame", append(append([]byte{}, full...), junk...), false},
		{"diff first", append(append([]byte{}, diff...), full...), false},
		{"unknown array", append(append([]byte{}, full...), appendFrame(nil, []byte(`{"Kind":"commit","Cuts":[0],"Diff":{"Arrays":[{"Name":"A","Chunks":[]}]}}`))...), false},
	} {
		_, _, err := foldMeta(tc.log, true)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v", tc.name, err)
		}
	}
}

// A barrier whose meta record was written but not fsynced fails; the state
// it wrote is still the base of the next record, so a retried barrier —
// here after undoing the failed change, as a rollback would — recovers
// exactly the retried state.
func TestFailedMetaSyncThenRetryRecoversRetry(t *testing.T) {
	data, def := testData(t)
	fs := NewMemFS()
	d, _, err := Open(fs, testNodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cl := buildCluster(t, data, def)
	if err := d.Attach(cl); err != nil {
		t.Fatal(err)
	}
	cat := cl.Catalog()
	keys := cat.Keys(def.Name)
	home, _ := cat.Home(def.Name, keys[0])
	other := (home + 1) % testNodes

	// A catalog-only change leaves the journals clean, so the barrier's
	// first two operations are the meta write and the meta fsync.
	fs.mu.Lock()
	fs.plan.FailSyncAtOp = fs.ops + 2
	fs.mu.Unlock()
	if err := cat.AddReplica(def.Name, keys[0], other); err != nil {
		t.Fatal(err)
	}
	if err := d.CommitBarrier(); !errors.Is(err, ErrInjected) {
		t.Fatalf("barrier with a failing meta fsync: err = %v", err)
	}
	cat.RemoveReplica(def.Name, keys[0], other)
	if err := cat.AddReplica(def.Name, keys[1], other); err != nil {
		t.Fatal(err)
	}
	if err := d.CommitBarrier(); err != nil {
		t.Fatal(err)
	}
	requireFoldsToLive(t, fs, cl, "retried barrier")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(fs, testNodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := catalogJSON(t, rec.catalog), catalogJSON(t, exportCatalog(cat)); !bytes.Equal(got, want) {
		t.Fatal("recovery does not land on the retried state")
	}
}

// The meta bytes a barrier writes depend on what the batch changed, not on
// the size of the catalog: the same change over a base four times larger
// writes within 1.25x the bytes.
func TestBarrierBytesIndependentOfBase(t *testing.T) {
	perBarrier := func(chunks int) float64 {
		fs := NewMemFS()
		d, _, err := Open(fs, testNodes, Options{})
		if err != nil {
			t.Fatal(err)
		}
		cl, _ := cluster.New(testNodes, cluster.WithWorkersPerNode(2))
		base := array.New(oneDim("base", int64(chunks*10)))
		for i := 0; i < chunks*10; i += 2 {
			if err := base.Set(array.Point{int64(i)}, array.Tuple{float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.LoadArray(base, cluster.HashPlacement{}); err != nil {
			t.Fatal(err)
		}
		if err := d.Attach(cl); err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		// One fixed Δ per barrier: rewrite the same four chunks.
		const barriers = 8
		before := fs.TotalBytes()
		for b := 0; b < barriers; b++ {
			for c := 0; c < 4; c++ {
				ch := base.Chunk(base.Schema().ChunkCoordOf(array.Point{int64(c * 10)})).Clone()
				if err := ch.Set(array.Point{int64(c*10 + 1)}, array.Tuple{float64(b)}); err != nil {
					t.Fatal(err)
				}
				home, _ := cl.Catalog().Home("base", ch.Key())
				if err := cl.PutAt(home, "base", ch); err != nil {
					t.Fatal(err)
				}
				if err := cl.Catalog().SetChunk("base", ch.Key(), home, ch.SizeBytes(), ch.NumCells()); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.CommitBarrier(); err != nil {
				t.Fatal(err)
			}
		}
		if d.Counters().Snapshot().Checkpoints != 1 {
			t.Fatal("a compaction checkpoint ran inside the measured barriers")
		}
		return float64(fs.TotalBytes()-before) / barriers
	}
	small, large := perBarrier(200), perBarrier(800)
	t.Logf("bytes per barrier: %.0f on a 200-chunk base, %.0f on 800 chunks", small, large)
	if r := large / small; r > 1.25 || r < 1/1.25 {
		t.Fatalf("bytes per barrier: %.0f on a 200-chunk base, %.0f on 800 chunks (ratio %.2f)", small, large, r)
	}
}
