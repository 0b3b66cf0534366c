package cluster

import (
	"testing"

	"github.com/arrayview/arrayview/internal/array"
)

func pendingSchema() *array.Schema {
	return array.MustSchema("P",
		[]array.Dimension{
			{Name: "i", Start: 0, End: 9, ChunkSize: 2},
			{Name: "j", Start: 0, End: 9, ChunkSize: 2},
		},
		[]array.Attribute{{Name: "v", Type: array.Int64}},
	)
}

// pendingChunk builds a single chunk holding cells points, returning it with
// its key.
func pendingChunk(t *testing.T, points ...array.Point) (*array.Chunk, array.ChunkKey) {
	t.Helper()
	a := array.New(pendingSchema())
	for _, p := range points {
		if err := a.Set(p, array.Tuple{1}); err != nil {
			t.Fatal(err)
		}
	}
	if a.NumChunks() != 1 {
		t.Fatalf("points span %d chunks, want 1", a.NumChunks())
	}
	var ch *array.Chunk
	a.EachChunk(func(c *array.Chunk) bool { ch = c; return false })
	return ch, ch.Key()
}

func TestPendingLogAppendTakeOrder(t *testing.T) {
	l := NewPendingLog()
	cx1, kx := pendingChunk(t, array.Point{0, 0})
	cx2, _ := pendingChunk(t, array.Point{1, 1})
	cy1, ky := pendingChunk(t, array.Point{4, 4}, array.Point{5, 5})
	cy2, _ := pendingChunk(t, array.Point{4, 5})

	l.Append(PendingEntry{Seq: 2, Key: kx, Chunk: cx2, Epoch: 7})
	l.Append(PendingEntry{Seq: 1, Key: kx, Chunk: cx1, Epoch: 5})
	l.Append(PendingEntry{Seq: 1, Key: ky, Chunk: cy1, Epoch: 5})
	l.Append(PendingEntry{Seq: 3, Key: ky, Chunk: cy2, Epoch: 9})

	if n, cells := l.EntriesFor(kx); n != 2 || cells != 2 {
		t.Fatalf("EntriesFor(x) = %d entries / %d cells, want 2/2", n, cells)
	}
	if n, cells := l.EntriesFor(ky); n != 2 || cells != 3 {
		t.Fatalf("EntriesFor(y) = %d entries / %d cells, want 2/3", n, cells)
	}

	// Take returns everything for the keys ordered by seq ascending —
	// original batch order, which is what materialization must replay.
	out := l.Take([]array.ChunkKey{kx, ky})
	if len(out) != 4 {
		t.Fatalf("Take returned %d entries, want 4", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].Seq > out[i].Seq {
			t.Fatalf("Take out of seq order: %d before %d", out[i-1].Seq, out[i].Seq)
		}
	}
	if out[3].Seq != 3 || out[3].Epoch != 9 {
		t.Fatalf("last entry %+v, want seq 3 epoch 9", out[3])
	}
	st := l.Stats()
	if st.Entries != 0 || st.Cells != 0 || st.Appended != 4 || st.Materialized != 4 {
		t.Fatalf("post-take stats %+v", st)
	}
}

func TestPendingLogRestoreAfterFailedReplay(t *testing.T) {
	l := NewPendingLog()
	c1, k := pendingChunk(t, array.Point{0, 0})
	c2, _ := pendingChunk(t, array.Point{1, 0})
	l.Append(PendingEntry{Seq: 1, Key: k, Chunk: c1, Epoch: 1})
	l.Append(PendingEntry{Seq: 2, Key: k, Chunk: c2, Epoch: 2})

	taken := l.Take([]array.ChunkKey{k})
	if len(taken) != 2 {
		t.Fatalf("took %d entries, want 2", len(taken))
	}
	// A failed replay puts the entries back; the log must look untouched.
	l.Restore(taken)
	if n, cells := l.EntriesFor(k); n != 2 || cells != 2 {
		t.Fatalf("restore lost entries: %d/%d", n, cells)
	}
	st := l.Stats()
	if st.Materialized != 0 {
		t.Errorf("restore did not refund the materialized counter: %+v", st)
	}
	// Re-take: seq order must survive the round trip.
	again := l.Take([]array.ChunkKey{k})
	if again[0].Seq != 1 || again[1].Seq != 2 {
		t.Fatalf("seq order lost across restore: %d, %d", again[0].Seq, again[1].Seq)
	}
}

func TestPendingLogStats(t *testing.T) {
	l := NewPendingLog()
	c1, k1 := pendingChunk(t, array.Point{0, 0}, array.Point{1, 1})
	c2, k2 := pendingChunk(t, array.Point{4, 4})
	l.Append(PendingEntry{Seq: 1, Key: k1, Chunk: c1, Epoch: 1})
	l.Append(PendingEntry{Seq: 2, Key: k2, Chunk: c2, Epoch: 2})

	st := l.Stats()
	if st.Chunks != 2 || st.Entries != 2 || st.Cells != 3 || st.Batches != 2 {
		t.Fatalf("stats %+v, want 2 chunks / 2 entries / 3 cells / 2 batches", st)
	}
	keys := l.Keys()
	if len(keys) != 2 || keys[0] > keys[1] {
		t.Fatalf("Keys() not sorted: %v", keys)
	}

	// The catalog owns one log, created on first use.
	cl, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Catalog().Pending() != cl.Catalog().Pending() {
		t.Error("catalog pending log not a singleton")
	}
}
