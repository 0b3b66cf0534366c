package array

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// figure1Array builds array A with the 6 original non-empty cells of
// Figure 1 (a) of the paper.
func figure1Array() *Array {
	a := New(paperSchema())
	cells := []struct {
		p Point
		t Tuple
	}{
		{Point{1, 2}, Tuple{2, 5}},
		{Point{1, 3}, Tuple{6, 3}},
		{Point{3, 4}, Tuple{2, 9}},
		{Point{4, 1}, Tuple{2, 1}},
		{Point{5, 7}, Tuple{4, 8}},
		{Point{6, 5}, Tuple{4, 3}},
	}
	for _, c := range cells {
		if err := a.Set(c.p, c.t); err != nil {
			panic(err)
		}
	}
	return a
}

func TestArrayFigure1Occupancy(t *testing.T) {
	a := figure1Array()
	if got := a.NumCells(); got != 6 {
		t.Errorf("NumCells = %d, want 6", got)
	}
	// Figure 1 (a): only 6 of the 12 chunk slots contain data.
	if got := a.NumChunks(); got != 6 {
		t.Errorf("NumChunks = %d, want 6", got)
	}
	got, ok := a.Get(Point{1, 2})
	if !ok || got[0] != 2 || got[1] != 5 {
		t.Errorf("A[1,2] = %v, %v, want <2,5>", got, ok)
	}
}

func TestArraySetGetDelete(t *testing.T) {
	a := New(paperSchema())
	if err := a.Set(Point{0, 0}, Tuple{1, 1}); err == nil {
		t.Error("Set outside domain must fail")
	}
	if _, ok := a.Get(Point{0, 0}); ok {
		t.Error("Get outside domain must be empty")
	}
	if a.Delete(Point{0, 0}) || a.Delete(Point{1, 1}) {
		t.Error("deleting absent cells must report false")
	}
	if err := a.Set(Point{1, 1}, Tuple{1, 2}); err != nil {
		t.Fatal(err)
	}
	if a.NumChunks() != 1 {
		t.Error("chunk should be materialized on first Set")
	}
	if !a.Delete(Point{1, 1}) {
		t.Error("Delete must succeed")
	}
	if a.NumChunks() != 0 {
		t.Error("empty chunk should be dropped")
	}
}

func TestArrayEachCellDeterministic(t *testing.T) {
	a := figure1Array()
	var first, second []Point
	a.EachCell(func(p Point, _ Tuple) bool {
		first = append(first, p.Clone())
		return true
	})
	a.EachCell(func(p Point, _ Tuple) bool {
		second = append(second, p.Clone())
		return true
	})
	if len(first) != 6 || len(second) != 6 {
		t.Fatalf("EachCell visited %d/%d cells, want 6", len(first), len(second))
	}
	for i := range first {
		if !first[i].Equal(second[i]) {
			t.Fatal("EachCell must be deterministic across runs")
		}
	}
}

func TestArrayCloneEqual(t *testing.T) {
	a := figure1Array()
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone must equal original")
	}
	_ = b.Set(Point{1, 1}, Tuple{7, 7})
	if a.Equal(b) {
		t.Error("Equal must detect extra cells")
	}
	c := a.Clone()
	_ = c.Set(Point{1, 2}, Tuple{2, 6})
	if a.Equal(c) {
		t.Error("Equal must detect changed tuples")
	}
}

// A retraction leaves all-zero state cells behind; a recomputation omits
// them. EqualStates treats the two as the same state — in both directions —
// and still sees every real difference.
func TestArrayEqualStatesRetraction(t *testing.T) {
	a := figure1Array()
	retracted := a.Clone()
	_ = retracted.Set(Point{2, 2}, Tuple{0, 0}) // a group whose pairs were all retracted
	if !a.EqualStates(retracted) || !retracted.EqualStates(a) {
		t.Error("an all-zero cell must equal an absent one, whichever side holds it")
	}
	if a.Equal(retracted) {
		t.Error("Equal, unlike EqualStates, counts the zero cell")
	}
	half := a.Clone()
	_ = half.Set(Point{2, 2}, Tuple{0, 1})
	if a.EqualStates(half) || half.EqualStates(a) {
		t.Error("a cell with any nonzero state must not equal an absent one")
	}
	changed := a.Clone()
	_ = changed.Set(Point{1, 2}, Tuple{2, 6})
	if a.EqualStates(changed) {
		t.Error("EqualStates must detect changed tuples")
	}
	missing := a.Clone()
	missing.Delete(Point{1, 2})
	if a.EqualStates(missing) || missing.EqualStates(a) {
		t.Error("EqualStates must detect a missing nonzero cell")
	}
}

func TestArrayMergeChunk(t *testing.T) {
	a := figure1Array()
	s := a.Schema()
	delta := NewChunk(s, ChunkCoord{0, 0})
	_ = delta.Set(Point{2, 1}, Tuple{1, 4})
	if err := a.MergeChunk(delta); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Get(Point{2, 1}); !ok || got[0] != 1 {
		t.Errorf("merged cell = %v, %v", got, ok)
	}
	// Merging into an unoccupied slot creates the chunk.
	fresh := NewChunk(s, ChunkCoord{2, 3})
	_ = fresh.Set(Point{5, 8}, Tuple{3, 3})
	if err := a.MergeChunk(fresh); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Get(Point{5, 8}); !ok {
		t.Error("merge into fresh slot lost the cell")
	}
	// The fresh chunk must have been copied, not aliased.
	_ = fresh.Set(Point{6, 8}, Tuple{1, 1})
	if _, ok := a.Get(Point{6, 8}); ok {
		t.Error("MergeChunk must copy chunks, not alias them")
	}
}

func TestArrayChunkKeysSorted(t *testing.T) {
	a := figure1Array()
	keys := a.ChunkKeys()
	for i := 1; i < len(keys); i++ {
		if !(keys[i-1] < keys[i]) {
			t.Fatal("ChunkKeys must be sorted")
		}
	}
}

// Property: Set then Get round-trips through chunking for random points.
func TestArraySetGetProperty(t *testing.T) {
	s := MustSchema("P",
		[]Dimension{
			{Name: "x", Start: -50, End: 49, ChunkSize: 7},
			{Name: "y", Start: 0, End: 99, ChunkSize: 13},
		},
		[]Attribute{{Name: "v", Type: Float64}})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(s)
		ref := make(map[string]float64)
		for i := 0; i < 200; i++ {
			p := Point{int64(rng.Intn(100) - 50), int64(rng.Intn(100))}
			v := rng.NormFloat64()
			if err := a.Set(p, Tuple{v}); err != nil {
				return false
			}
			ref[p.String()] = v
		}
		if a.NumCells() != len(ref) {
			return false
		}
		for i := 0; i < 200; i++ {
			p := Point{int64(rng.Intn(100) - 50), int64(rng.Intn(100))}
			want, exists := ref[p.String()]
			got, ok := a.Get(p)
			if ok != exists {
				return false
			}
			if ok && got[0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestArraySizeBytes(t *testing.T) {
	a := figure1Array()
	// 6 cells x (8 + 16) bytes.
	if got := a.SizeBytes(); got != 6*24 {
		t.Errorf("SizeBytes = %d, want %d", got, 6*24)
	}
}
