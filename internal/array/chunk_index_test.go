package array

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// indexSchema gives chunks enough cells (200) for interleaved and randomized
// cache-invalidation sequences.
func indexSchema() *Schema {
	return MustSchema("IX",
		[]Dimension{
			{Name: "x", Start: 0, End: 39, ChunkSize: 20},
			{Name: "y", Start: 0, End: 9, ChunkSize: 10},
		},
		[]Attribute{{Name: "v", Type: Float64}})
}

// cachesStale reports which of the lazily-built index and bounding-box
// caches are invalidated.
func cachesStale(c *Chunk) (sortedStale, bboxStale bool) {
	return c.sorted == nil, !c.bboxOK
}

// columnStale reports whether the coordinate column is invalidated.
func columnStale(c *Chunk) bool { return c.coords == nil }

// checkColumns compares Columns against the points of EachSorted.
func checkColumns(t *testing.T, c *Chunk) {
	t.Helper()
	offs, coords := c.Columns()
	d := c.Region().NumDims()
	if len(offs) != c.NumCells() || len(coords) != d*len(offs) {
		t.Fatalf("Columns has %d offsets and %d coordinates for %d cells of %d dims", len(offs), len(coords), c.NumCells(), d)
	}
	k := 0
	c.EachSorted(func(p Point, tup Tuple) bool {
		if !p.Equal(coords[k*d : (k+1)*d]) {
			t.Fatalf("Columns row %d = %v, EachSorted visits %v", k, coords[k*d:(k+1)*d], p)
		}
		if got, ok := c.GetOffset(offs[k]); !ok || &got[0] != &tup[0] {
			t.Fatalf("Columns offset %d does not address the tuple of %v", offs[k], p)
		}
		k++
		return true
	})
}

// TestChunkIndexInvalidation interleaves mutations with the cached read
// paths and checks the caches go stale exactly when the cell set changes.
func TestChunkIndexInvalidation(t *testing.T) {
	c := NewChunk(indexSchema(), ChunkCoord{0, 0})
	mustSet := func(p Point, v float64) {
		t.Helper()
		if err := c.Set(p, Tuple{v}); err != nil {
			t.Fatal(err)
		}
	}
	sortedPoints := func() []Point {
		var pts []Point
		c.EachSorted(func(p Point, _ Tuple) bool {
			pts = append(pts, p.Clone())
			return true
		})
		return pts
	}

	mustSet(Point{3, 4}, 1)
	mustSet(Point{1, 2}, 2)
	mustSet(Point{19, 9}, 3)

	// Build every cache.
	pts := sortedPoints()
	if len(pts) != 3 {
		t.Fatalf("EachSorted visited %d cells, want 3", len(pts))
	}
	checkColumns(t, c)
	bb, ok := c.BoundingBox()
	if !ok || !bb.Lo.Equal(Point{1, 2}) || !bb.Hi.Equal(Point{19, 9}) {
		t.Fatalf("BoundingBox = %v, %v", bb, ok)
	}
	if s, b := cachesStale(c); s || b || columnStale(c) {
		t.Fatal("caches must be built after EachSorted+Columns+BoundingBox")
	}

	// Overwriting an occupied cell changes no offsets: caches stay valid.
	mustSet(Point{3, 4}, 42)
	if s, b := cachesStale(c); s || b || columnStale(c) {
		t.Fatal("overwrite of an occupied cell must keep the caches")
	}
	if got, _ := c.Get(Point{3, 4}); got[0] != 42 {
		t.Fatalf("overwrite lost: Get = %v", got)
	}

	// Deleting an absent cell is a no-op for the caches too.
	if c.Delete(Point{0, 0}) {
		t.Fatal("Delete of empty cell reported occupancy")
	}
	if s, b := cachesStale(c); s || b || columnStale(c) {
		t.Fatal("Delete of an absent cell must keep the caches")
	}

	// A new cell invalidates; the rebuilt index must include it in order.
	mustSet(Point{0, 0}, 4)
	if s, b := cachesStale(c); !s || !b || !columnStale(c) {
		t.Fatal("Set of a fresh cell must invalidate every cache")
	}
	pts = sortedPoints()
	checkColumns(t, c)
	want := []Point{{0, 0}, {1, 2}, {3, 4}, {19, 9}}
	if len(pts) != len(want) {
		t.Fatalf("EachSorted visited %d cells, want %d", len(pts), len(want))
	}
	for i := range want {
		if !pts[i].Equal(want[i]) {
			t.Fatalf("EachSorted[%d] = %v, want %v", i, pts[i], want[i])
		}
	}

	// A real deletion invalidates, and the bounding box shrinks.
	if !c.Delete(Point{19, 9}) {
		t.Fatal("Delete of occupied cell reported empty")
	}
	if s, b := cachesStale(c); !s || !b || !columnStale(c) {
		t.Fatal("Delete of an occupied cell must invalidate every cache")
	}
	bb, ok = c.BoundingBox()
	if !ok || !bb.Lo.Equal(Point{0, 0}) || !bb.Hi.Equal(Point{3, 4}) {
		t.Fatalf("BoundingBox after delete = %v, %v", bb, ok)
	}

	// The two merges change occupancy too, on the receiving side and (for
	// the move) on the drained side.
	for _, merge := range []struct {
		name string
		fn   func(dst, src *Chunk) error
	}{
		{"MergeFrom", (*Chunk).MergeFrom},
		{"AbsorbFrom", (*Chunk).AbsorbFrom},
	} {
		src := NewChunk(indexSchema(), ChunkCoord{0, 0})
		if err := src.Set(Point{7, 7}, Tuple{9}); err != nil {
			t.Fatal(err)
		}
		c.Warm()
		src.Warm()
		if err := merge.fn(c, src); err != nil {
			t.Fatal(err)
		}
		if s, b := cachesStale(c); !s || !b || !columnStale(c) {
			t.Fatalf("%s must invalidate the destination's caches", merge.name)
		}
		if s, _ := cachesStale(src); s != (src.NumCells() == 0) || columnStale(src) != s {
			t.Fatalf("%s: source index stale = %v, column stale = %v with %d cells left", merge.name, s, columnStale(src), src.NumCells())
		}
		checkColumns(t, c)
		c.Delete(Point{7, 7})
	}
}

// TestWarmBuildsEveryCache pins the contract shared chunks rely on: after
// Warm no read path has anything left to build.
func TestWarmBuildsEveryCache(t *testing.T) {
	c := NewChunk(indexSchema(), ChunkCoord{0, 0})
	if err := c.Set(Point{4, 4}, Tuple{1}); err != nil {
		t.Fatal(err)
	}
	c.Warm()
	if s, b := cachesStale(c); s || b || columnStale(c) || !c.hashOK {
		t.Fatalf("Warm left a cache unbuilt: index stale %v, column stale %v, bbox stale %v, hash ok %v", s, columnStale(c), b, c.hashOK)
	}
}

// TestDecodeChunkIndexOrder: a payload in EncodeChunk's ascending order
// seeds the sorted index directly; one listing its cells in any other
// order, or an offset twice, still decodes and iterates in sorted order.
func TestDecodeChunkIndexOrder(t *testing.T) {
	c := NewChunk(indexSchema(), ChunkCoord{0, 0})
	for i := int64(0); i < 6; i++ {
		if err := c.Set(Point{i * 3, i}, Tuple{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	enc := EncodeChunk(c)
	const cell = 16 // i64 offset + one f64 attribute
	cells := enc[len(enc)-6*cell:]

	canon, err := DecodeChunk(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(canon.sorted, c.index()) {
		t.Fatalf("canonical payload seeded index %v, want %v", canon.sorted, c.index())
	}

	swapped := append([]byte(nil), enc...)
	sw := swapped[len(swapped)-6*cell:]
	copy(sw[:cell], cells[2*cell:3*cell])
	copy(sw[2*cell:3*cell], cells[:cell])

	dup := append([]byte(nil), enc...) // cell 1 listed twice, the later value wins
	copy(dup[len(dup)-6*cell+2*cell:], cells[cell:2*cell])
	dup[len(dup)-6*cell+3*cell-1] ^= 1

	for name, buf := range map[string][]byte{"swapped": swapped, "duplicate": dup} {
		got, err := DecodeChunk(buf)
		if err != nil {
			t.Fatalf("%s payload: %v", name, err)
		}
		if got.sorted != nil {
			t.Fatalf("%s payload seeded the index %v", name, got.sorted)
		}
		offs, _ := got.Columns()
		if len(offs) != got.NumCells() || !slices.IsSorted(offs) {
			t.Fatalf("%s payload iterates %v over %d cells", name, offs, got.NumCells())
		}
		checkColumns(t, got)
	}
}

// TestChunkIndexRandomOps drives a chunk and a naive reference map through
// the same random Set/Delete sequence, comparing the cached read paths
// against answers recomputed from scratch after every step.
func TestChunkIndexRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewChunk(indexSchema(), ChunkCoord{0, 0})
	type key [2]int64
	ref := make(map[key]float64)

	check := func(step int) {
		t.Helper()
		// Reference answer: offsets in row-major order = points in
		// lexicographic order for this schema.
		var keys []key
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a][0] != keys[b][0] {
				return keys[a][0] < keys[b][0]
			}
			return keys[a][1] < keys[b][1]
		})
		i := 0
		c.EachSorted(func(p Point, tup Tuple) bool {
			if i >= len(keys) {
				t.Fatalf("step %d: EachSorted visited more than %d cells", step, len(keys))
			}
			k := key{p[0], p[1]}
			if k != keys[i] {
				t.Fatalf("step %d: EachSorted[%d] = %v, want %v", step, i, k, keys[i])
			}
			if tup[0] != ref[k] {
				t.Fatalf("step %d: cell %v = %v, want %v", step, k, tup[0], ref[k])
			}
			i++
			return true
		})
		if i != len(keys) {
			t.Fatalf("step %d: EachSorted visited %d cells, want %d", step, i, len(keys))
		}
		checkColumns(t, c)

		bb, ok := c.BoundingBox()
		if ok != (len(ref) > 0) {
			t.Fatalf("step %d: BoundingBox ok = %v with %d cells", step, ok, len(ref))
		}
		if ok {
			lo := Point{int64(1 << 40), int64(1 << 40)}
			hi := Point{int64(-1 << 40), int64(-1 << 40)}
			for k := range ref {
				for d := 0; d < 2; d++ {
					if k[d] < lo[d] {
						lo[d] = k[d]
					}
					if k[d] > hi[d] {
						hi[d] = k[d]
					}
				}
			}
			if !bb.Lo.Equal(lo) || !bb.Hi.Equal(hi) {
				t.Fatalf("step %d: BoundingBox = [%v,%v], want [%v,%v]", step, bb.Lo, bb.Hi, lo, hi)
			}
		}
	}

	for step := 0; step < 400; step++ {
		p := Point{rng.Int63n(20), rng.Int63n(10)}
		switch rng.Intn(4) {
		case 0, 1: // Set dominates so the chunk actually fills up.
			v := float64(step)
			if err := c.Set(p, Tuple{v}); err != nil {
				t.Fatal(err)
			}
			ref[key{p[0], p[1]}] = v
		case 2:
			got := c.Delete(p)
			_, had := ref[key{p[0], p[1]}]
			if got != had {
				t.Fatalf("step %d: Delete(%v) = %v, reference %v", step, p, got, had)
			}
			delete(ref, key{p[0], p[1]})
		case 3: // Read-only step: exercise cache reuse between mutations.
		}
		if step%7 == 0 || step > 380 {
			check(step)
		}
	}
	check(400)
}

// TestChunkAbsorbFrom proves the move-semantics merge: the destination gets
// every cell, and the drained source can be mutated or dropped without
// aliasing the destination's tuples.
func TestChunkAbsorbFrom(t *testing.T) {
	s := indexSchema()
	dst := NewChunk(s, ChunkCoord{0, 0})
	src := NewChunk(s, ChunkCoord{0, 0})
	if err := dst.Set(Point{1, 1}, Tuple{10}); err != nil {
		t.Fatal(err)
	}
	if err := src.Set(Point{1, 1}, Tuple{20}); err != nil {
		t.Fatal(err)
	}
	if err := src.Set(Point{5, 5}, Tuple{30}); err != nil {
		t.Fatal(err)
	}

	if err := dst.AbsorbFrom(src); err != nil {
		t.Fatal(err)
	}
	if src.NumCells() != 0 {
		t.Fatalf("source holds %d cells after absorb, want 0", src.NumCells())
	}
	// The drained source is safe to reuse or drop: writing through it must
	// not reach tuples now owned by the destination.
	if err := src.Set(Point{5, 5}, Tuple{-1}); err != nil {
		t.Fatal(err)
	}
	if got, ok := dst.Get(Point{5, 5}); !ok || got[0] != 30 {
		t.Fatalf("dst cell (5,5) = %v, %v after source reuse, want 30", got, ok)
	}
	if got, ok := dst.Get(Point{1, 1}); !ok || got[0] != 20 {
		t.Fatalf("dst cell (1,1) = %v, %v, want absorbed 20", got, ok)
	}
	if dst.NumCells() != 2 {
		t.Fatalf("dst holds %d cells, want 2", dst.NumCells())
	}

	// Coordinate mismatch is rejected, like MergeFrom.
	other := NewChunk(s, ChunkCoord{1, 0})
	if err := dst.AbsorbFrom(other); err == nil {
		t.Fatal("absorbing a chunk with a different coordinate must fail")
	}

	// Empty source: no-op that must not invalidate the caches.
	dst.EachSorted(func(Point, Tuple) bool { return true })
	if _, ok := dst.BoundingBox(); !ok {
		t.Fatal("BoundingBox on populated chunk")
	}
	empty := NewChunk(s, ChunkCoord{0, 0})
	if err := dst.AbsorbFrom(empty); err != nil {
		t.Fatal(err)
	}
	if sStale, bStale := cachesStale(dst); sStale || bStale {
		t.Fatal("absorbing an empty chunk must keep the caches")
	}
}
