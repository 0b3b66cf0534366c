package cluster

import (
	"hash/fnv"
	"testing"

	"github.com/arrayview/arrayview/internal/array"
)

func catSchema() *array.Schema {
	return array.MustSchema("A",
		[]array.Dimension{{Name: "x", Start: 0, End: 99, ChunkSize: 10}}, nil)
}

func TestCatalogChunkBBox(t *testing.T) {
	cat := NewCatalog()
	if err := cat.Register(catSchema()); err != nil {
		t.Fatal(err)
	}
	key := array.ChunkCoord{2}.Key()
	if _, ok := cat.ChunkBBox("A", key); ok {
		t.Error("bbox must be absent before recording")
	}
	if _, ok := cat.ChunkBBox("missing", key); ok {
		t.Error("bbox of unknown array must be absent")
	}
	bb := array.NewRegion(array.Point{22}, array.Point{27})
	cat.SetChunkBBox("A", key, bb)
	got, ok := cat.ChunkBBox("A", key)
	if !ok || !got.Lo.Equal(bb.Lo) || !got.Hi.Equal(bb.Hi) {
		t.Errorf("bbox round trip = %v, %v", got, ok)
	}
	// Mutating the original must not change the stored copy.
	bb.Lo[0] = 0
	got, _ = cat.ChunkBBox("A", key)
	if got.Lo[0] != 22 {
		t.Error("SetChunkBBox must copy the region")
	}
	cat.DropChunk("A", key)
	if _, ok := cat.ChunkBBox("A", key); ok {
		t.Error("DropChunk must clear the bbox")
	}
}

func TestCatalogDropChunkAndArray(t *testing.T) {
	cat := NewCatalog()
	_ = cat.Register(catSchema())
	key := array.ChunkCoord{1}.Key()
	cat.SetChunk("A", key, 0, 24, 1)
	cat.DropChunk("A", key)
	if _, ok := cat.Home("A", key); ok {
		t.Error("dropped chunk must leave the catalog")
	}
	cat.DropChunk("A", key)       // idempotent
	cat.DropChunk("missing", key) // unknown array is a no-op
	cat.Drop("A")
	if cat.Schema("A") != nil {
		t.Error("dropped array must leave the catalog")
	}
}

func TestCatalogReplicasAndSizes(t *testing.T) {
	cat := NewCatalog()
	_ = cat.Register(catSchema())
	key := array.ChunkCoord{0}.Key()
	cat.SetChunk("A", key, 2, 48, 2)
	if got := cat.ChunkSize("A", key); got != 48 {
		t.Errorf("ChunkSize = %d", got)
	}
	if got := cat.ChunkCells("A", key); got != 2 {
		t.Errorf("ChunkCells = %d", got)
	}
	if got := cat.ChunkSize("missing", key); got != 0 {
		t.Errorf("missing array size = %d", got)
	}
	if got := cat.ChunkCells("missing", key); got != 0 {
		t.Errorf("missing array cells = %d", got)
	}
	cat.AddReplica("A", key, 0)
	if got := cat.Replicas("A", key); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Replicas = %v", got)
	}
	if got := cat.Replicas("missing", key); got != nil {
		t.Errorf("missing replicas = %v", got)
	}
	if cat.HasReplica("missing", key, 0) {
		t.Error("unknown array has no replicas")
	}
	// AddReplica on a chunk with no replica entry creates it.
	other := array.ChunkCoord{5}.Key()
	cat.AddReplica("A", other, 1)
	if !cat.HasReplica("A", other, 1) {
		t.Error("AddReplica must create entries")
	}
}

func TestCatalogRehomeErrors(t *testing.T) {
	cat := NewCatalog()
	_ = cat.Register(catSchema())
	key := array.ChunkCoord{0}.Key()
	if err := cat.Rehome("A", key, 1, false); err == nil {
		t.Error("rehoming an unknown chunk must fail")
	}
	cat.SetChunk("A", key, 0, 24, 1)
	if err := cat.Rehome("A", key, 1, false); err != nil {
		t.Errorf("unconditional rehome failed: %v", err)
	}
	if h, _ := cat.Home("A", key); h != 1 {
		t.Error("rehome did not take")
	}
}

func TestRangePlacementBands(t *testing.T) {
	p := RangePlacement{Dim: 0, NumChunks: 10}
	seen := make(map[int]bool)
	for i := int64(0); i < 10; i++ {
		n := p.Place(array.ChunkCoord{i}.Key(), 4)
		if n < 0 || n >= 4 {
			t.Fatalf("band %d out of range", n)
		}
		seen[n] = true
		// Monotone: later chunks never map to earlier nodes.
		if i > 0 {
			prev := p.Place(array.ChunkCoord{i - 1}.Key(), 4)
			if n < prev {
				t.Fatalf("bands not monotone: chunk %d -> %d, chunk %d -> %d", i-1, prev, i, n)
			}
		}
	}
	if len(seen) != 4 {
		t.Errorf("10 chunks over 4 nodes must cover all nodes, got %d", len(seen))
	}
	// Degenerate configurations fall back to node 0 / clamp.
	if (RangePlacement{}).Place(array.ChunkCoord{3}.Key(), 4) != 0 {
		t.Error("zero NumChunks must place at node 0")
	}
	if (RangePlacement{Dim: 5, NumChunks: 10}).Place(array.ChunkCoord{3}.Key(), 4) != 0 {
		t.Error("out-of-range dim must place at node 0")
	}
	if n := (RangePlacement{Dim: 0, NumChunks: 10}).Place(array.ChunkCoord{99}.Key(), 4); n != 3 {
		t.Errorf("past-the-end chunk index must clamp to the last node, got %d", n)
	}
	if n := (RangePlacement{Dim: 0, NumChunks: 10}).Place(array.ChunkCoord{-5}.Key(), 4); n != 0 {
		t.Errorf("negative chunk index must clamp to node 0, got %d", n)
	}
}

// TestHashPlacementIsFNV1a: the inlined hash must place every key where
// hash/fnv's New32a did, or every hash-placed layout would silently move.
func TestHashPlacementIsFNV1a(t *testing.T) {
	keys := []array.ChunkKey{"", "a", array.ChunkCoord{0, 0}.Key(), array.ChunkCoord{3, -7, 1 << 40}.Key()}
	for i := int64(0); i < 200; i++ {
		keys = append(keys, array.ChunkCoord{i, i * i % 17}.Key())
	}
	for _, k := range keys {
		h := fnv.New32a()
		_, _ = h.Write([]byte(k))
		for _, n := range []int{1, 3, 8, 16, 1000} {
			if got, want := (HashPlacement{}).Place(k, n), int(h.Sum32()%uint32(n)); got != want {
				t.Fatalf("Place(%q, %d) = %d, want %d", string(k), n, got, want)
			}
		}
	}
}
