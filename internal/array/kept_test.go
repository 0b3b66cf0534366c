package array

import (
	"bytes"
	"slices"
	"testing"
)

// A chunk decoded by DecodeWarm keeps the bytes it came from as its
// encoding, and every mutation that stales the content hash drops them:
// Encoding must always equal a fresh EncodeChunk.
func TestKeptEncodingFollowsContent(t *testing.T) {
	enc := EncodeChunk(fuzzSeedChunk())
	c, err := DecodeWarm(enc, HashChunkBytes(enc))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Encoding(); &got[0] != &enc[0] {
		t.Fatal("DecodeWarm re-encoded a canonical encoding instead of keeping it")
	}
	check := func(step string) {
		t.Helper()
		c.Warm()
		if !bytes.Equal(c.Encoding(), EncodeChunk(c)) || c.ContentHash() != HashChunkBytes(EncodeChunk(c)) {
			t.Fatalf("%s: kept encoding or hash is stale", step)
		}
	}
	if err := c.Set(Point{0, 0}, Tuple{9}); err != nil { // overwrite
		t.Fatal(err)
	}
	check("overwrite")
	if err := c.Set(Point{1, 1}, Tuple{5}); err != nil { // new cell
		t.Fatal(err)
	}
	check("insert")
	c.Delete(Point{1, 1})
	check("delete")
	src := NewChunk(indexSchema(), ChunkCoord{0, 0})
	if err := src.Set(Point{7, 3}, Tuple{2}); err != nil {
		t.Fatal(err)
	}
	if err := c.MergeFrom(src); err != nil {
		t.Fatal(err)
	}
	check("merge")
	if c.Clone().enc != nil {
		t.Fatal("a clone must not inherit the kept encoding")
	}
}

// DecodeChunk backs all tuples with one slab: appending to one tuple must
// not overwrite the next cell's values.
func TestDecodedTuplesDoNotAlias(t *testing.T) {
	c, err := DecodeChunk(EncodeChunk(fuzzSeedChunk()))
	if err != nil {
		t.Fatal(err)
	}
	offs, _ := c.Columns()
	first, _ := c.GetOffset(offs[0])
	second, _ := c.GetOffset(offs[1])
	want := slices.Clone(second)
	_ = append(first, 42)
	if !slices.Equal(second, want) {
		t.Fatalf("append to one decoded tuple changed its neighbour: %v, want %v", second, want)
	}
}

// The key order IndexKeys keeps follows the chunk set, and a shallow
// clone that adds a chunk never changes the order its base walks.
func TestIndexedKeysFollowChunkSet(t *testing.T) {
	a := New(indexSchema())
	if err := a.Set(Point{25, 1}, Tuple{1}); err != nil {
		t.Fatal(err)
	}
	a.IndexKeys()
	walk := func(a *Array) []ChunkKey {
		var out []ChunkKey
		a.EachChunk(func(c *Chunk) bool { out = append(out, c.Key()); return true })
		return out
	}
	cl := a.ShallowClone()
	if err := cl.Set(Point{1, 1}, Tuple{2}); err != nil {
		t.Fatal(err)
	}
	if got := walk(cl); len(got) != 2 || got[0] > got[1] {
		t.Fatalf("clone walks %q after adding a chunk", got)
	}
	if got := walk(a); len(got) != 1 {
		t.Fatalf("base walks %q after its clone added a chunk", got)
	}
	if !slices.Equal(cl.ChunkKeys(), walk(cl)) {
		t.Fatal("ChunkKeys and EachChunk disagree")
	}
	cl.Delete(Point{25, 1})
	if got := walk(cl); len(got) != 1 {
		t.Fatalf("clone walks %q after its chunk emptied", got)
	}
}
