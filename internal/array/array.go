package array

import (
	"fmt"
	"sort"
)

// Array is an in-memory sparse multi-dimensional array: a schema plus the
// set of occupied chunks. It is the logical representation; the distributed
// system stores the same chunks scattered across node stores.
type Array struct {
	schema *Schema
	chunks map[ChunkKey]*Chunk
	// borrowed marks chunks shared with a base array by ShallowClone.
	// Mutating methods clone a borrowed chunk before touching it
	// (copy-on-write), so the base is never modified through the clone. Nil
	// for arrays that own every chunk, which keeps the ownership check a
	// nil-map lookup on the hot paths.
	borrowed map[ChunkKey]bool
}

// New creates an empty array with the given schema.
func New(s *Schema) *Array {
	return &Array{schema: s, chunks: make(map[ChunkKey]*Chunk)}
}

// Schema returns the array's schema.
func (a *Array) Schema() *Schema { return a.schema }

// NumChunks returns the number of occupied chunks.
func (a *Array) NumChunks() int { return len(a.chunks) }

// NumCells returns the total number of non-empty cells.
func (a *Array) NumCells() int {
	n := 0
	for _, c := range a.chunks {
		n += c.NumCells()
	}
	return n
}

// Set writes tuple t at point p, materializing the containing chunk on
// first touch.
func (a *Array) Set(p Point, t Tuple) error {
	if !a.schema.Contains(p) {
		return fmt.Errorf("array: point %v outside domain of %s", p, a.schema.Name)
	}
	cc := a.schema.ChunkCoordOf(p)
	key := cc.Key()
	c, ok := a.chunks[key]
	if !ok {
		c = NewChunk(a.schema, cc)
		a.chunks[key] = c
	} else {
		c = a.ensureOwned(key)
	}
	return c.Set(p, t)
}

// Get returns the tuple at p, or ok=false for an empty cell.
func (a *Array) Get(p Point) (Tuple, bool) {
	if !a.schema.Contains(p) {
		return nil, false
	}
	c, ok := a.chunks[a.schema.ChunkCoordOf(p).Key()]
	if !ok {
		return nil, false
	}
	return c.Get(p)
}

// Delete empties the cell at p, dropping the chunk if it becomes empty.
func (a *Array) Delete(p Point) bool {
	if !a.schema.Contains(p) {
		return false
	}
	key := a.schema.ChunkCoordOf(p).Key()
	c, ok := a.chunks[key]
	if !ok {
		return false
	}
	// Probe the shared copy first so a miss never pays a clone.
	if _, occupied := c.Get(p); !occupied {
		return false
	}
	c = a.ensureOwned(key)
	deleted := c.Delete(p)
	if deleted && c.NumCells() == 0 {
		delete(a.chunks, key)
	}
	return deleted
}

// Chunk returns the chunk at coordinate cc, or nil if unoccupied.
func (a *Array) Chunk(cc ChunkCoord) *Chunk {
	return a.chunks[cc.Key()]
}

// ChunkByKey returns the chunk with the given key, or nil.
func (a *Array) ChunkByKey(k ChunkKey) *Chunk { return a.chunks[k] }

// PutChunk installs (or replaces) a chunk. The chunk must belong to a
// compatible schema slot; callers are trusted on region alignment.
func (a *Array) PutChunk(c *Chunk) {
	key := c.Key()
	a.chunks[key] = c
	delete(a.borrowed, key)
}

// MergeChunk merges src's cells into the resident chunk with the same
// coordinate, creating it first if absent.
func (a *Array) MergeChunk(src *Chunk) error {
	key := src.Key()
	c, ok := a.chunks[key]
	if !ok {
		a.chunks[key] = src.Clone()
		return nil
	}
	if a.borrowed[key] {
		c = a.ensureOwned(key)
	}
	return c.MergeFrom(src)
}

// ChunkKeys returns the keys of all occupied chunks in row-major order.
func (a *Array) ChunkKeys() []ChunkKey {
	keys := make([]ChunkKey, 0, len(a.chunks))
	for k := range a.chunks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// EachChunk calls fn for every occupied chunk in row-major key order.
func (a *Array) EachChunk(fn func(c *Chunk) bool) {
	for _, k := range a.ChunkKeys() {
		if !fn(a.chunks[k]) {
			return
		}
	}
}

// EachCell calls fn for every non-empty cell in chunk order, cells sorted
// within each chunk. The point and tuple are owned by the chunks.
func (a *Array) EachCell(fn func(p Point, t Tuple) bool) {
	stop := false
	a.EachChunk(func(c *Chunk) bool {
		c.EachSorted(func(p Point, t Tuple) bool {
			if !fn(p, t) {
				stop = true
			}
			return !stop
		})
		return !stop
	})
}

// Clone returns a deep copy of the array.
func (a *Array) Clone() *Array {
	out := New(a.schema)
	for k, c := range a.chunks {
		out.chunks[k] = c.Clone()
	}
	return out
}

// ShallowClone returns a copy-on-write overlay over this array: the clone
// shares every chunk with the base and clones a chunk privately the first
// time one of its own mutating methods (Set, Delete, MergeChunk) touches it,
// so the base is never modified through the clone.
//
// The contract is one-directional and read-frozen: the base must not be
// mutated while clones are alive (the clone would observe the change), and
// code that mutates tuples in place after Get — rather than through Set —
// must call EnsureOwned on the affected chunk first, because Get returns the
// stored tuple and an in-place update would write through to the shared
// chunk. Taking concurrent ShallowClones of one immutable base is safe: the
// base is only read.
func (a *Array) ShallowClone() *Array {
	out := &Array{
		schema:   a.schema,
		chunks:   make(map[ChunkKey]*Chunk, len(a.chunks)),
		borrowed: make(map[ChunkKey]bool, len(a.chunks)),
	}
	for k, c := range a.chunks {
		out.chunks[k] = c
		out.borrowed[k] = true
	}
	return out
}

// ensureOwned clones the chunk under key if it is still shared with a
// ShallowClone base, and returns the (now private) resident chunk. A nil
// return means the key is unoccupied.
func (a *Array) ensureOwned(key ChunkKey) *Chunk {
	c, ok := a.chunks[key]
	if !ok {
		return nil
	}
	if a.borrowed[key] {
		c = c.Clone()
		a.chunks[key] = c
		delete(a.borrowed, key)
	}
	return c
}

// EnsureOwned makes the chunk under key private to this array, cloning it if
// it is shared with a ShallowClone base. Callers that mutate tuples in place
// after Get (additive state merges) must call this for every chunk they will
// touch before reading the tuples. A no-op for unoccupied or already-owned
// chunks.
func (a *Array) EnsureOwned(key ChunkKey) { a.ensureOwned(key) }

// Owned reports whether the chunk under key is private to this array (true
// for unoccupied keys). Shared chunks come from ShallowClone.
func (a *Array) Owned(key ChunkKey) bool { return !a.borrowed[key] }

// Warm pre-builds every chunk's lazily derived caches (sorted-offset index,
// coordinate column, bounding box, content hash). A chunk is not safe for concurrent use
// because even read-side iteration may build those caches; after Warm, an
// array that is never mutated again can serve any number of concurrent
// readers — the property the assembled-view cache relies on to share one
// decoded base across queries.
func (a *Array) Warm() {
	for _, c := range a.chunks {
		c.Warm()
	}
}

// Equal reports whether two arrays hold identical cells, comparing tuple
// values exactly. Schemas are compared by pointer identity of shape only
// (same dims/chunking), not by name.
func (a *Array) Equal(b *Array) bool {
	if a.NumChunks() != b.NumChunks() {
		return false
	}
	for k, ca := range a.chunks {
		cb, ok := b.chunks[k]
		if !ok || ca.NumCells() != cb.NumCells() {
			return false
		}
		same := true
		ca.Each(func(p Point, t Tuple) bool {
			u, ok := cb.Get(p)
			if !ok || len(u) != len(t) {
				same = false
				return false
			}
			for i := range t {
				if t[i] != u[i] {
					same = false
					return false
				}
			}
			return true
		})
		if !same {
			return false
		}
	}
	return true
}

// EqualStates reports whether two arrays of additive aggregate state hold the
// same content, treating an absent cell as an all-zero tuple: a retraction
// leaves zero-state cells behind that a from-scratch recomputation never
// creates, and the two are the same state.
func (a *Array) EqualStates(b *Array) bool {
	covers := func(x, y *Array) bool {
		ok := true
		x.EachCell(func(p Point, t Tuple) bool {
			u, _ := y.Get(p) // absent: u is empty, every t[i] must be zero
			for i := range t {
				var v float64
				if i < len(u) {
					v = u[i]
				}
				if t[i] != v {
					ok = false
				}
			}
			return ok
		})
		return ok
	}
	return covers(a, b) && covers(b, a)
}

// SizeBytes returns the total approximate serialized size of all chunks.
func (a *Array) SizeBytes() int64 {
	n := int64(0)
	for _, c := range a.chunks {
		n += c.SizeBytes()
	}
	return n
}
