package array

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Chunk is the unit of storage, I/O, and processing: a group of adjacent
// cells covered by one regular chunk slot of the schema. Cells are stored
// sparsely, keyed by their local row-major offset inside the chunk region.
//
// A Chunk maintains three lazily built caches derived from the occupied
// offset set: a sorted-offset index (backing EachSorted), the coordinate
// column (the cells' decoded global coordinates in index order, backing
// Columns), and the tight bounding box of the occupied cells (backing
// BoundingBox). All are invalidated by any mutation that changes which
// cells are occupied and rebuilt on next use, so repeated ordered iteration
// and pruning — the join kernel's access pattern — pay the sort, the offset
// decode and the scan once, not per call.
//
// A Chunk is not safe for concurrent use: even read-side iteration may
// build the caches. The cluster layer hands each worker its own copy, or
// calls Warm before sharing one.
type Chunk struct {
	coord  ChunkCoord
	region Region
	nattrs int
	cells  map[int64]Tuple

	// sorted is the row-major offset index; nil when stale.
	sorted []int64
	// coords is the coordinate column: the global coordinates of the cells
	// of sorted, packed d to a row in the same order; nil when stale.
	coords []int64
	// bbox is the cached bounding box of the occupied cells; valid only
	// while bboxOK is set and the chunk is non-empty.
	bbox   Region
	bboxOK bool
	// hash caches ContentHash; valid only while hashOK is set. Unlike the
	// occupancy caches above, the hash also goes stale when an occupied
	// cell is overwritten with a new value.
	hash   uint64
	hashOK bool
	// enc is the canonical encoding Warm keeps (see Encoding); valid only
	// while hashOK is set, and dropped with it.
	enc []byte
}

// NewChunk creates an empty chunk covering the slot cc of schema s.
func NewChunk(s *Schema, cc ChunkCoord) *Chunk {
	return &Chunk{
		coord:  cc.Clone(),
		region: s.ChunkRegion(cc),
		nattrs: s.NumAttrs(),
		cells:  make(map[int64]Tuple),
	}
}

// Coord returns the chunk's coordinate.
func (c *Chunk) Coord() ChunkCoord { return c.coord }

// Key returns the chunk's map key.
func (c *Chunk) Key() ChunkKey { return c.coord.Key() }

// Region returns the cell region covered by the chunk.
func (c *Chunk) Region() Region { return c.region }

// NumCells returns the number of non-empty cells.
func (c *Chunk) NumCells() int { return len(c.cells) }

// NumAttrs returns the attributes per cell.
func (c *Chunk) NumAttrs() int { return c.nattrs }

// SizeBytes returns the approximate serialized size of the chunk: the B_q
// parameter of the paper's cost model. Each cell carries its local offset
// (8 bytes) plus 8 bytes per attribute.
func (c *Chunk) SizeBytes() int64 {
	return int64(len(c.cells)) * int64(8+8*c.nattrs)
}

// EncodedSize returns the exact length of EncodeChunk's output without
// encoding: the ACH1 header plus the cell payload.
func (c *Chunk) EncodedSize() int64 {
	return int64(4+4+8*len(c.coord)*3+4+8) + c.SizeBytes()
}

// EncodedPayloadSize returns the SizeBytes of the chunk a well-formed ACH1
// encoding holds, read from its header: the encoding's length less the
// header's.
func EncodedPayloadSize(enc []byte) int64 {
	d := int64(binary.BigEndian.Uint32(enc[4:]))
	return int64(len(enc)) - (4 + 4 + 8*d*3 + 4 + 8)
}

// invalidate drops the derived caches. Called by every mutation that
// changes the set of occupied offsets; overwriting an occupied cell keeps
// the occupancy caches valid (the content hash is dropped separately,
// since any value change alters the canonical encoding).
func (c *Chunk) invalidate() {
	c.sorted = nil
	c.coords = nil
	c.bboxOK = false
	c.dropHash()
}

// dropHash marks the content hash, and the kept encoding, stale.
func (c *Chunk) dropHash() {
	c.hashOK = false
	c.enc = nil
}

// index returns the sorted-offset index, rebuilding it if stale. The
// returned slice is owned by the chunk and must not be mutated; callers
// iterating it see a snapshot even if the chunk is mutated mid-iteration
// (matching the historical EachSorted semantics).
func (c *Chunk) index() []int64 {
	if c.sorted == nil {
		offs := make([]int64, 0, len(c.cells))
		for off := range c.cells {
			offs = append(offs, off)
		}
		slices.Sort(offs)
		c.sorted = offs
	}
	return c.sorted
}

// Columns returns the chunk's cells as two parallel columns in row-major
// order: offs[k] is the k-th cell's local offset (the key GetOffset takes)
// and coords[k*d:(k+1)*d] its global coordinates, d being the chunk's
// dimensionality. Both are built on first use and kept until the next
// occupancy change, so a kernel visiting every cell many times decodes each
// offset once. The slices are owned by the chunk and must not be mutated.
func (c *Chunk) Columns() (offs, coords []int64) {
	offs = c.index()
	if c.coords == nil {
		d := len(c.region.Lo)
		col := make([]int64, len(offs)*d)
		for k, off := range offs {
			c.globalPointInto(off, col[k*d:(k+1)*d])
		}
		c.coords = col
	}
	return offs, c.coords
}

// localOffset converts a global point inside the chunk region to a local
// row-major offset.
func (c *Chunk) localOffset(p Point) int64 {
	off := int64(0)
	for i := range p {
		span := c.region.Hi[i] - c.region.Lo[i] + 1
		off = off*span + (p[i] - c.region.Lo[i])
	}
	return off
}

// globalPoint converts a local offset back to a global point.
func (c *Chunk) globalPoint(off int64) Point {
	p := make(Point, len(c.region.Lo))
	c.globalPointInto(off, p)
	return p
}

// globalPointInto decodes a local offset into the caller-provided point,
// which must have the chunk's dimensionality.
func (c *Chunk) globalPointInto(off int64, p Point) {
	for i := len(c.region.Lo) - 1; i >= 0; i-- {
		span := c.region.Hi[i] - c.region.Lo[i] + 1
		p[i] = c.region.Lo[i] + off%span
		off /= span
	}
}

// Set writes the tuple at point p, which must lie inside the chunk region
// and carry exactly the schema's attribute count. The tuple is copied.
func (c *Chunk) Set(p Point, t Tuple) error {
	if !c.region.Contains(p) {
		return fmt.Errorf("array: point %v outside chunk region %v", p, c.region)
	}
	if len(t) != c.nattrs {
		return fmt.Errorf("array: tuple has %d attrs, chunk needs %d", len(t), c.nattrs)
	}
	off := c.localOffset(p)
	if _, occupied := c.cells[off]; !occupied {
		c.invalidate()
	}
	// Every Set changes content (a fresh cell or a new value), so the
	// content hash goes stale even when the occupancy caches survive.
	c.dropHash()
	c.cells[off] = t.Clone()
	return nil
}

// Get returns the tuple at point p, or ok=false for an empty cell.
func (c *Chunk) Get(p Point) (t Tuple, ok bool) {
	if !c.region.Contains(p) {
		return nil, false
	}
	t, ok = c.cells[c.localOffset(p)]
	return t, ok
}

// GetOffset returns the tuple stored at a local row-major offset. It is the
// join kernel's fetch path: the kernel takes offsets from Columns, or
// derives them incrementally from the region's strides, so the per-probe
// point decoding and bounds check of Get are skipped.
func (c *Chunk) GetOffset(off int64) (t Tuple, ok bool) {
	t, ok = c.cells[off]
	return t, ok
}

// Delete empties the cell at p, reporting whether it was non-empty.
func (c *Chunk) Delete(p Point) bool {
	if !c.region.Contains(p) {
		return false
	}
	off := c.localOffset(p)
	if _, ok := c.cells[off]; !ok {
		return false
	}
	delete(c.cells, off)
	c.invalidate()
	return true
}

// Each calls fn for every non-empty cell. The iteration order is
// unspecified; use EachSorted when determinism matters. The point and tuple
// passed to fn are owned by the chunk; clone them if retained or mutated.
func (c *Chunk) Each(fn func(p Point, t Tuple) bool) {
	for off, t := range c.cells {
		if !fn(c.globalPoint(off), t) {
			return
		}
	}
}

// EachSorted calls fn for every non-empty cell in row-major order.
func (c *Chunk) EachSorted(fn func(p Point, t Tuple) bool) {
	for _, off := range c.index() {
		if !fn(c.globalPoint(off), c.cells[off]) {
			return
		}
	}
}

// Warm builds every lazily derived cache — the sorted-offset index, the
// coordinate column, the bounding box, the content hash, and the canonical
// encoding it hashes, which Warm keeps for Encoding — so subsequent reads
// (iteration, joins, pruning, encoding) mutate nothing. A warmed chunk
// that is never mutated again is safe for concurrent readers.
func (c *Chunk) Warm() {
	c.Columns()
	c.BoundingBox()
	if c.enc == nil {
		c.enc = EncodeChunk(c)
		c.hash, c.hashOK = HashChunkBytes(c.enc), true
	}
}

// Encoding returns the chunk's canonical ACH1 encoding: the one Warm kept,
// shared and read-only, or else a fresh EncodeChunk.
func (c *Chunk) Encoding() []byte {
	if c.enc != nil {
		return c.enc
	}
	return EncodeChunk(c)
}

// Clone returns a deep copy of the chunk. Derived caches are not copied;
// the clone rebuilds them on first use.
func (c *Chunk) Clone() *Chunk {
	out := &Chunk{
		coord:  c.coord.Clone(),
		region: c.region.Clone(),
		nattrs: c.nattrs,
		cells:  make(map[int64]Tuple, len(c.cells)),
	}
	for off, t := range c.cells {
		out.cells[off] = t.Clone()
	}
	return out
}

// MergeFrom copies every non-empty cell of src into c, overwriting
// collisions. Both chunks must cover the same region. Tuples are cloned;
// src is untouched. Use AbsorbFrom when src is a scratch chunk that will be
// discarded.
func (c *Chunk) MergeFrom(src *Chunk) error {
	if !c.coord.Equal(src.coord) {
		return fmt.Errorf("array: merging chunk %v into %v", src.coord, c.coord)
	}
	for off, t := range src.cells {
		c.cells[off] = t.Clone()
	}
	if len(src.cells) > 0 {
		c.invalidate()
	}
	return nil
}

// AbsorbFrom moves every non-empty cell of src into c, overwriting
// collisions. Both chunks must cover the same region. Unlike MergeFrom the
// tuples are moved, not cloned: c takes ownership and src is left empty, so
// a batch-local source chunk can be dropped afterwards without aliasing c's
// data.
func (c *Chunk) AbsorbFrom(src *Chunk) error {
	if !c.coord.Equal(src.coord) {
		return fmt.Errorf("array: absorbing chunk %v into %v", src.coord, c.coord)
	}
	if len(src.cells) == 0 {
		return nil
	}
	for off, t := range src.cells {
		c.cells[off] = t
	}
	clear(src.cells)
	c.invalidate()
	src.invalidate()
	return nil
}

// BoundingBox returns the tight bounding region of the non-empty cells and
// ok=false when the chunk is empty. Used for cell-granularity join pruning.
// The result is cached until the next occupancy change; the returned region
// shares the cache's storage and must be treated as read-only (clone before
// mutating or retaining across chunk mutations).
func (c *Chunk) BoundingBox() (Region, bool) {
	if len(c.cells) == 0 {
		return Region{}, false
	}
	if c.bboxOK {
		return c.bbox, true
	}
	d := len(c.region.Lo)
	bb := Region{Lo: make(Point, d), Hi: make(Point, d)}
	p := make(Point, d)
	first := true
	for off := range c.cells {
		c.globalPointInto(off, p)
		if first {
			copy(bb.Lo, p)
			copy(bb.Hi, p)
			first = false
			continue
		}
		for i := range p {
			if p[i] < bb.Lo[i] {
				bb.Lo[i] = p[i]
			}
			if p[i] > bb.Hi[i] {
				bb.Hi[i] = p[i]
			}
		}
	}
	c.bbox = bb
	c.bboxOK = true
	return c.bbox, true
}
