package array

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Chunk wire format (all integers big-endian):
//
//	u32  magic "ACH1"
//	u32  number of dimensions d
//	d ×  i64 chunk coordinate
//	d ×  i64 region lo
//	d ×  i64 region hi
//	u32  attributes per cell m
//	u64  number of cells n
//	n ×  (i64 local offset, m × f64 attribute values)
//
// Cells are written in ascending local-offset order, so the encoding of a
// given cell set is canonical: equal chunks produce byte-identical
// encodings and therefore equal content hashes (see ContentHash).
const chunkMagic = 0x41434831 // "ACH1"

// maxDecodeAttrs bounds the per-cell attribute count a decoder will
// accept. Schemas carry a handful of attributes; the bound exists so a
// hostile frame cannot make the decoder allocate per-cell tuples of
// arbitrary width.
const maxDecodeAttrs = 1 << 12

// EncodeChunk serializes the chunk into a self-describing byte slice.
func EncodeChunk(c *Chunk) []byte {
	d := len(c.coord)
	size := 4 + 4 + 8*d*3 + 4 + 8 + len(c.cells)*(8+8*c.nattrs)
	buf := make([]byte, 0, size)
	buf = binary.BigEndian.AppendUint32(buf, chunkMagic)
	buf = binary.BigEndian.AppendUint32(buf, uint32(d))
	for _, v := range c.coord {
		buf = binary.BigEndian.AppendUint64(buf, uint64(v))
	}
	for _, v := range c.region.Lo {
		buf = binary.BigEndian.AppendUint64(buf, uint64(v))
	}
	for _, v := range c.region.Hi {
		buf = binary.BigEndian.AppendUint64(buf, uint64(v))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(c.nattrs))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(c.cells)))
	for _, off := range c.index() {
		t := c.cells[off]
		buf = binary.BigEndian.AppendUint64(buf, uint64(off))
		for _, v := range t {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf
}

// DecodeChunk parses a chunk previously produced by EncodeChunk.
func DecodeChunk(buf []byte) (*Chunk, error) {
	r := reader{buf: buf}
	if m := r.u32(); m != chunkMagic {
		return nil, fmt.Errorf("array: bad chunk magic %#x", m)
	}
	d := int(r.u32())
	if d <= 0 || d > 64 {
		return nil, fmt.Errorf("array: implausible dimensionality %d", d)
	}
	c := &Chunk{
		coord:  make(ChunkCoord, d),
		region: Region{Lo: make(Point, d), Hi: make(Point, d)},
	}
	for i := range c.coord {
		c.coord[i] = r.i64()
	}
	for i := range c.region.Lo {
		c.region.Lo[i] = r.i64()
	}
	for i := range c.region.Hi {
		c.region.Hi[i] = r.i64()
		// Offsets decode by dividing through each dimension's span.
		if c.region.Hi[i]-c.region.Lo[i]+1 <= 0 {
			return nil, fmt.Errorf("array: chunk region [%d, %d] on dim %d is empty or overflows", c.region.Lo[i], c.region.Hi[i], i)
		}
	}
	nattrs := r.u32()
	un := r.u64()
	if r.err != nil {
		return nil, r.err
	}
	if nattrs > maxDecodeAttrs {
		return nil, fmt.Errorf("array: implausible attribute count %d", nattrs)
	}
	c.nattrs = int(nattrs)
	// Validate the claimed cell count against the remaining payload in
	// uint64 space: a hostile count must not overflow into a plausible
	// product or pre-size a huge map.
	rem := len(buf) - r.pos
	cellSize := uint64(8 + 8*c.nattrs)
	if un > uint64(rem)/cellSize || uint64(rem) != un*cellSize {
		return nil, fmt.Errorf("array: chunk payload is %d bytes, want %d cells of %d", rem, un, cellSize)
	}
	n := int(un)
	c.cells = make(map[int64]Tuple, n)
	// One value slab backs every tuple; each tuple's capacity is capped at
	// its own width, so an append to one cannot reach its neighbour.
	vals := make([]float64, n*c.nattrs)
	// EncodeChunk writes offsets strictly ascending, so its payload is the
	// sorted index already; any other order (or a duplicate) leaves the
	// index nil for index() to sort the decoded cell set.
	offs := make([]int64, n)
	ascending := true
	vol := regionVolume(c.region)
	for i := range offs {
		off := r.i64()
		if uint64(off) >= vol {
			return nil, fmt.Errorf("array: cell offset %d outside chunk region of %d cells", off, vol)
		}
		lo := i * c.nattrs
		t := Tuple(vals[lo : lo+c.nattrs : lo+c.nattrs])
		for j := range t {
			t[j] = math.Float64frombits(r.u64())
		}
		c.cells[off] = t
		ascending = ascending && (i == 0 || off > offs[i-1])
		offs[i] = off
	}
	if ascending {
		c.sorted = offs
	}
	return c, r.err
}

// DecodeWarm decodes buf, whose content hash the caller already holds
// (hash must equal HashChunkBytes(buf)), and warms the chunk. A canonical
// buf — every EncodeChunk output is one — becomes the encoding Warm keeps,
// so the chunk is neither re-encoded nor re-hashed. buf must not be
// modified afterwards.
func DecodeWarm(buf []byte, hash uint64) (*Chunk, error) {
	c, err := DecodeChunk(buf)
	if err != nil {
		return nil, err
	}
	// Strictly ascending offsets (a built index) and an exact length make
	// buf byte for byte what EncodeChunk(c) writes.
	if c.sorted != nil {
		c.enc, c.hash, c.hashOK = buf, hash, true
	}
	c.Warm()
	return c, nil
}

// regionVolume is the cell-slot count of a decoded region, whose every
// extent the decoder has checked positive. It saturates at MaxInt64, so a
// hostile extent cannot wrap it into a small bound. A valid local offset
// lies in [0, volume): one unsigned comparison per cell checks both ends.
func regionVolume(r Region) uint64 {
	n := uint64(1)
	for i := range r.Lo {
		span := uint64(r.Hi[i] - r.Lo[i] + 1)
		if n > math.MaxInt64/span {
			return math.MaxInt64
		}
		n *= span
	}
	return n
}

// FNV-1a 64-bit parameters: a cheap, dependency-free content hash. The
// hash keys the wire-level dedup handshake, where a collision only costs
// a verification miss (the receiver compares against its own content),
// never correctness.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashChunkBytes hashes an ACH1 encoding (FNV-1a 64). Because EncodeChunk
// is canonical, hashing stored chunk bytes and calling ContentHash on the
// decoded chunk yield the same value.
func HashChunkBytes(buf []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range buf {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// ContentHash returns the FNV-1a 64 hash of the chunk's canonical ACH1
// encoding. The value is cached and recomputed only after a content
// mutation (Set, Delete, MergeFrom, AbsorbFrom).
func (c *Chunk) ContentHash() uint64 {
	if !c.hashOK {
		c.hash = HashChunkBytes(EncodeChunk(c))
		c.hashOK = true
	}
	return c.hash
}

type reader struct {
	buf []byte
	pos int
	err error
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.pos+4 > len(r.buf) {
		r.err = fmt.Errorf("array: truncated chunk at byte %d", r.pos)
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.pos+8 > len(r.buf) {
		r.err = fmt.Errorf("array: truncated chunk at byte %d", r.pos)
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v
}

func (r *reader) i64() int64 { return int64(r.u64()) }
