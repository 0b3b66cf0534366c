package array

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Chunk delta wire format ("ACHΔ"; all integers big-endian):
//
//	u32  magic "ACHD"
//	u32  number of dimensions d
//	d ×  i64 chunk coordinate
//	d ×  i64 region lo
//	d ×  i64 region hi
//	u32  attributes per cell m
//	u64  number of set records s
//	u64  number of delete records x
//	s ×  (i64 local offset, m × f64 attribute values)
//	x ×  i64 local offset
//
// A delta carries the cell-level difference new − old of two encodings of
// the same chunk slot: set records for cells added or changed, delete
// records for cells present in old and absent in new. Applying a delta to
// old reproduces new exactly. Records are written in ascending offset
// order, so deltas are canonical too.
const deltaMagic = 0x41434844 // "ACHD"

// tuplesEqual compares two tuples bit-exactly (the wire format round-trips
// float bits, so bit equality is the right notion here).
func tuplesEqual(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// ComputeDelta builds the ACHΔ payload transforming old into new. Both
// chunks must cover the same slot (coordinate, region, attribute count);
// ok=false is returned — with no payload — when they don't, or when the
// delta would not be smaller than new's full encoding (the caller should
// full-ship instead).
func ComputeDelta(old, new *Chunk) (delta []byte, ok bool) {
	if !old.coord.Equal(new.coord) || old.nattrs != new.nattrs ||
		!old.region.Lo.Equal(new.region.Lo) || !old.region.Hi.Equal(new.region.Hi) {
		return nil, false
	}
	var sets, dels []int64
	for _, off := range new.index() {
		nt := new.cells[off]
		ot, had := old.cells[off]
		if had && tuplesEqual(nt, ot) {
			continue
		}
		sets = append(sets, off)
	}
	for _, off := range old.index() {
		if _, still := new.cells[off]; !still {
			dels = append(dels, off)
		}
	}
	d := len(new.coord)
	m := new.nattrs
	header := 4 + 4 + 8*d*3 + 4 + 8 + 8
	deltaSize := header + len(sets)*(8+8*m) + len(dels)*8
	fullSize := 4 + 4 + 8*d*3 + 4 + 8 + len(new.cells)*(8+8*m)
	if deltaSize >= fullSize {
		return nil, false
	}
	buf := make([]byte, 0, deltaSize)
	buf = binary.BigEndian.AppendUint32(buf, deltaMagic)
	buf = binary.BigEndian.AppendUint32(buf, uint32(d))
	for _, v := range new.coord {
		buf = binary.BigEndian.AppendUint64(buf, uint64(v))
	}
	for _, v := range new.region.Lo {
		buf = binary.BigEndian.AppendUint64(buf, uint64(v))
	}
	for _, v := range new.region.Hi {
		buf = binary.BigEndian.AppendUint64(buf, uint64(v))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(m))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(sets)))
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(dels)))
	for _, off := range sets {
		buf = binary.BigEndian.AppendUint64(buf, uint64(off))
		for _, v := range new.cells[off] {
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	for _, off := range dels {
		buf = binary.BigEndian.AppendUint64(buf, uint64(off))
	}
	return buf, true
}

// ApplyDelta applies an ACHΔ payload to the chunk in place. The delta must
// target the chunk's slot; a mismatch (or a malformed payload) leaves the
// chunk unchanged and returns an error.
func ApplyDelta(c *Chunk, delta []byte) error {
	r := reader{buf: delta}
	if m := r.u32(); m != deltaMagic {
		return fmt.Errorf("array: bad delta magic %#x", m)
	}
	d := int(r.u32())
	if d <= 0 || d > 64 {
		return fmt.Errorf("array: implausible delta dimensionality %d", d)
	}
	if d != len(c.coord) {
		return fmt.Errorf("array: delta has %d dims, chunk has %d", d, len(c.coord))
	}
	coord := make(ChunkCoord, d)
	lo := make(Point, d)
	hi := make(Point, d)
	for i := range coord {
		coord[i] = r.i64()
	}
	for i := range lo {
		lo[i] = r.i64()
	}
	for i := range hi {
		hi[i] = r.i64()
	}
	nattrs := r.u32()
	ns := r.u64()
	nx := r.u64()
	if r.err != nil {
		return r.err
	}
	if nattrs > maxDecodeAttrs {
		return fmt.Errorf("array: implausible delta attribute count %d", nattrs)
	}
	if !coord.Equal(c.coord) || int(nattrs) != c.nattrs ||
		!lo.Equal(c.region.Lo) || !hi.Equal(c.region.Hi) {
		return fmt.Errorf("array: delta targets chunk %v/%d attrs, have %v/%d", coord, nattrs, c.coord, c.nattrs)
	}
	rem := uint64(len(delta) - r.pos)
	setSize := uint64(8 + 8*c.nattrs)
	if ns > rem/setSize || nx > (rem-ns*setSize)/8 || rem != ns*setSize+nx*8 {
		return fmt.Errorf("array: delta payload is %d bytes, want %d sets + %d deletes", rem, ns, nx)
	}
	// Every record's offset is checked before the first write, so a bad
	// record leaves the chunk unchanged.
	body, vol := delta[r.pos:], regionVolume(c.region)
	for i := uint64(0); i < ns+nx; i++ {
		at := i * setSize
		if i >= ns {
			at = ns*setSize + (i-ns)*8
		}
		if off := binary.BigEndian.Uint64(body[at:]); off >= vol {
			return fmt.Errorf("array: delta cell offset %d outside chunk region of %d cells", int64(off), vol)
		}
	}
	for i := uint64(0); i < ns; i++ {
		off := r.i64()
		t := make(Tuple, c.nattrs)
		for j := range t {
			t[j] = math.Float64frombits(r.u64())
		}
		if _, occupied := c.cells[off]; !occupied {
			c.invalidate()
		}
		c.dropHash()
		c.cells[off] = t
	}
	for i := uint64(0); i < nx; i++ {
		off := r.i64()
		if _, ok := c.cells[off]; ok {
			delete(c.cells, off)
			c.invalidate()
		}
	}
	return r.err
}
