// Package array implements the multi-dimensional array data model used by
// the rest of the system: schemas with dimensions and attributes, sparse
// cells addressed by integer coordinates, and regular chunking.
//
// The model follows Section 2.1 of Zhao et al., "Incremental View
// Maintenance over Array Data" (SIGMOD 2017): an array is a function from
// dimension indices to attribute tuples, physically partitioned into
// regular chunks aligned with the dimensions.
package array

import (
	"errors"
	"fmt"
	"strings"
)

// AttrType enumerates the scalar types a cell attribute can take. All
// attribute values are carried as float64 in memory; the type records the
// declared logical type for schema display and serialization.
type AttrType int

const (
	// Float64 is a double-precision floating point attribute.
	Float64 AttrType = iota
	// Int64 is a signed integer attribute (stored as float64 in tuples).
	Int64
)

// String returns the AQL-style name of the attribute type.
func (t AttrType) String() string {
	switch t {
	case Float64:
		return "double"
	case Int64:
		return "int"
	default:
		return fmt.Sprintf("AttrType(%d)", int(t))
	}
}

// Dimension describes one ordered dimension of an array: a continuous
// inclusive integer range [Start, End] partitioned into regular chunks of
// ChunkSize indices each, anchored at Start.
type Dimension struct {
	Name      string
	Start     int64
	End       int64
	ChunkSize int64
}

// Len returns the number of valid indices of the dimension.
func (d Dimension) Len() int64 { return d.End - d.Start + 1 }

// NumChunks returns how many chunks the dimension range is split into.
func (d Dimension) NumChunks() int64 {
	return (d.Len() + d.ChunkSize - 1) / d.ChunkSize
}

// Validate reports whether the dimension is well formed.
func (d Dimension) Validate() error {
	if d.Name == "" {
		return errors.New("array: dimension has empty name")
	}
	if d.End < d.Start {
		return fmt.Errorf("array: dimension %q has End %d < Start %d", d.Name, d.End, d.Start)
	}
	if d.ChunkSize <= 0 {
		return fmt.Errorf("array: dimension %q has non-positive chunk size %d", d.Name, d.ChunkSize)
	}
	return nil
}

// Attribute describes one named attribute carried by every non-empty cell.
type Attribute struct {
	Name string
	Type AttrType
}

// Schema is the full description of an array: its name, ordered dimensions,
// and attributes. A Schema is immutable once built; share it freely.
type Schema struct {
	Name  string
	Dims  []Dimension
	Attrs []Attribute
}

// NewSchema builds and validates a schema.
func NewSchema(name string, dims []Dimension, attrs []Attribute) (*Schema, error) {
	s := &Schema{Name: name, Dims: dims, Attrs: attrs}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// MustSchema is like NewSchema but panics on error. Intended for tests and
// statically-known schemas.
func MustSchema(name string, dims []Dimension, attrs []Attribute) *Schema {
	s, err := NewSchema(name, dims, attrs)
	if err != nil {
		panic(err)
	}
	return s
}

// Validate checks structural invariants: non-empty name, at least one
// dimension, well-formed dimensions, and unique dimension/attribute names.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return errors.New("array: schema has empty name")
	}
	if len(s.Dims) == 0 {
		return fmt.Errorf("array: schema %q has no dimensions", s.Name)
	}
	seen := make(map[string]bool, len(s.Dims)+len(s.Attrs))
	for _, d := range s.Dims {
		if err := d.Validate(); err != nil {
			return err
		}
		if seen[d.Name] {
			return fmt.Errorf("array: schema %q has duplicate name %q", s.Name, d.Name)
		}
		seen[d.Name] = true
	}
	for _, a := range s.Attrs {
		if a.Name == "" {
			return fmt.Errorf("array: schema %q has attribute with empty name", s.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("array: schema %q has duplicate name %q", s.Name, a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}

// NumDims returns the dimensionality of the array.
func (s *Schema) NumDims() int { return len(s.Dims) }

// NumAttrs returns the number of attributes per cell.
func (s *Schema) NumAttrs() int { return len(s.Attrs) }

// DimIndex returns the position of the named dimension, or -1.
func (s *Schema) DimIndex(name string) int {
	for i, d := range s.Dims {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// AttrIndex returns the position of the named attribute, or -1.
func (s *Schema) AttrIndex(name string) int {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Bounds returns the region covering the entire array domain.
func (s *Schema) Bounds() Region {
	lo := make(Point, len(s.Dims))
	hi := make(Point, len(s.Dims))
	for i, d := range s.Dims {
		lo[i] = d.Start
		hi[i] = d.End
	}
	return Region{Lo: lo, Hi: hi}
}

// Contains reports whether p is inside the array domain.
func (s *Schema) Contains(p Point) bool {
	if len(p) != len(s.Dims) {
		return false
	}
	for i, d := range s.Dims {
		if p[i] < d.Start || p[i] > d.End {
			return false
		}
	}
	return true
}

// NumChunks returns the total number of chunk slots in the domain (occupied
// or not).
func (s *Schema) NumChunks() int64 {
	n := int64(1)
	for _, d := range s.Dims {
		n *= d.NumChunks()
	}
	return n
}

// ChunkCoordOf returns the chunk coordinate (per-dimension chunk index)
// containing the cell at p. The point must be inside the domain.
func (s *Schema) ChunkCoordOf(p Point) ChunkCoord {
	cc := make(ChunkCoord, len(s.Dims))
	for i, d := range s.Dims {
		cc[i] = (p[i] - d.Start) / d.ChunkSize
	}
	return cc
}

// ChunkRegion returns the cell region covered by the chunk at coordinate cc,
// clipped to the array domain.
func (s *Schema) ChunkRegion(cc ChunkCoord) Region {
	lo := make(Point, len(s.Dims))
	hi := make(Point, len(s.Dims))
	for i, d := range s.Dims {
		lo[i] = d.Start + cc[i]*d.ChunkSize
		hi[i] = lo[i] + d.ChunkSize - 1
		if hi[i] > d.End {
			hi[i] = d.End
		}
	}
	return Region{Lo: lo, Hi: hi}
}

// CheckChunk reports whether a decoded chunk belongs in an array of this
// schema: the same dimensionality and attribute count, a coordinate inside
// the chunk grid, and exactly the region ChunkRegion gives that coordinate.
// Readers of wire and file chunks call it before PutChunk.
func (s *Schema) CheckChunk(c *Chunk) error {
	if len(c.coord) != len(s.Dims) || c.nattrs != len(s.Attrs) {
		return fmt.Errorf("array: chunk of %d dims and %d attrs does not fit schema %q (%d, %d)",
			len(c.coord), c.nattrs, s.Name, len(s.Dims), len(s.Attrs))
	}
	for i, d := range s.Dims {
		if c.coord[i] < 0 || c.coord[i] >= d.NumChunks() {
			return fmt.Errorf("array: chunk %v outside the chunk grid of schema %q", c.coord, s.Name)
		}
	}
	if want := s.ChunkRegion(c.coord); !c.region.Lo.Equal(want.Lo) || !c.region.Hi.Equal(want.Hi) {
		return fmt.Errorf("array: chunk %v covers %v, schema %q has %v", c.coord, c.region, s.Name, want)
	}
	return nil
}

// ChunksOverlapping returns the chunk coordinates of every chunk slot whose
// region intersects r (r is clipped to the domain first). The result is in
// row-major order. It returns nil when the clipped region is empty.
func (s *Schema) ChunksOverlapping(r Region) []ChunkCoord {
	clipped, ok := r.Intersect(s.Bounds())
	if !ok {
		return nil
	}
	d := len(s.Dims)
	loC := make([]int64, d)
	hiC := make([]int64, d)
	total := int64(1)
	for i, dim := range s.Dims {
		loC[i] = (clipped.Lo[i] - dim.Start) / dim.ChunkSize
		hiC[i] = (clipped.Hi[i] - dim.Start) / dim.ChunkSize
		total *= hiC[i] - loC[i] + 1
	}
	out := make([]ChunkCoord, 0, total)
	cur := make([]int64, d)
	copy(cur, loC)
	for {
		cc := make(ChunkCoord, d)
		copy(cc, cur)
		out = append(out, cc)
		// Advance odometer, last dimension fastest.
		i := d - 1
		for ; i >= 0; i-- {
			cur[i]++
			if cur[i] <= hiC[i] {
				break
			}
			cur[i] = loC[i]
		}
		if i < 0 {
			break
		}
	}
	return out
}

// String renders the schema in AQL-like notation, e.g.
// A<r:int,s:int>[i=1,6,2; j=1,8,2].
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('<')
	for i, a := range s.Attrs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%s", a.Name, a.Type)
	}
	b.WriteString(">[")
	for i, d := range s.Dims {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s=%d,%d,%d", d.Name, d.Start, d.End, d.ChunkSize)
	}
	b.WriteByte(']')
	return b.String()
}
