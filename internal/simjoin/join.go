package simjoin

import (
	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/shape"
)

// Pred describes the full join predicate: the shape σ and the mapping M.
type Pred struct {
	Shape   *shape.Shape
	Mapping Mapping
}

// NewPred bundles a shape and mapping; a nil mapping defaults to identity.
func NewPred(s *shape.Shape, m Mapping) Pred {
	if m == nil {
		m = Identity{}
	}
	return Pred{Shape: s, Mapping: m}
}

// ReachRegion returns the β-space region of cells reachable through the
// predicate from any α cell in r: dilate(M(r), shape box).
func (p Pred) ReachRegion(r array.Region) array.Region {
	lo, hi := p.Shape.Box()
	return p.Mapping.MapRegion(r).Dilate(lo, hi)
}

// SourceRegion returns the α-space region of cells that can reach some β
// cell in r: the dilation by the reflected shape, pulled back through the
// mapping. It is exact for identity/translate mappings and a safe
// overapproximation for regridding.
func (p Pred) SourceRegion(r array.Region) array.Region {
	refl := p.Shape.Reflect()
	lo, hi := refl.Box()
	dilated := r.Dilate(lo, hi)
	switch m := p.Mapping.(type) {
	case Identity:
		return dilated
	case Translate:
		neg := make([]int64, len(m.Offset))
		for i, v := range m.Offset {
			neg[i] = -v
		}
		return Translate{Offset: neg}.MapRegion(dilated)
	case Regrid:
		lo2 := make(array.Point, len(dilated.Lo))
		hi2 := make(array.Point, len(dilated.Hi))
		for i := range dilated.Lo {
			lo2[i] = dilated.Lo[i] * m.Factor[i]
			hi2[i] = (dilated.Hi[i]+1)*m.Factor[i] - 1
		}
		return array.Region{Lo: lo2, Hi: hi2}
	default:
		return dilated
	}
}

// Matches reports whether β cell b is matched by α cell a under the
// predicate: b - M(a) must be in the shape.
func (p Pred) Matches(a, b array.Point) bool {
	ma := p.Mapping.Map(a)
	off := make([]int64, len(b))
	for i := range b {
		off[i] = b[i] - ma[i]
	}
	return p.Shape.Contains(off)
}

// PairChunks reports whether chunk regions ra (of α) and rb (of β) can
// contain at least one matching cell pair, using only metadata. This is the
// preprocessing step the paper performs over the catalog.
func (p Pred) PairChunks(ra, rb array.Region) bool {
	return p.ReachRegion(ra).Intersects(rb)
}

// JoinChunkPair enumerates all matching cell pairs between chunks ca (α
// side) and cb (β side) and calls emit for each; emit returning false stops
// the enumeration. The points and tuples passed to emit are owned by the
// kernel and its chunks and are valid only for the duration of the callback
// — clone before retaining.
//
// Two strategies are used per α cell: when the shape's bounding box is
// small, the box is probed directly against cb (offset probing); when the
// box is large relative to cb's occupancy, cb's cells are scanned and
// tested against the predicate (scan filtering). The crossover is chosen on
// cardinalities, mirroring how the similarity join operator picks between
// shape-order and data-order evaluation.
//
// The kernel reads both chunks through their cached columns
// (array.Chunk.Columns): every cell's coordinates are decoded once per
// chunk, not once per visit, and a tuple is fetched from the cell map only
// for a cell that matched. Every per-cell step runs out of a pooled
// scratch, so the steady-state inner loop performs no allocations and no
// per-call sorting. Joining chunks shared between goroutines requires them
// to be warmed (array.Chunk.Warm) first, since the first join would
// otherwise build the columns.
func (p Pred) JoinChunkPair(ca, cb *array.Chunk, emit func(a, b array.Point, ta, tb array.Tuple) bool) {
	if ca.NumCells() == 0 || cb.NumCells() == 0 {
		return
	}
	da := ca.Region().NumDims()
	sc := getScratch(da, cb.Region().NumDims())
	defer putScratch(sc)
	p.Shape.BoxInto(sc.shLo, sc.shHi)
	// Prune using the actual occupancy of ca, not just its chunk region:
	// the reach of ca's bounding box (dilate(M(bbox), shape box)) must
	// intersect cb's region. Unrolled over the scratch buffers instead of
	// composing ReachRegion/Intersects, which would allocate regions.
	bbA, _ := ca.BoundingBox()
	p.Mapping.MapInto(bbA.Lo, sc.mlo)
	p.Mapping.MapInto(bbA.Hi, sc.mhi)
	rb := cb.Region()
	for i := range rb.Lo {
		if sc.mlo[i]+sc.shLo[i] > rb.Hi[i] || sc.mhi[i]+sc.shHi[i] < rb.Lo[i] {
			return
		}
	}
	aOffs, aCoords := ca.Columns()
	bOffs, bCoords := cb.Columns()
	boxVol := p.Shape.BoxVolume()
	probe := boxVol <= int64(len(bOffs))*4
	if probe {
		// Probes address cb by local row-major offset, tracked incrementally
		// from these strides. When the pair performs more probes than cb's
		// region has cells, materializing the occupancy into a flat table
		// pays for itself and replaces every missed map lookup with a slice
		// load. The table is indexed by the offsets themselves, so it is
		// used only when they all lie inside the region's volume (a decoded
		// chunk's offsets are not otherwise checked).
		vol := int64(1)
		for i := rb.NumDims() - 1; i >= 0; i-- {
			sc.stride[i] = vol
			vol *= rb.Hi[i] - rb.Lo[i] + 1
		}
		if vol <= maxDenseVol && vol <= int64(len(aOffs))*boxVol && bOffs[0] >= 0 && bOffs[len(bOffs)-1] < vol {
			sc.prepDense(vol)
			for _, off := range bOffs {
				sc.dense[off] = true
			}
		}
	}
	for k, aOff := range aOffs {
		sc.cur = alphaCell{chunk: ca, off: aOff, coord: aCoords[k*da : (k+1)*da]}
		p.Mapping.MapInto(sc.cur.coord, sc.ma)
		var more bool
		if probe {
			more = p.probeCell(sc, cb, emit)
		} else {
			more = p.scanCell(sc, cb, bOffs, bCoords, emit)
		}
		if !more {
			return
		}
	}
}

// alphaCell is the α cell a chunk-pair join is currently matching: where
// its tuple lives and its row of the coordinate column.
type alphaCell struct {
	chunk   *array.Chunk
	off     int64
	coord   []int64
	tuple   array.Tuple
	fetched bool
}

// emitMatch hands the current α cell and the β cell at bOff, whose
// coordinates are in sc.b, to emit. The α cell's tuple is fetched, and its
// coordinates copied out of the chunk's column, on its first match only.
func (sc *joinScratch) emitMatch(cb *array.Chunk, bOff int64, emit func(a, b array.Point, ta, tb array.Tuple) bool) bool {
	if !sc.cur.fetched {
		sc.cur.tuple, _ = sc.cur.chunk.GetOffset(sc.cur.off)
		copy(sc.a, sc.cur.coord)
		sc.cur.fetched = true
	}
	tb, _ := cb.GetOffset(bOff)
	return emit(sc.a, sc.b, sc.cur.tuple, tb)
}

// probeCell enumerates shape offsets around M(a) for the current α cell and
// probes cb, reporting false once emit stops the join.
func (p Pred) probeCell(sc *joinScratch, cb *array.Chunk, emit func(a, b array.Point, ta, tb array.Tuple) bool) bool {
	rb := cb.Region()
	d := len(sc.ma)
	// Candidate region: [M(a)+shLo, M(a)+shHi] ∩ cb's region.
	for i := 0; i < d; i++ {
		lo := sc.ma[i] + sc.shLo[i]
		if rb.Lo[i] > lo {
			lo = rb.Lo[i]
		}
		hi := sc.ma[i] + sc.shHi[i]
		if rb.Hi[i] < hi {
			hi = rb.Hi[i]
		}
		if lo > hi {
			return true
		}
		sc.candLo[i], sc.candHi[i] = lo, hi
	}
	copy(sc.b, sc.candLo)
	idx := int64(0)
	for i := 0; i < d; i++ {
		idx += (sc.b[i] - rb.Lo[i]) * sc.stride[i]
	}
	for {
		for i := 0; i < d; i++ {
			sc.off[i] = sc.b[i] - sc.ma[i]
		}
		if p.Shape.Contains(sc.off) {
			found := false
			if sc.denseOK {
				found = sc.dense[idx]
			} else {
				_, found = cb.GetOffset(idx)
			}
			if found && !sc.emitMatch(cb, idx, emit) {
				return false
			}
		}
		i := d - 1
		for ; i >= 0; i-- {
			sc.b[i]++
			idx += sc.stride[i]
			if sc.b[i] <= sc.candHi[i] {
				break
			}
			sc.b[i] = sc.candLo[i]
			idx -= (sc.candHi[i] - sc.candLo[i] + 1) * sc.stride[i]
		}
		if i < 0 {
			return true
		}
	}
}

// scanCell filters cb's coordinate column by the predicate around M(a) for
// the current α cell, reporting false once emit stops the join.
func (p Pred) scanCell(sc *joinScratch, cb *array.Chunk, bOffs, bCoords []int64, emit func(a, b array.Point, ta, tb array.Tuple) bool) bool {
	d := len(sc.ma)
	for j, bOff := range bOffs {
		b := bCoords[j*d : (j+1)*d]
		for i, v := range b {
			sc.off[i] = v - sc.ma[i]
		}
		if !p.Shape.Contains(sc.off) {
			continue
		}
		copy(sc.b, b)
		if !sc.emitMatch(cb, bOff, emit) {
			return false
		}
	}
	return true
}

// JoinArrays runs the similarity join between two in-memory arrays,
// emitting every matched cell pair. It is the single-node reference
// implementation used to validate the distributed path and to compute
// complete joins in tests.
func JoinArrays(alpha, beta *array.Array, p Pred, emit func(a, b array.Point, ta, tb array.Tuple) bool) {
	stop := false
	alpha.EachChunk(func(ca *array.Chunk) bool {
		reach := p.ReachRegion(ca.Region())
		for _, cc := range beta.Schema().ChunksOverlapping(reach) {
			cb := beta.Chunk(cc)
			if cb == nil {
				continue
			}
			p.JoinChunkPair(ca, cb, func(a, b array.Point, ta, tb array.Tuple) bool {
				if !emit(a, b, ta, tb) {
					stop = true
				}
				return !stop
			})
			if stop {
				break
			}
		}
		return !stop
	})
}

// Materialize evaluates the similarity join into the concatenated-dimension
// output array τ of the paper: output dimensionality is dα + dβ and the
// output tuple is f(Υ, σ[Ψ]). Intended for small arrays (tests, examples);
// production paths aggregate instead of materializing τ.
func Materialize(alpha, beta *array.Array, p Pred, f ValueFunc) (*array.Array, error) {
	if f == nil {
		f = ConcatValues
	}
	sa, sb := alpha.Schema(), beta.Schema()
	dims := make([]array.Dimension, 0, len(sa.Dims)+len(sb.Dims))
	dims = append(dims, sa.Dims...)
	for _, d := range sb.Dims {
		d.Name = d.Name + "'"
		dims = append(dims, d)
	}
	attrs := make([]array.Attribute, 0, len(sa.Attrs)+len(sb.Attrs))
	attrs = append(attrs, sa.Attrs...)
	for _, a := range sb.Attrs {
		a.Name = a.Name + "'"
		attrs = append(attrs, a)
	}
	schema, err := array.NewSchema(sa.Name+"_join_"+sb.Name, dims, attrs)
	if err != nil {
		return nil, err
	}
	out := array.New(schema)
	var setErr error
	JoinArrays(alpha, beta, p, func(a, b array.Point, ta, tb array.Tuple) bool {
		pt := make(array.Point, 0, len(a)+len(b))
		pt = append(pt, a...)
		pt = append(pt, b...)
		if err := out.Set(pt, f(ta, tb)); err != nil {
			setErr = err
			return false
		}
		return true
	})
	return out, setErr
}
