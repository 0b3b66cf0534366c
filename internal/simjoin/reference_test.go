package simjoin

import "github.com/arrayview/arrayview/internal/array"

// refJoinChunkPair is the per-cell kernel JoinChunkPair replaced, kept as
// the reference the column kernel is compared against: it walks both chunks
// with EachSorted, so every visit of a β cell decodes its coordinates from
// its offset again, and it fetches every tuple it walks past. It makes
// the same regime decision and reports it: "pruned", "scan", "probe-map" or
// "probe-dense".
func refJoinChunkPair(p Pred, ca, cb *array.Chunk, emit func(a, b array.Point, ta, tb array.Tuple) bool) string {
	if ca.NumCells() == 0 || cb.NumCells() == 0 {
		return "pruned"
	}
	d := cb.Region().NumDims()
	r := &refScratch{
		b:  make(array.Point, d),
		ma: make(array.Point, d), off: make([]int64, d),
		shLo: make([]int64, d), shHi: make([]int64, d),
		candLo: make(array.Point, d), candHi: make(array.Point, d),
		stride: make([]int64, d),
	}
	p.Shape.BoxInto(r.shLo, r.shHi)
	bbA, _ := ca.BoundingBox()
	mlo, mhi := p.Mapping.Map(bbA.Lo), p.Mapping.Map(bbA.Hi)
	rb := cb.Region()
	for i := range rb.Lo {
		if mlo[i]+r.shLo[i] > rb.Hi[i] || mhi[i]+r.shHi[i] < rb.Lo[i] {
			return "pruned"
		}
	}
	regime := "scan"
	boxVol := p.Shape.BoxVolume()
	probe := boxVol <= int64(cb.NumCells())*4
	if probe {
		regime = "probe-map"
		vol := int64(1)
		for i := d - 1; i >= 0; i-- {
			r.stride[i] = vol
			vol *= rb.Hi[i] - rb.Lo[i] + 1
		}
		if vol <= maxDenseVol && vol <= int64(ca.NumCells())*boxVol {
			regime = "probe-dense"
			r.dense = make([]int32, vol)
			cb.EachSorted(func(b array.Point, tb array.Tuple) bool {
				idx := int64(0)
				for i := range b {
					idx += (b[i] - rb.Lo[i]) * r.stride[i]
				}
				r.tuples = append(r.tuples, tb)
				r.dense[idx] = int32(len(r.tuples))
				return true
			})
		}
	}
	stop := false
	ca.EachSorted(func(a array.Point, ta array.Tuple) bool {
		if probe {
			refProbeCell(p, r, a, ta, cb, emit, &stop)
		} else {
			refScanCell(p, r, a, ta, cb, emit, &stop)
		}
		return !stop
	})
	return regime
}

type refScratch struct {
	b, ma          array.Point
	off            []int64
	shLo, shHi     []int64
	candLo, candHi array.Point
	stride         []int64
	dense          []int32
	tuples         []array.Tuple
}

func refProbeCell(p Pred, r *refScratch, a array.Point, ta array.Tuple, cb *array.Chunk, emit func(a, b array.Point, ta, tb array.Tuple) bool, stop *bool) {
	p.Mapping.MapInto(a, r.ma)
	rb := cb.Region()
	d := len(r.ma)
	for i := 0; i < d; i++ {
		lo := max(r.ma[i]+r.shLo[i], rb.Lo[i])
		hi := min(r.ma[i]+r.shHi[i], rb.Hi[i])
		if lo > hi {
			return
		}
		r.candLo[i], r.candHi[i] = lo, hi
	}
	copy(r.b, r.candLo)
	idx := int64(0)
	for i := 0; i < d; i++ {
		idx += (r.b[i] - rb.Lo[i]) * r.stride[i]
	}
	for {
		for i := 0; i < d; i++ {
			r.off[i] = r.b[i] - r.ma[i]
		}
		if p.Shape.Contains(r.off) {
			var tb array.Tuple
			var found bool
			if r.dense != nil {
				if k := r.dense[idx]; k > 0 {
					tb, found = r.tuples[k-1], true
				}
			} else {
				tb, found = cb.GetOffset(idx)
			}
			if found && !emit(a, r.b, ta, tb) {
				*stop = true
				return
			}
		}
		i := d - 1
		for ; i >= 0; i-- {
			r.b[i]++
			idx += r.stride[i]
			if r.b[i] <= r.candHi[i] {
				break
			}
			r.b[i] = r.candLo[i]
			idx -= (r.candHi[i] - r.candLo[i] + 1) * r.stride[i]
		}
		if i < 0 {
			return
		}
	}
}

func refScanCell(p Pred, r *refScratch, a array.Point, ta array.Tuple, cb *array.Chunk, emit func(a, b array.Point, ta, tb array.Tuple) bool, stop *bool) {
	p.Mapping.MapInto(a, r.ma)
	cb.EachSorted(func(b array.Point, tb array.Tuple) bool {
		for i := range b {
			r.off[i] = b[i] - r.ma[i]
		}
		if !p.Shape.Contains(r.off) {
			return true
		}
		if !emit(a, b, ta, tb) {
			*stop = true
			return false
		}
		return true
	})
}
