package simjoin

import (
	"sync"

	"github.com/arrayview/arrayview/internal/array"
)

// joinScratch holds every buffer one chunk-pair join needs: the α/β cell
// coordinates handed to emit, the mapped α coordinate M(a), the offset
// vector handed to Shape.Contains, the shape bounding box (fetched once per
// pair), the mapped bounding-box corners of the occupancy prune, and the
// candidate-region cursor bounds of the probe path. Scratches are pooled so
// steady-state joins allocate nothing.
type joinScratch struct {
	cur    alphaCell   // the α cell being matched
	a, b   array.Point // α and β cell buffers passed to emit
	ma     array.Point // M(a), recomputed per α cell
	off    []int64     // b - M(a), tested against the shape
	shLo   []int64     // shape box, cached per pair
	shHi   []int64
	mlo    array.Point // mapped occupancy bounding-box corners
	mhi    array.Point
	candLo array.Point // probe candidate region bounds
	candHi array.Point

	// Probe-path offset addressing: stride holds cb's row-major strides so
	// the cursor loop tracks the β local offset incrementally. When the
	// pair's probe count justifies it (denseOK), cb's occupancy is
	// materialized once into dense — one flag per local offset — so a
	// probe that misses is one slice load instead of a map lookup.
	stride  []int64
	dense   []bool
	denseOK bool
}

// maxDenseVol caps the region volume materialized into the dense probe
// table (1 MiB of flags); larger chunks fall back to map probing.
const maxDenseVol = 1 << 20

var scratchPool = sync.Pool{New: func() any { return new(joinScratch) }}

// getScratch returns a pooled scratch sized for da α-dimensions and db
// β-dimensions.
func getScratch(da, db int) *joinScratch {
	sc := scratchPool.Get().(*joinScratch)
	sc.a = growI64(sc.a, da)
	sc.b = growI64(sc.b, db)
	sc.ma = growI64(sc.ma, db)
	sc.off = growI64(sc.off, db)
	sc.shLo = growI64(sc.shLo, db)
	sc.shHi = growI64(sc.shHi, db)
	sc.mlo = growI64(sc.mlo, db)
	sc.mhi = growI64(sc.mhi, db)
	sc.candLo = growI64(sc.candLo, db)
	sc.candHi = growI64(sc.candHi, db)
	sc.stride = growI64(sc.stride, db)
	sc.denseOK = false
	return sc
}

func putScratch(sc *joinScratch) {
	// Drop the references to the last α cell so a pooled scratch does not
	// pin the joined chunk in memory.
	sc.cur = alphaCell{}
	scratchPool.Put(sc)
}

// prepDense sizes and zeroes the dense probe table for a region of vol
// cells.
func (sc *joinScratch) prepDense(vol int64) {
	if int64(cap(sc.dense)) < vol {
		sc.dense = make([]bool, vol)
	} else {
		sc.dense = sc.dense[:vol]
		clear(sc.dense)
	}
	sc.denseOK = true
}

// growI64 reslices buf to length n, reallocating only when the capacity is
// insufficient.
func growI64(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	return buf[:n]
}
