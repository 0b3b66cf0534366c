// Package shape implements the shape arrays used by array similarity join
// (Section 2.2 of the paper): finite sets of integer offsets applied around
// each cell. A shape is represented by a bounding box of offsets plus a
// membership predicate, which keeps very elongated shapes (e.g., "similar at
// any time within a window") cheap while still supporting exact enumeration
// for Δ-shape computation (Section 5).
package shape

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// Shape is a finite set of d-dimensional integer offsets. The zero offset
// may or may not be a member; the paper's L1(1) "5-cell cross" includes it.
// Shapes are immutable after construction, except for the cardinality cache,
// which is atomic so one shape can serve concurrent readers (the serving
// path prices queries against the same shape the maintenance loop plans
// with).
type Shape struct {
	name string
	lo   []int64
	hi   []int64
	pred func(off []int64) bool
	card atomic.Int64 // lazily computed cardinality; -1 until known
	spec *Spec        // structural provenance when built by a named constructor
}

// New builds a shape from an offset bounding box [lo, hi] (inclusive,
// component-wise) and a membership predicate evaluated only inside the box.
func New(name string, lo, hi []int64, pred func(off []int64) bool) (*Shape, error) {
	if len(lo) != len(hi) || len(lo) == 0 {
		return nil, fmt.Errorf("shape: bad box arity %d/%d", len(lo), len(hi))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return nil, fmt.Errorf("shape: empty box on dim %d: [%d, %d]", i, lo[i], hi[i])
		}
	}
	s := &Shape{name: name, lo: cloneI64(lo), hi: cloneI64(hi), pred: pred}
	s.card.Store(-1)
	return s, nil
}

// MustNew is New that panics on error; for statically-known shapes.
func MustNew(name string, lo, hi []int64, pred func(off []int64) bool) *Shape {
	s, err := New(name, lo, hi, pred)
	if err != nil {
		panic(err)
	}
	return s
}

// L1 returns the L1-norm ball of radius r in dims dimensions, center
// included: {off : Σ|off_i| <= r}. L1(2, 1) is the paper's 5-cell cross.
func L1(dims int, r int64) *Shape {
	lo, hi := cube(dims, r)
	s := MustNew(fmt.Sprintf("L1(%d)", r), lo, hi, func(off []int64) bool {
		sum := int64(0)
		for _, v := range off {
			sum += absI64(v)
		}
		return sum <= r
	})
	s.spec = &Spec{Kind: SpecL1, Dims: dims, Radius: r}
	return s
}

// Linf returns the L∞-norm ball of radius r: the full (2r+1)^dims cube.
func Linf(dims int, r int64) *Shape {
	lo, hi := cube(dims, r)
	s := MustNew(fmt.Sprintf("Linf(%d)", r), lo, hi, func(off []int64) bool {
		return true // box membership is exactly the L∞ ball
	})
	s.spec = &Spec{Kind: SpecLinf, Dims: dims, Radius: r}
	return s
}

// L2 returns the Euclidean-norm ball of radius r: {off : Σ off_i² <= r²}.
func L2(dims int, r int64) *Shape {
	lo, hi := cube(dims, r)
	r2 := r * r
	s := MustNew(fmt.Sprintf("L2(%d)", r), lo, hi, func(off []int64) bool {
		sum := int64(0)
		for _, v := range off {
			sum += v * v
		}
		return sum <= r2
	})
	s.spec = &Spec{Kind: SpecL2, Dims: dims, Radius: r}
	return s
}

// FromOffsets builds a shape from an explicit offset list. Offsets are
// copied; duplicates are tolerated but counted once.
func FromOffsets(name string, offs [][]int64) (*Shape, error) {
	if len(offs) == 0 {
		return nil, fmt.Errorf("shape: %s has no offsets", name)
	}
	d := len(offs[0])
	lo := cloneI64(offs[0])
	hi := cloneI64(offs[0])
	for _, off := range offs {
		if len(off) != d {
			return nil, fmt.Errorf("shape: %s mixes offset arities", name)
		}
		for i, v := range off {
			if v < lo[i] {
				lo[i] = v
			}
			if v > hi[i] {
				hi[i] = v
			}
		}
	}
	// Membership is a binary search over the distinct offsets, sorted and
	// packed d to a row: no per-test key to build, 8d bytes per offset.
	sorted := cloneOffsets(offs)
	SortOffsets(sorted)
	rows := make([]int64, 0, len(sorted)*d)
	for i, off := range sorted {
		if i == 0 || !equalI64(off, sorted[i-1]) {
			rows = append(rows, off...)
		}
	}
	n := len(rows) / d
	s, err := New(name, lo, hi, func(off []int64) bool {
		i := sort.Search(n, func(i int) bool { return slices.Compare(rows[i*d:(i+1)*d], off) >= 0 })
		return i < n && equalI64(rows[i*d:(i+1)*d], off)
	})
	if err != nil {
		return nil, err
	}
	s.card.Store(int64(n))
	s.spec = &Spec{Kind: SpecOffsets, Name: name, Offsets: cloneOffsets(offs)}
	return s, nil
}

// Embed lifts a low-dimensional shape into ndims dimensions: the inner
// shape's offsets apply to the listed dims (in order) while every remaining
// dimension k is constrained only by window[k] (an inclusive offset range).
// Windows for the dims occupied by the inner shape are ignored.
//
// Example: the paper's PTF-5 view shape — L1(1) on (ra, dec) across the
// previous 200 time steps — is
//
//	Embed(L1(2, 1), 3, []int{1, 2}, map[int][2]int64{0: {-200, 0}})
func Embed(inner *Shape, ndims int, dims []int, window map[int][2]int64) (*Shape, error) {
	if len(dims) != len(inner.lo) {
		return nil, fmt.Errorf("shape: Embed got %d dims for a %d-dim shape", len(dims), len(inner.lo))
	}
	occupied := make(map[int]bool, len(dims))
	lo := make([]int64, ndims)
	hi := make([]int64, ndims)
	for i, d := range dims {
		if d < 0 || d >= ndims {
			return nil, fmt.Errorf("shape: Embed dim %d out of range [0, %d)", d, ndims)
		}
		if occupied[d] {
			return nil, fmt.Errorf("shape: Embed dim %d used twice", d)
		}
		occupied[d] = true
		lo[d] = inner.lo[i]
		hi[d] = inner.hi[i]
	}
	for k := 0; k < ndims; k++ {
		if occupied[k] {
			continue
		}
		w, ok := window[k]
		if !ok {
			return nil, fmt.Errorf("shape: Embed missing window for dim %d", k)
		}
		if w[0] > w[1] {
			return nil, fmt.Errorf("shape: Embed empty window for dim %d", k)
		}
		lo[k] = w[0]
		hi[k] = w[1]
	}
	dimsCopy := append([]int(nil), dims...)
	name := inner.name
	if len(window) > 0 {
		name = fmt.Sprintf("%s@%ddim", inner.name, ndims)
	}
	// The predicate allocates its scratch buffer per call so that shapes are
	// safe for concurrent use by join workers.
	s, err := New(name, lo, hi, func(off []int64) bool {
		innerOff := make([]int64, len(dimsCopy))
		for i, d := range dimsCopy {
			innerOff[i] = off[d]
		}
		return inner.pred(innerOff)
	})
	if err != nil {
		return nil, err
	}
	if inner.spec != nil {
		wcopy := make(map[int][2]int64, len(window))
		for k, v := range window {
			wcopy[k] = v
		}
		s.spec = &Spec{
			Kind:      SpecEmbed,
			Dims:      ndims,
			Inner:     inner.spec,
			EmbedDims: append([]int(nil), dims...),
			Window:    wcopy,
		}
	}
	return s, nil
}

// Name returns the display name of the shape.
func (s *Shape) Name() string { return s.name }

// NumDims returns the offset dimensionality.
func (s *Shape) NumDims() int { return len(s.lo) }

// Box returns copies of the inclusive offset bounds.
func (s *Shape) Box() (lo, hi []int64) { return cloneI64(s.lo), cloneI64(s.hi) }

// BoxInto copies the inclusive offset bounds into caller-provided buffers
// (each of length NumDims), avoiding Box's per-call clones in hot loops.
func (s *Shape) BoxInto(lo, hi []int64) {
	copy(lo, s.lo)
	copy(hi, s.hi)
}

// Contains reports whether off is a member of the shape.
func (s *Shape) Contains(off []int64) bool {
	if len(off) != len(s.lo) {
		return false
	}
	for i, v := range off {
		if v < s.lo[i] || v > s.hi[i] {
			return false
		}
	}
	return s.pred(off)
}

// Card returns the number of offsets in the shape, enumerating the bounding
// box on first call and caching the result. Beware of shapes with enormous
// boxes; Card is O(box volume).
func (s *Shape) Card() int64 {
	if c := s.card.Load(); c >= 0 {
		return c
	}
	n := int64(0)
	s.eachBox(func(off []int64) {
		if s.pred(off) {
			n++
		}
	})
	// Concurrent first calls compute the same value; the store is idempotent.
	s.card.Store(n)
	return n
}

// BoxVolume returns the number of offset slots in the bounding box.
func (s *Shape) BoxVolume() int64 {
	n := int64(1)
	for i := range s.lo {
		n *= s.hi[i] - s.lo[i] + 1
	}
	return n
}

// Offsets enumerates the member offsets in row-major order.
func (s *Shape) Offsets() [][]int64 {
	out := make([][]int64, 0, maxI64(s.card.Load(), 0))
	s.eachBox(func(off []int64) {
		if s.pred(off) {
			out = append(out, cloneI64(off))
		}
	})
	return out
}

// Reflect returns the shape with every offset negated: x is in shape σ
// centered on y exactly when y is in Reflect(σ) centered on x. Needed when
// finding which existing cells see a newly inserted cell.
func (s *Shape) Reflect() *Shape {
	d := len(s.lo)
	lo := make([]int64, d)
	hi := make([]int64, d)
	for i := 0; i < d; i++ {
		lo[i] = -s.hi[i]
		hi[i] = -s.lo[i]
	}
	orig := s
	out := MustNew("-"+s.name, lo, hi, func(off []int64) bool {
		neg := make([]int64, len(off))
		for i, v := range off {
			neg[i] = -v
		}
		return orig.pred(neg)
	})
	out.card.Store(s.card.Load())
	return out
}

// Symmetric reports whether the shape equals its reflection (off in σ iff
// -off in σ). All Lp balls are symmetric.
func (s *Shape) Symmetric() bool {
	r := s.Reflect()
	if !equalI64(s.lo, r.lo) || !equalI64(s.hi, r.hi) {
		return false
	}
	sym := true
	s.eachBox(func(off []int64) {
		if s.pred(off) != r.Contains(off) {
			sym = false
		}
	})
	return sym
}

// Delta returns the positional symmetric set difference between view and
// query shapes: (view \ query) ∪ (query \ view). This is the Δ shape of
// Section 5 used for differential query answering. The shapes must have the
// same dimensionality — violating that is a programming error and panics.
// Boundary code handling caller-supplied shapes should use DeltaChecked.
// The result is nil when the shapes are identical.
func Delta(view, query *Shape) *Shape {
	out, err := DeltaChecked(view, query)
	if err != nil {
		panic(err.Error())
	}
	return out
}

// DeltaChecked is Delta with the arity invariant surfaced as an error
// instead of a panic, for boundaries where the query shape comes from the
// user rather than from the view definition.
func DeltaChecked(view, query *Shape) (*Shape, error) {
	d := len(view.lo)
	if len(query.lo) != d {
		return nil, fmt.Errorf("shape: Delta arity mismatch %d vs %d", d, len(query.lo))
	}
	var offs [][]int64
	lo := make([]int64, d)
	hi := make([]int64, d)
	for i := 0; i < d; i++ {
		lo[i] = minI64(view.lo[i], query.lo[i])
		hi[i] = maxI64(view.hi[i], query.hi[i])
	}
	union := &Shape{lo: lo, hi: hi, pred: func([]int64) bool { return true }}
	union.eachBox(func(off []int64) {
		if view.Contains(off) != query.Contains(off) {
			offs = append(offs, cloneI64(off))
		}
	})
	if len(offs) == 0 {
		return nil, nil
	}
	out, err := FromOffsets(fmt.Sprintf("delta(%s,%s)", view.name, query.name), offs)
	if err != nil {
		panic(err) // unreachable: offs is non-empty and uniform
	}
	return out, nil
}

// Equal reports whether two shapes contain exactly the same offsets.
func (s *Shape) Equal(t *Shape) bool {
	return Delta(s, t) == nil
}

// String renders the shape name and cardinality when cheaply available.
func (s *Shape) String() string {
	if c := s.card.Load(); c >= 0 {
		return fmt.Sprintf("%s[%d offsets]", s.name, c)
	}
	return s.name
}

// eachBox visits every offset slot in the bounding box in row-major order,
// reusing one buffer.
func (s *Shape) eachBox(fn func(off []int64)) {
	d := len(s.lo)
	cur := cloneI64(s.lo)
	for {
		fn(cur)
		i := d - 1
		for ; i >= 0; i-- {
			cur[i]++
			if cur[i] <= s.hi[i] {
				break
			}
			cur[i] = s.lo[i]
		}
		if i < 0 {
			return
		}
	}
}

func cube(dims int, r int64) (lo, hi []int64) {
	lo = make([]int64, dims)
	hi = make([]int64, dims)
	for i := range lo {
		lo[i] = -r
		hi[i] = r
	}
	return lo, hi
}

// SortOffsets orders offsets lexicographically in place; used by tests and
// deterministic serialization.
func SortOffsets(offs [][]int64) {
	sort.Slice(offs, func(i, j int) bool {
		a, b := offs[i], offs[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

func cloneI64(v []int64) []int64 {
	out := make([]int64, len(v))
	copy(out, v)
	return out
}

func equalI64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func absI64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
