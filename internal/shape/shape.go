// Package shape implements the shape arrays used by array similarity join
// (Section 2.2 of the paper): finite sets of integer offsets applied around
// each cell. A shape is represented by a bounding box of offsets plus a
// membership predicate, which keeps very elongated shapes (e.g., "similar at
// any time within a window") cheap while still supporting exact enumeration
// for Δ-shape computation (Section 5).
package shape

import (
	"fmt"
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

	// Membership inside the box, as data: rule names the test and dims lists
	// the offset components it reads, in the rule's own order — every
	// dimension for a plain shape, the embedded ones for an Embed. Contains
	// therefore runs every named constructor without a closure or a gather
	// buffer; only rulePred calls out.
	rule   rule
	dims   []int
	radius int64                  // ruleL1: r; ruleL2: r²
	rows   []int64                // ruleOffsets: sorted distinct offsets, len(dims) to a row
	pred   func(off []int64) bool // rulePred

	card atomic.Int64 // lazily computed cardinality; -1 until known
	spec *Spec        // structural provenance when built by a named constructor
}

// rule is how a shape decides membership for an offset inside its box.
type rule uint8

const (
	rulePred    rule = iota // caller-supplied predicate (New)
	ruleBox                 // the box is the shape (Linf)
	ruleL1                  // Σ|off_d| <= radius
	ruleL2                  // Σ off_d² <= radius
	ruleOffsets             // binary search over rows
)

// newShape validates the box and returns a shape whose rule reads every
// dimension in order; the caller fills in the rule.
func newShape(name string, lo, hi []int64) (*Shape, error) {
	if len(lo) != len(hi) || len(lo) == 0 {
		return nil, fmt.Errorf("shape: bad box arity %d/%d", len(lo), len(hi))
	}
	for i := range lo {
		if lo[i] > hi[i] {
			return nil, fmt.Errorf("shape: empty box on dim %d: [%d, %d]", i, lo[i], hi[i])
		}
	}
	s := &Shape{name: name, lo: cloneI64(lo), hi: cloneI64(hi), dims: make([]int, len(lo))}
	for i := range s.dims {
		s.dims[i] = i
	}
	s.card.Store(-1)
	return s, nil
}

// New builds a shape from an offset bounding box [lo, hi] (inclusive,
// component-wise) and a membership predicate evaluated only inside the box.
func New(name string, lo, hi []int64, pred func(off []int64) bool) (*Shape, error) {
	s, err := newShape(name, lo, hi)
	if err != nil {
		return nil, err
	}
	s.rule, s.pred = rulePred, pred
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

// ball builds the radius-r norm ball of the given rule over the cube
// [-r, r]^dims.
func ball(name string, dims int, r int64, rl rule, radius int64, kind SpecKind) *Shape {
	lo, hi := cube(dims, r)
	s, err := newShape(name, lo, hi)
	if err != nil {
		panic(err)
	}
	s.rule, s.radius = rl, radius
	s.spec = &Spec{Kind: kind, Dims: dims, Radius: r}
	return s
}

// L1 returns the L1-norm ball of radius r in dims dimensions, center
// included: {off : Σ|off_i| <= r}. L1(2, 1) is the paper's 5-cell cross.
func L1(dims int, r int64) *Shape {
	return ball(fmt.Sprintf("L1(%d)", r), dims, r, ruleL1, r, SpecL1)
}

// Linf returns the L∞-norm ball of radius r: the full (2r+1)^dims cube, so
// box membership is exactly the ball.
func Linf(dims int, r int64) *Shape {
	return ball(fmt.Sprintf("Linf(%d)", r), dims, r, ruleBox, 0, SpecLinf)
}

// L2 returns the Euclidean-norm ball of radius r: {off : Σ off_i² <= r²}.
func L2(dims int, r int64) *Shape {
	return ball(fmt.Sprintf("L2(%d)", r), dims, r, ruleL2, r*r, SpecL2)
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
	s, err := newShape(name, lo, hi)
	if err != nil {
		return nil, err
	}
	s.rule, s.rows = ruleOffsets, rows
	s.card.Store(int64(len(rows) / d))
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
	name := inner.name
	if len(window) > 0 {
		name = fmt.Sprintf("%s@%ddim", inner.name, ndims)
	}
	s, err := newShape(name, lo, hi)
	if err != nil {
		return nil, err
	}
	if inner.rule == rulePred {
		// An opaque predicate wants its offset as one slice; gathering it
		// per call keeps the shape safe for concurrent join workers.
		dimsCopy := append([]int(nil), dims...)
		s.pred = func(off []int64) bool {
			innerOff := make([]int64, len(dimsCopy))
			for i, d := range dimsCopy {
				innerOff[i] = off[d]
			}
			return inner.pred(innerOff)
		}
	} else {
		// The inner rule reads its components through the embedding.
		s.rule, s.radius, s.rows = inner.rule, inner.radius, inner.rows
		s.dims = make([]int, len(inner.dims))
		for i, d := range inner.dims {
			s.dims[i] = dims[d]
		}
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
	return s.member(off)
}

// member applies the shape's rule to an offset already known to lie inside
// the box.
func (s *Shape) member(off []int64) bool {
	switch s.rule {
	case ruleBox:
		return true
	case ruleL1:
		sum := int64(0)
		for _, d := range s.dims {
			sum += absI64(off[d])
		}
		return sum <= s.radius
	case ruleL2:
		sum := int64(0)
		for _, d := range s.dims {
			sum += off[d] * off[d]
		}
		return sum <= s.radius
	case ruleOffsets:
		w := len(s.dims)
		lo, hi := 0, len(s.rows)/w
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			switch s.cmpRow(s.rows[mid*w:(mid+1)*w], off) {
			case 0:
				return true
			case -1:
				lo = mid + 1
			default:
				hi = mid
			}
		}
		return false
	default:
		return s.pred(off)
	}
}

// cmpRow orders a packed offsets row against the components of off the
// rule reads.
func (s *Shape) cmpRow(row, off []int64) int {
	for i, d := range s.dims {
		if v := off[d]; row[i] != v {
			if row[i] < v {
				return -1
			}
			return 1
		}
	}
	return 0
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
		if s.member(off) {
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
		if s.member(off) {
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
		return orig.member(neg)
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
		if s.member(off) != r.Contains(off) {
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
	union := &Shape{lo: lo, hi: hi}
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
