package shape

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestL1CrossIsFiveCells(t *testing.T) {
	// The paper's L1(1) shape: "a 5-cell cross centered on each cell".
	s := L1(2, 1)
	if got := s.Card(); got != 5 {
		t.Errorf("L1(2,1).Card() = %d, want 5", got)
	}
	for _, off := range [][]int64{{0, 0}, {0, 1}, {0, -1}, {1, 0}, {-1, 0}} {
		if !s.Contains(off) {
			t.Errorf("L1(2,1) must contain %v", off)
		}
	}
	if s.Contains([]int64{1, 1}) {
		t.Error("L1(2,1) must not contain the diagonal")
	}
}

func TestNormBallCardinalities(t *testing.T) {
	cases := []struct {
		s    *Shape
		want int64
	}{
		{Linf(2, 1), 9},
		{Linf(2, 2), 25}, // the paper's PTF-25 cross-section
		{L1(2, 2), 13},
		{L1(2, 3), 25},
		{L2(2, 2), 13},
		{L1(3, 1), 7},
		{Linf(1, 4), 9},
	}
	for _, tc := range cases {
		if got := tc.s.Card(); got != tc.want {
			t.Errorf("%s.Card() = %d, want %d", tc.s.Name(), got, tc.want)
		}
	}
}

func TestPaperFigure4DeltaShapes(t *testing.T) {
	// Section 6.4 / Figure 4b: Δ(L∞(1) ← L1(1)) has ratio 4/9 relative to
	// the query shape and Δ(L∞(1) ← L∞(2)) has ratio 16/9.
	q := Linf(2, 1) // query shape, 9 cells

	d1 := Delta(L1(2, 1), q)
	if d1 == nil || d1.Card() != 4 {
		t.Fatalf("Delta(L1(1), Linf(1)).Card() = %v, want 4", d1)
	}
	if ratio := float64(d1.Card()) / float64(q.Card()); ratio >= 1 {
		t.Errorf("ratio %v must favour the view (<1)", ratio)
	}

	d2 := Delta(Linf(2, 2), q)
	if d2 == nil || d2.Card() != 16 {
		t.Fatalf("Delta(Linf(2), Linf(1)).Card() = %v, want 16", d2)
	}
	if ratio := float64(d2.Card()) / float64(q.Card()); ratio <= 1 {
		t.Errorf("ratio %v must favour the complete join (>1)", ratio)
	}
}

func TestDeltaIdenticalShapesIsNil(t *testing.T) {
	if d := Delta(L1(2, 2), L1(2, 2)); d != nil {
		t.Errorf("Delta of identical shapes = %v, want nil", d)
	}
	if !L1(2, 2).Equal(L1(2, 2)) {
		t.Error("identical shapes must be Equal")
	}
	if L1(2, 2).Equal(Linf(2, 2)) {
		t.Error("different shapes must not be Equal")
	}
}

func TestDeltaSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() *Shape {
			switch rng.Intn(3) {
			case 0:
				return L1(2, 1+int64(rng.Intn(3)))
			case 1:
				return Linf(2, 1+int64(rng.Intn(3)))
			default:
				return L2(2, 1+int64(rng.Intn(3)))
			}
		}
		a, b := mk(), mk()
		da, db := Delta(a, b), Delta(b, a)
		if (da == nil) != (db == nil) {
			return false
		}
		if da == nil {
			return true
		}
		return da.Equal(db)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDeltaCardinalityIdentity(t *testing.T) {
	// |Δ| = |a| + |b| - 2|a∩b|; verify via direct enumeration.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := L1(2, 1+int64(rng.Intn(3)))
		b := Linf(2, 1+int64(rng.Intn(3)))
		inter := int64(0)
		for _, off := range a.Offsets() {
			if b.Contains(off) {
				inter++
			}
		}
		d := Delta(a, b)
		var dc int64
		if d != nil {
			dc = d.Card()
		}
		return dc == a.Card()+b.Card()-2*inter
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEmbedPTF5(t *testing.T) {
	// The paper's PTF-5 shape: L1(1) on (ra, dec) across the previous 200
	// time steps. Dim order: [time, ra, dec].
	s, err := Embed(L1(2, 1), 3, []int{1, 2}, map[int][2]int64{0: {-200, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumDims() != 3 {
		t.Fatalf("NumDims = %d, want 3", s.NumDims())
	}
	lo, hi := s.Box()
	if lo[0] != -200 || hi[0] != 0 || lo[1] != -1 || hi[1] != 1 {
		t.Errorf("Box = %v..%v", lo, hi)
	}
	if !s.Contains([]int64{-137, 0, 1}) {
		t.Error("offset inside window and cross must be a member")
	}
	if s.Contains([]int64{5, 0, 0}) {
		t.Error("future time offset must not be a member")
	}
	if s.Contains([]int64{-1, 1, 1}) {
		t.Error("diagonal (ra,dec) offset must not be a member")
	}
	if got := s.Card(); got != 5*201 {
		t.Errorf("Card = %d, want %d", got, 5*201)
	}
}

func TestEmbedErrors(t *testing.T) {
	inner := L1(2, 1)
	if _, err := Embed(inner, 3, []int{1}, nil); err == nil {
		t.Error("arity mismatch must fail")
	}
	if _, err := Embed(inner, 3, []int{1, 5}, nil); err == nil {
		t.Error("out-of-range dim must fail")
	}
	if _, err := Embed(inner, 3, []int{1, 1}, nil); err == nil {
		t.Error("duplicate dim must fail")
	}
	if _, err := Embed(inner, 3, []int{1, 2}, nil); err == nil {
		t.Error("missing window must fail")
	}
	if _, err := Embed(inner, 3, []int{1, 2}, map[int][2]int64{0: {1, -1}}); err == nil {
		t.Error("empty window must fail")
	}
}

func TestReflectAndSymmetry(t *testing.T) {
	// An asymmetric shape: only offset (1, 0).
	s, err := FromOffsets("fwd", [][]int64{{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	r := s.Reflect()
	if !r.Contains([]int64{-1, 0}) || r.Contains([]int64{1, 0}) {
		t.Error("Reflect must negate offsets")
	}
	if s.Symmetric() {
		t.Error("fwd shape is not symmetric")
	}
	for _, ball := range []*Shape{L1(2, 2), Linf(2, 1), L2(3, 2)} {
		if !ball.Symmetric() {
			t.Errorf("%s must be symmetric", ball.Name())
		}
	}
	// Time-windowed shapes are NOT symmetric — the maintenance logic relies
	// on detecting this.
	ptf5, _ := Embed(L1(2, 1), 3, []int{1, 2}, map[int][2]int64{0: {-200, 0}})
	if ptf5.Symmetric() {
		t.Error("past-window shape must not be symmetric")
	}
}

func TestFromOffsetsDedup(t *testing.T) {
	s, err := FromOffsets("d", [][]int64{{0, 0}, {0, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Card() != 2 {
		t.Errorf("Card = %d, want 2 after dedup", s.Card())
	}
	if _, err := FromOffsets("bad", [][]int64{{0, 0}, {1}}); err == nil {
		t.Error("mixed arity must fail")
	}
	if _, err := FromOffsets("empty", nil); err == nil {
		t.Error("empty offsets must fail")
	}
}

func TestOffsetsEnumerationMatchesContains(t *testing.T) {
	s := L2(2, 3)
	offs := s.Offsets()
	if int64(len(offs)) != s.Card() {
		t.Fatalf("Offsets() returned %d, Card()=%d", len(offs), s.Card())
	}
	for _, off := range offs {
		if !s.Contains(off) {
			t.Errorf("enumerated offset %v fails Contains", off)
		}
	}
	SortOffsets(offs)
	for i := 1; i < len(offs); i++ {
		a, b := offs[i-1], offs[i]
		if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
			t.Fatal("SortOffsets must order lexicographically")
		}
	}
}

func TestBoxVolume(t *testing.T) {
	if got := Linf(2, 2).BoxVolume(); got != 25 {
		t.Errorf("BoxVolume = %d, want 25", got)
	}
	if got := L1(2, 2).BoxVolume(); got != 25 {
		t.Errorf("L1 box volume = %d, want 25", got)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", []int64{0}, []int64{0, 1}, nil); err == nil {
		t.Error("arity mismatch must fail")
	}
	if _, err := New("x", nil, nil, nil); err == nil {
		t.Error("zero dims must fail")
	}
	if _, err := New("x", []int64{1}, []int64{0}, nil); err == nil {
		t.Error("inverted box must fail")
	}
}

func TestContainsArityMismatch(t *testing.T) {
	if L1(2, 1).Contains([]int64{0}) {
		t.Error("short offset must not be contained")
	}
}

// TestFromOffsetsMembership: duplicates count once, and membership is exact
// at the box corners, inside holes, and for offsets of extreme magnitude.
func TestFromOffsetsMembership(t *testing.T) {
	offs := [][]int64{{2, -1}, {0, 0}, {2, -1}, {-3, 4}, {math.MaxInt64, math.MinInt64}}
	s, err := FromOffsets("m", offs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Card() != 4 {
		t.Fatalf("Card = %d, want 4 distinct offsets", s.Card())
	}
	for _, off := range offs {
		if !s.Contains(off) {
			t.Errorf("%v must be a member", off)
		}
	}
	for _, off := range [][]int64{{-3, -1}, {2, 4}, {1, 0}, {0, 1}, {math.MaxInt64, 0}, {0}, {0, 0, 0}} {
		if s.Contains(off) {
			t.Errorf("%v must not be a member", off)
		}
	}
}

// namedShapes returns every named constructor next to the closure that
// defines its membership inside the box.
func namedShapes(t testing.TB) []struct {
	sh   *Shape
	want func(off []int64) bool
} {
	t.Helper()
	list := [][]int64{{0, 0}, {1, -2}, {-2, 2}, {2, 1}, {1, -2}}
	offsets, err := FromOffsets("list", list)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		sh   *Shape
		want func(off []int64) bool
	}{
		{L1(2, 2), func(off []int64) bool { return absI64(off[0])+absI64(off[1]) <= 2 }},
		{Linf(2, 2), func(off []int64) bool { return true }},
		{L2(2, 2), func(off []int64) bool { return off[0]*off[0]+off[1]*off[1] <= 4 }},
		{offsets, func(off []int64) bool {
			for _, m := range list {
				if equalI64(m, off) {
					return true
				}
			}
			return false
		}},
	}
}

// embeddings lifts a 2-D shape into 3 and 4 dimensions: in order, permuted,
// and through a second Embed.
func embeddings(t testing.TB, inner *Shape) []struct {
	sh   *Shape
	dims []int // the outer dims inner's two components read
} {
	t.Helper()
	embed := func(inner *Shape, ndims int, dims []int, window map[int][2]int64) *Shape {
		s, err := Embed(inner, ndims, dims, window)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ptf := embed(inner, 3, []int{1, 2}, map[int][2]int64{0: {-4, 0}})
	return []struct {
		sh   *Shape
		dims []int
	}{
		{ptf, []int{1, 2}},
		{embed(inner, 3, []int{2, 0}, map[int][2]int64{1: {-1, 1}}), []int{2, 0}},
		{embed(ptf, 4, []int{3, 0, 1}, map[int][2]int64{2: {0, 2}}), []int{0, 1}},
	}
}

// TestContainsMatchesDefinition walks every offset of the box (and a rim
// around it) of every named constructor and of its embeddings, comparing
// Contains against the membership the constructor is defined by.
func TestContainsMatchesDefinition(t *testing.T) {
	check := func(sh *Shape, want func(off []int64) bool) {
		t.Helper()
		d := sh.NumDims()
		lo, hi := sh.Box()
		rim := &Shape{lo: make([]int64, d), hi: make([]int64, d)}
		for i := range lo {
			rim.lo[i], rim.hi[i] = lo[i]-1, hi[i]+1
		}
		n := int64(0)
		rim.eachBox(func(off []int64) {
			inBox := true
			for i, v := range off {
				inBox = inBox && v >= lo[i] && v <= hi[i]
			}
			if got := sh.Contains(off); got != (inBox && want(off)) {
				t.Fatalf("%s.Contains(%v) = %v", sh.Name(), off, got)
			} else if got {
				n++
			}
		})
		if n != sh.Card() || int(n) != len(sh.Offsets()) {
			t.Fatalf("%s: %d members by Contains, Card %d, %d Offsets", sh.Name(), n, sh.Card(), len(sh.Offsets()))
		}
	}
	custom := MustNew("diag", []int64{-2, -2}, []int64{2, 2}, func(off []int64) bool { return off[0] == off[1] })
	cases := append(namedShapes(t), struct {
		sh   *Shape
		want func(off []int64) bool
	}{custom, func(off []int64) bool { return off[0] == off[1] }})
	for _, c := range cases {
		check(c.sh, c.want)
		for _, e := range embeddings(t, c.sh) {
			check(e.sh, func(off []int64) bool { return c.want([]int64{off[e.dims[0]], off[e.dims[1]]}) })
		}
	}
}

// TestAllocsContains: membership of every named constructor, embedded or
// not, is decided without allocating; only an embedded shape.New predicate
// gathers its offset into a fresh slice.
func TestAllocsContains(t *testing.T) {
	for _, c := range namedShapes(t) {
		shapes := []*Shape{c.sh}
		for _, e := range embeddings(t, c.sh) {
			shapes = append(shapes, e.sh)
		}
		for _, sh := range shapes {
			in := make([]int64, sh.NumDims()) // the zero offset: inside every box
			out := make([]int64, sh.NumDims())
			out[0] = 1 << 40
			if n := testing.AllocsPerRun(100, func() { sh.Contains(in); sh.Contains(out) }); n != 0 {
				t.Errorf("%s.Contains allocates %v times per call pair", sh.Name(), n)
			}
		}
	}
	custom := MustNew("any", []int64{-1, -1}, []int64{1, 1}, func([]int64) bool { return true })
	sh := embeddings(t, custom)[0].sh
	in := make([]int64, sh.NumDims())
	if n := testing.AllocsPerRun(100, func() { sh.Contains(in) }); n != 1 {
		t.Errorf("embedded custom predicate allocates %v times per Contains, want its 1 gather buffer", n)
	}
}
