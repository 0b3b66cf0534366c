package simjoin

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/shape"
)

// emitted is one call of a join's emit, copied out of the kernel's buffers.
type emitted struct {
	a, b   [3]int64
	ta, tb float64
}

// recordJoin runs one kernel over a chunk pair, stopping after limit emits
// (limit <= 0: never), and returns the emit sequence.
func recordJoin(join func(emit func(a, b array.Point, ta, tb array.Tuple) bool), limit int) []emitted {
	var out []emitted
	join(func(a, b array.Point, ta, tb array.Tuple) bool {
		e := emitted{ta: ta[0], tb: tb[0]}
		copy(e.a[:], a)
		copy(e.b[:], b)
		out = append(out, e)
		return len(out) != limit
	})
	return out
}

func mustEmbed(t testing.TB, inner *shape.Shape, dims []int, window map[int][2]int64) *shape.Shape {
	t.Helper()
	s, err := shape.Embed(inner, 3, dims, window)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randomOffsets(rng *rand.Rand, dims, n int, r int64) [][]int64 {
	offs := make([][]int64, n)
	for i := range offs {
		offs[i] = make([]int64, dims)
		for d := range offs[i] {
			offs[i][d] = rng.Int63n(2*r+1) - r
		}
	}
	return offs
}

// TestKernelMatchesReference: the column kernel emits exactly the
// sequence — pairs, tuples and order — of the per-cell kernel it replaced,
// in each of the three regimes, for every named shape constructor and its
// embedding, under every mapping, and when emit stops it early.
func TestKernelMatchesReference(t *testing.T) {
	s := array.MustSchema("K",
		[]array.Dimension{
			{Name: "t", Start: 0, End: 63, ChunkSize: 32},
			{Name: "x", Start: 0, End: 31, ChunkSize: 16},
			{Name: "y", Start: 0, End: 31, ChunkSize: 16},
		},
		[]array.Attribute{{Name: "v", Type: array.Float64}})
	rng := rand.New(rand.NewSource(14))
	offs3, err := shape.FromOffsets("offs3", randomOffsets(rng, 3, 12, 2))
	if err != nil {
		t.Fatal(err)
	}
	offs2, err := shape.FromOffsets("offs2", randomOffsets(rng, 2, 6, 2))
	if err != nil {
		t.Fatal(err)
	}
	custom := shape.MustNew("diag", []int64{-2, -2}, []int64{2, 2}, func(off []int64) bool { return off[0] == off[1] })
	every := []string{"scan", "probe-map", "probe-dense"}
	shapes := []struct {
		sh      *shape.Shape
		regimes []string
	}{
		{shape.L1(3, 2), every},
		{shape.Linf(3, 1), every},
		{shape.L2(3, 2), every},
		{offs3, every},
		{mustEmbed(t, shape.L1(2, 1), []int{1, 2}, map[int][2]int64{0: {-20, 0}}), every},
		{mustEmbed(t, shape.Linf(2, 1), []int{0, 2}, map[int][2]int64{1: {-2, 3}}), every},
		{mustEmbed(t, shape.L2(2, 2), []int{2, 1}, map[int][2]int64{0: {-3, 3}}), every},
		{mustEmbed(t, offs2, []int{2, 0}, map[int][2]int64{1: {0, 4}}), every},
		{mustEmbed(t, custom, []int{1, 2}, map[int][2]int64{0: {-5, 5}}), every},
		// The PTF-5 window outgrows any chunk of this schema: scan only.
		{mustEmbed(t, shape.L1(2, 1), []int{1, 2}, map[int][2]int64{0: {-200, 0}}), []string{"scan"}},
	}
	mappings := []Mapping{
		Identity{},
		Translate{Offset: []int64{-3, 2, 1}},
		Regrid{Factor: []int64{2, 1, 2}},
	}
	// (α cells, β cells) per regime: the box outweighs a few β cells (scan),
	// many β cells under few α cells probe the map, under many α cells the
	// dense table.
	rungs := [][2]int{{4, 5}, {2, 700}, {700, 700}}

	for _, sc := range shapes {
		members := sc.sh.Offsets()
		for _, m := range mappings {
			pred := NewPred(sc.sh, m)
			matches := make(map[string]int)
			for _, rung := range rungs {
				for trial := 0; trial < 4; trial++ {
					ca, cb := randomPair(rng, s, pred, members, rung[0], rung[1])
					var regime string
					want := recordJoin(func(emit func(a, b array.Point, ta, tb array.Tuple) bool) {
						regime = refJoinChunkPair(pred, ca, cb, emit)
					}, 0)
					got := recordJoin(func(emit func(a, b array.Point, ta, tb array.Tuple) bool) {
						pred.JoinChunkPair(ca, cb, emit)
					}, 0)
					if !slices.Equal(got, want) {
						t.Fatalf("%s/%s %s: kernel emitted %d pairs, reference %d, or in another order", sc.sh.Name(), m.Name(), regime, len(got), len(want))
					}
					matches[regime] += len(want)
					if len(want) == 0 {
						continue
					}
					limit := 1 + rng.Intn(len(want))
					got = recordJoin(func(emit func(a, b array.Point, ta, tb array.Tuple) bool) {
						pred.JoinChunkPair(ca, cb, emit)
					}, limit)
					if !slices.Equal(got, want[:limit]) {
						t.Fatalf("%s/%s %s: stopped after %d emits, kernel made %d", sc.sh.Name(), m.Name(), regime, limit, len(got))
					}
				}
			}
			for _, regime := range sc.regimes {
				if matches[regime] == 0 {
					t.Errorf("%s/%s: no match compared in the %s regime (%v)", sc.sh.Name(), m.Name(), regime, matches)
				}
			}
		}
	}
}

// randomPair fills one α chunk with na cells and the β chunk its first
// cell maps into with nb: half of them anywhere, half a shape member away
// from a mapped α cell so that sparse pairs match too. Tuples are unique.
func randomPair(rng *rand.Rand, s *array.Schema, pred Pred, members [][]int64, na, nb int) (ca, cb *array.Chunk) {
	randomIn := func(r array.Region) array.Point {
		p := make(array.Point, len(r.Lo))
		for i := range p {
			p[i] = r.Lo[i] + rng.Int63n(r.Hi[i]-r.Lo[i]+1)
		}
		return p
	}
	coords := s.ChunksOverlapping(s.Bounds())
	ca = array.NewChunk(s, coords[rng.Intn(len(coords))])
	var alpha []array.Point
	for i := 0; i < na; i++ {
		p := randomIn(ca.Region())
		alpha = append(alpha, p)
		_ = ca.Set(p, array.Tuple{float64(i)})
	}
	target := pred.Mapping.Map(alpha[0])
	if !s.Bounds().Contains(target) {
		target = alpha[0]
	}
	cb = array.NewChunk(s, s.ChunkCoordOf(target))
	for i := 0; i < nb; i++ {
		p := randomIn(cb.Region())
		if i%2 == 0 {
			near := pred.Mapping.Map(alpha[rng.Intn(len(alpha))]).Add(members[rng.Intn(len(members))])
			if cb.Region().Contains(near) {
				p = near
			}
		}
		_ = cb.Set(p, array.Tuple{float64(1000 + i)})
	}
	return ca, cb
}

// TestJoinSharedWarmedChunk joins one warmed chunk pair from several
// goroutines at once, in the scan and the probe regime: after Warm a join
// builds nothing on the chunks it reads, which the race detector checks.
func TestJoinSharedWarmedChunk(t *testing.T) {
	for _, cells := range []int{ptfScanCells, ptfProbeCells} {
		ca, cb := ptfChunks(cells)
		ca.Warm()
		cb.Warm()
		pred := NewPred(ptf5Shape(t), nil)
		count := func() int {
			n := 0
			for _, pair := range [][2]*array.Chunk{{ca, cb}, {ca, ca}, {cb, ca}} {
				pred.JoinChunkPair(pair[0], pair[1], func(_, _ array.Point, _, _ array.Tuple) bool { n++; return true })
			}
			return n
		}
		want := count()
		if want == 0 {
			t.Fatalf("%d-cell fixture has no matches", cells)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2; i++ {
					if got := count(); got != want {
						t.Errorf("concurrent join of %d-cell chunks counted %d matches, want %d", cells, got, want)
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestAllocsJoinChunkPair: on the embedded PTF-5 shape every benchmark
// workload maintains, a steady-state chunk-pair join allocates nothing in
// either regime.
func TestAllocsJoinChunkPair(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratches under the race detector")
	}
	pred := NewPred(ptf5Shape(t), nil)
	for _, tc := range []struct {
		name  string
		cells int
	}{{"scan", ptfScanCells}, {"probe", ptfProbeCells}} {
		ca, cb := ptfChunks(tc.cells)
		n := 0
		emit := func(_, _ array.Point, _, _ array.Tuple) bool { n++; return true }
		if regime := refJoinChunkPair(pred, ca, cb, emit); !strings.HasPrefix(regime, tc.name) || n == 0 {
			t.Fatalf("%d-cell fixture joins in the %s regime with %d matches, want %s", tc.cells, regime, n, tc.name)
		}
		pred.JoinChunkPair(ca, cb, emit) // builds the columns, fills the pool
		if allocs := testing.AllocsPerRun(20, func() { pred.JoinChunkPair(ca, cb, emit) }); allocs != 0 {
			t.Errorf("%s regime: %v allocations per join, want 0", tc.name, allocs)
		}
	}
}
