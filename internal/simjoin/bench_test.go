package simjoin

import (
	"math/rand"
	"testing"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/shape"
)

// benchChunks builds two adjacent populated chunks for join kernels.
func benchChunks(b *testing.B, cells int) (*array.Chunk, *array.Chunk) {
	b.Helper()
	s := array.MustSchema("B",
		[]array.Dimension{
			{Name: "x", Start: 0, End: 199, ChunkSize: 100},
			{Name: "y", Start: 0, End: 49, ChunkSize: 50},
		},
		[]array.Attribute{{Name: "v", Type: array.Float64}})
	rng := rand.New(rand.NewSource(1))
	ca := array.NewChunk(s, array.ChunkCoord{0, 0})
	cb := array.NewChunk(s, array.ChunkCoord{1, 0})
	for i := 0; i < cells; i++ {
		_ = ca.Set(array.Point{rng.Int63n(100), rng.Int63n(50)}, array.Tuple{1})
		_ = cb.Set(array.Point{100 + rng.Int63n(100), rng.Int63n(50)}, array.Tuple{2})
	}
	return ca, cb
}

// ptfScanCells and ptfProbeCells populate a PTF-shaped chunk pair so that
// the PTF-5 join scans (the 1809-slot shape box outweighs four times the β
// cells: the ingest-dense workload's 170-cell chunks) or probes the dense
// table.
const (
	ptfScanCells  = 170
	ptfProbeCells = 600
)

// ptf5Shape is the PTF-5 view shape: L1(1) on (ra, dec) across the previous
// 200 time steps.
func ptf5Shape(tb testing.TB) *shape.Shape {
	tb.Helper()
	sh, err := shape.Embed(shape.L1(2, 1), 3, []int{1, 2}, map[int][2]int64{0: {-200, 0}})
	if err != nil {
		tb.Fatal(err)
	}
	return sh
}

// ptfChunks builds two consecutive nights of one PTF spatial chunk
// (112×100×50), the later night first, with detections clustered on a
// 40×25 patch so the 5-cell cross finds neighbors.
func ptfChunks(cells int) (*array.Chunk, *array.Chunk) {
	s := array.MustSchema("P",
		[]array.Dimension{
			{Name: "time", Start: 0, End: 223, ChunkSize: 112},
			{Name: "ra", Start: 1, End: 100, ChunkSize: 100},
			{Name: "dec", Start: 1, End: 50, ChunkSize: 50},
		},
		[]array.Attribute{{Name: "bright", Type: array.Float64}, {Name: "mag", Type: array.Float64}})
	rng := rand.New(rand.NewSource(5))
	ca := array.NewChunk(s, array.ChunkCoord{1, 0, 0})
	cb := array.NewChunk(s, array.ChunkCoord{0, 0, 0})
	for i := 0; i < cells; i++ {
		_ = ca.Set(array.Point{112 + rng.Int63n(112), 30 + rng.Int63n(40), 10 + rng.Int63n(25)}, array.Tuple{1, 2})
		_ = cb.Set(array.Point{rng.Int63n(112), 30 + rng.Int63n(40), 10 + rng.Int63n(25)}, array.Tuple{3, 4})
	}
	return ca, cb
}

func benchJoinKernel(b *testing.B, sh *shape.Shape, cells int) {
	ca, cb := benchChunks(b, cells)
	benchJoinPairs(b, NewPred(sh, nil), ca, cb)
}

// benchJoinPairs times one self-join plus one neighbor join per op.
func benchJoinPairs(b *testing.B, pred Pred, ca, cb *array.Chunk) {
	b.ReportAllocs()
	b.ResetTimer()
	matches := 0
	for i := 0; i < b.N; i++ {
		pred.JoinChunkPair(ca, ca, func(_, _ array.Point, _, _ array.Tuple) bool {
			matches++
			return true
		})
		pred.JoinChunkPair(ca, cb, func(_, _ array.Point, _, _ array.Tuple) bool {
			matches++
			return true
		})
	}
	b.ReportMetric(float64(matches)/float64(b.N), "matches/op")
}

func BenchmarkJoinKernelL1r1Sparse(b *testing.B)  { benchJoinKernel(b, shape.L1(2, 1), 50) }
func BenchmarkJoinKernelL1r1Dense(b *testing.B)   { benchJoinKernel(b, shape.L1(2, 1), 1000) }
func BenchmarkJoinKernelLinf2Sparse(b *testing.B) { benchJoinKernel(b, shape.Linf(2, 2), 50) }
func BenchmarkJoinKernelLinf2Dense(b *testing.B)  { benchJoinKernel(b, shape.Linf(2, 2), 1000) }
func BenchmarkJoinKernelL2r3Dense(b *testing.B)   { benchJoinKernel(b, shape.L2(2, 3), 1000) }

func BenchmarkJoinKernelPTF5Scan(b *testing.B) {
	ca, cb := ptfChunks(ptfScanCells)
	benchJoinPairs(b, NewPred(ptf5Shape(b), nil), ca, cb)
}

func BenchmarkJoinKernelPTF5Probe(b *testing.B) {
	ca, cb := ptfChunks(ptfProbeCells)
	benchJoinPairs(b, NewPred(ptf5Shape(b), nil), ca, cb)
}

func BenchmarkPairChunksMetadata(b *testing.B) {
	s := array.MustSchema("B",
		[]array.Dimension{
			{Name: "x", Start: 0, End: 9999, ChunkSize: 100},
			{Name: "y", Start: 0, End: 4999, ChunkSize: 50},
		}, nil)
	pred := NewPred(shape.L1(2, 1), nil)
	ra := s.ChunkRegion(array.ChunkCoord{3, 7})
	rb := s.ChunkRegion(array.ChunkCoord{4, 7})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !pred.PairChunks(ra, rb) {
			b.Fatal("adjacent chunks must pair")
		}
	}
}
