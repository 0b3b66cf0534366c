package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"text/tabwriter"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/shape"
	"github.com/arrayview/arrayview/internal/simjoin"
)

// KernelCase is one micro-benchmark row of the kernel experiment: the
// measured cost of a join-kernel or chunk primitive at a given shape and
// density.
type KernelCase struct {
	// Name identifies the primitive and its configuration, e.g.
	// "join/L1r1/dense" or "chunk/each-sorted".
	Name string
	// NsPerOp is wall-clock nanoseconds per operation.
	NsPerOp float64
	// AllocsPerOp and BytesPerOp are heap allocations per operation.
	AllocsPerOp int64
	BytesPerOp  int64
	// MatchesPerOp is the emitted match count per op for join cases (0 for
	// chunk primitives); it pins down that variants compute the same join.
	MatchesPerOp float64 `json:",omitempty"`
}

// KernelResult is the kernel experiment's typed output: the hot-path
// micro-benchmarks backing the BENCH_kernel.json perf trajectory.
type KernelResult struct {
	// Label distinguishes entries when results from several revisions are
	// recorded side by side.
	Label      string
	GoMaxProcs int
	Cases      []KernelCase
}

// kernelChunks builds two adjacent populated chunks (100×50 cells each)
// mirroring the simjoin package's benchmark fixture.
func kernelChunks(cells int) (*array.Chunk, *array.Chunk) {
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

// kernelPTFChunks builds two consecutive nights of one PTF spatial chunk
// (112×100×50), the later night first, mirroring the simjoin package's
// ptfChunks: 170 cells make the PTF-5 join scan, 600 probe.
func kernelPTFChunks(cells int) (*array.Chunk, *array.Chunk) {
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

// Kernel runs the join-kernel and chunk micro-benchmarks and returns the
// measured table. One join op is a self-join plus a neighbor join of the
// fixture chunks, matching BenchmarkJoinKernel* in internal/simjoin.
func Kernel(w io.Writer) (*KernelResult, error) {
	res := &KernelResult{Label: "current", GoMaxProcs: runtime.GOMAXPROCS(0)}

	ptf5, err := shape.Embed(shape.L1(2, 1), 3, []int{1, 2}, map[int][2]int64{0: {-200, 0}})
	if err != nil {
		return nil, err
	}
	joinCases := []struct {
		name   string
		shape  *shape.Shape
		chunks func(cells int) (*array.Chunk, *array.Chunk)
		cells  int
	}{
		{"join/L1r1/sparse", shape.L1(2, 1), kernelChunks, 50},
		{"join/L1r1/dense", shape.L1(2, 1), kernelChunks, 1000},
		{"join/Linf2/sparse", shape.Linf(2, 2), kernelChunks, 50},
		{"join/Linf2/dense", shape.Linf(2, 2), kernelChunks, 1000},
		{"join/L2r3/dense", shape.L2(2, 3), kernelChunks, 1000},
		{"join/PTF5/scan", ptf5, kernelPTFChunks, 170},
		{"join/PTF5/probe", ptf5, kernelPTFChunks, 600},
	}
	for _, jc := range joinCases {
		ca, cb := jc.chunks(jc.cells)
		pred := simjoin.NewPred(jc.shape, nil)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
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
		})
		res.Cases = append(res.Cases, kernelCase(jc.name, r))
	}

	dense, _ := kernelChunks(1000)
	encoded := array.EncodeChunk(dense)
	chunkCases := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"chunk/each-sorted", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				n := 0
				dense.EachSorted(func(array.Point, array.Tuple) bool { n++; return true })
			}
		}},
		{"chunk/bounding-box", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := dense.BoundingBox(); !ok {
					b.Fatal("empty bounding box")
				}
			}
		}},
		{"chunk/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				array.EncodeChunk(dense)
			}
		}},
		{"chunk/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := array.DecodeChunk(encoded); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
	for _, cc := range chunkCases {
		res.Cases = append(res.Cases, kernelCase(cc.name, testing.Benchmark(cc.fn)))
	}

	res.WriteTable(w)
	return res, nil
}

func kernelCase(name string, r testing.BenchmarkResult) KernelCase {
	return KernelCase{
		Name:         name,
		NsPerOp:      float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp:  r.AllocsPerOp(),
		BytesPerOp:   r.AllocedBytesPerOp(),
		MatchesPerOp: r.Extra["matches/op"],
	}
}

// WriteTable renders the human-readable kernel report.
func (r *KernelResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Kernel micro-benchmarks (GOMAXPROCS=%d)\n", r.GoMaxProcs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "case\tns/op\tallocs/op\tB/op\tmatches/op\n")
	for _, c := range r.Cases {
		fmt.Fprintf(tw, "%s\t%.0f\t%d\t%d\t%.0f\n", c.Name, c.NsPerOp, c.AllocsPerOp, c.BytesPerOp, c.MatchesPerOp)
	}
	tw.Flush()
}
