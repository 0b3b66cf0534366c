package arrayio

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/arrayview/arrayview/internal/array"
)

func testArray(t *testing.T, seed int64) *array.Array {
	t.Helper()
	s := array.MustSchema("T",
		[]array.Dimension{
			{Name: "x", Start: -10, End: 50, ChunkSize: 7},
			{Name: "y", Start: 0, End: 30, ChunkSize: 4},
		},
		[]array.Attribute{
			{Name: "a", Type: array.Float64},
			{Name: "b", Type: array.Int64},
		})
	a := array.New(s)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 80; i++ {
		p := array.Point{rng.Int63n(61) - 10, rng.Int63n(31)}
		if err := a.Set(p, array.Tuple{rng.NormFloat64(), float64(rng.Intn(100))}); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func TestRoundTrip(t *testing.T) {
	a := testArray(t, 3)
	var buf bytes.Buffer
	if err := Write(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(a) {
		t.Fatal("round trip changed cells")
	}
	bs, as := back.Schema(), a.Schema()
	if bs.String() != as.String() {
		t.Fatalf("schema round trip: %s vs %s", bs, as)
	}
}

func TestEmptyArrayRoundTrip(t *testing.T) {
	s := array.MustSchema("E",
		[]array.Dimension{{Name: "x", Start: 0, End: 9, ChunkSize: 5}}, nil)
	a := array.New(s)
	var buf bytes.Buffer
	if err := Write(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumCells() != 0 || back.Schema().Name != "E" {
		t.Fatal("empty array round trip")
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream must fail")
	}
	if _, err := Read(bytes.NewReader([]byte{0, 0, 0, 0, 0, 0, 0, 0})); err == nil {
		t.Error("bad magic must fail")
	}
	// Truncated stream.
	a := testArray(t, 5)
	var buf bytes.Buffer
	if err := Write(&buf, a); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Read(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Error("truncated stream must fail")
	}
}

// streamWith is a stream carrying schema s and the one encoded chunk enc,
// whatever that chunk's shape.
func streamWith(t *testing.T, s *array.Schema, enc []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, array.New(s)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-4] // drop the zero chunk count
	raw = binary.BigEndian.AppendUint32(raw, 1)
	raw = binary.BigEndian.AppendUint32(raw, uint32(len(enc)))
	return append(raw, enc...)
}

// oneCell encodes a chunk of schema s at coordinate cc holding one cell at
// the region's low corner.
func oneCell(t *testing.T, s *array.Schema, cc array.ChunkCoord) []byte {
	t.Helper()
	c := array.NewChunk(s, cc)
	if err := c.Set(c.Region().Lo, make(array.Tuple, s.NumAttrs())); err != nil {
		t.Fatal(err)
	}
	return array.EncodeChunk(c)
}

// TestReadRejectsMisfitChunks: a file chunk that decodes but does not fit
// the file's schema fails the read instead of landing in the array.
func TestReadRejectsMisfitChunks(t *testing.T) {
	target := testArray(t, 1).Schema()
	attr := array.Attribute{Name: "a", Type: array.Float64}
	oneDim := array.MustSchema("T", target.Dims[:1], target.Attrs)
	oneAttr := array.MustSchema("T", target.Dims, []array.Attribute{attr})
	dims := append([]array.Dimension(nil), target.Dims...)
	dims[1].ChunkSize = 5
	regrid := array.MustSchema("T", dims, target.Attrs)
	offsetPast := oneCell(t, target, array.ChunkCoord{0, 0})
	binary.BigEndian.PutUint64(offsetPast[len(offsetPast)-24:], 7*4)

	if _, err := Read(bytes.NewReader(streamWith(t, target, oneCell(t, target, array.ChunkCoord{1, 2})))); err != nil {
		t.Fatalf("fitting chunk rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		enc  []byte
	}{
		{"dimensionality", oneCell(t, oneDim, array.ChunkCoord{0})},
		{"attribute count", oneCell(t, oneAttr, array.ChunkCoord{0, 0})},
		{"region", oneCell(t, regrid, array.ChunkCoord{0, 1})},
		{"coordinate off the grid", oneCell(t, target, array.ChunkCoord{-1, 0})},
		{"cell offset past the region", offsetPast},
	} {
		if _, err := Read(bytes.NewReader(streamWith(t, target, tc.enc))); err == nil {
			t.Errorf("%s: misfit chunk read without error", tc.name)
		}
	}
}
