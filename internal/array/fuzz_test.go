package array

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// fuzzSeedChunk builds a small populated chunk for seeding the fuzzers.
func fuzzSeedChunk() *Chunk {
	c := NewChunk(indexSchema(), ChunkCoord{0, 0})
	for i := int64(0); i < 8; i++ {
		if err := c.Set(Point{i * 2, i}, Tuple{float64(i) * 1.5}); err != nil {
			panic(err)
		}
	}
	return c
}

// outOfRegion copies an encoding and overwrites the cell offset at byte pos
// with one past the end of the seed chunk's region.
func outOfRegion(enc []byte, pos int) []byte {
	out := append([]byte(nil), enc...)
	binary.BigEndian.PutUint64(out[pos:], uint64(fuzzSeedChunk().Region().Size()))
	return out
}

// checkOffsetsInRegion fails unless every cell of c has a local offset in
// [0, region size).
func checkOffsetsInRegion(t *testing.T, c *Chunk) {
	t.Helper()
	offs, _ := c.Columns()
	for _, off := range offs {
		if off < 0 || off >= c.Region().Size() {
			t.Fatalf("cell offset %d outside region %v", off, c.Region())
		}
	}
}

// FuzzDecodeChunk throws arbitrary bytes at the ACH1 decoder. Malformed
// input must fail cleanly — no panic, no runaway allocation — and anything
// that decodes must re-encode canonically to a stable fixed point whose
// hash matches the cached ContentHash.
func FuzzDecodeChunk(f *testing.F) {
	f.Add(EncodeChunk(fuzzSeedChunk()))
	f.Add(EncodeChunk(NewChunk(indexSchema(), ChunkCoord{1, 0})))
	// A corpus of near-valid corruptions: bad magic, truncations, and a
	// hostile cell count over a valid header.
	valid := EncodeChunk(fuzzSeedChunk())
	bad := append([]byte(nil), valid...)
	bad[0] ^= 0xFF
	f.Add(bad)
	f.Add(valid[:len(valid)/2])
	big := append([]byte(nil), valid...)
	for i := 0; i < 8; i++ {
		big[len(big)-len(valid)%8-8+i] = 0xFF // stomp into the cell area
	}
	f.Add(big)
	// Cells out of canonical order, and one offset listed twice: the two
	// payloads whose index DecodeChunk must leave for index() to sort.
	const cell = 16 // i64 offset + one f64 attribute
	swapped := append([]byte(nil), valid...)
	copy(swapped[len(swapped)-cell:], valid[len(valid)-2*cell:len(valid)-cell])
	copy(swapped[len(swapped)-2*cell:], valid[len(valid)-cell:])
	f.Add(swapped)
	dup := append([]byte(nil), valid...)
	copy(dup[len(dup)-cell:], valid[len(valid)-2*cell:len(valid)-cell])
	f.Add(dup)
	// A cell offset past the end of the chunk region: it would decode to a
	// point outside the chunk.
	f.Add(outOfRegion(valid, len(valid)-cell))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeChunk(data)
		if err != nil {
			return
		}
		checkOffsetsInRegion(t, c)
		// Whatever order the payload listed its cells in, iteration is in
		// strictly ascending offset order over exactly the decoded cells.
		offs, coords := c.Columns()
		if len(offs) != c.NumCells() || len(coords) != len(offs)*c.Region().NumDims() {
			t.Fatalf("Columns has %d offsets, %d coordinates for %d cells", len(offs), len(coords), c.NumCells())
		}
		if !slices.IsSorted(offs) {
			t.Fatalf("decoded index not ascending: %v", offs)
		}
		for i, off := range offs {
			if _, ok := c.GetOffset(off); !ok || (i > 0 && offs[i-1] == off) {
				t.Fatalf("decoded index entry %d (%d) is not a distinct cell: %v", i, off, offs)
			}
		}
		// Canonical re-encode: decode(enc) must be a fixed point even when
		// the input listed cells out of order or with duplicate offsets.
		enc := EncodeChunk(c)
		c2, err := DecodeChunk(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		enc2 := EncodeChunk(c2)
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical encoding is not a fixed point: %d vs %d bytes", len(enc), len(enc2))
		}
		if got, want := c.ContentHash(), HashChunkBytes(enc); got != want {
			t.Fatalf("ContentHash %#x disagrees with HashChunkBytes %#x", got, want)
		}
	})
}

// FuzzApplyDelta applies arbitrary bytes as an ACHΔ payload to a decoded
// chunk. Bad deltas must error without mutating the chunk; good ones must
// leave the hash cache consistent with the new content.
func FuzzApplyDelta(f *testing.F) {
	base := fuzzSeedChunk()
	next := fuzzSeedChunk()
	if err := next.Set(Point{1, 1}, Tuple{-7}); err != nil {
		f.Fatal(err)
	}
	next.Delete(Point{0, 0})
	delta, ok := ComputeDelta(base, next)
	if !ok {
		f.Fatal("ComputeDelta refused the seed delta")
	}
	baseEnc := EncodeChunk(base)
	f.Add(baseEnc, delta)
	f.Add(baseEnc, delta[:len(delta)/2])
	mangled := append([]byte(nil), delta...)
	mangled[len(mangled)-1] ^= 0xFF
	f.Add(baseEnc, mangled)
	// The seed delta is one set record then one delete record; point the
	// set past the end of the region.
	f.Add(baseEnc, outOfRegion(delta, len(delta)-8-16))

	f.Fuzz(func(t *testing.T, chunkBuf, deltaBuf []byte) {
		c, err := DecodeChunk(chunkBuf)
		if err != nil {
			return
		}
		before := EncodeChunk(c)
		if err := ApplyDelta(c, deltaBuf); err != nil {
			if after := EncodeChunk(c); !bytes.Equal(before, after) {
				t.Fatalf("failed ApplyDelta mutated the chunk: %d -> %d bytes", len(before), len(after))
			}
			return
		}
		if got, want := c.ContentHash(), HashChunkBytes(EncodeChunk(c)); got != want {
			t.Fatalf("post-delta ContentHash %#x disagrees with recomputed %#x", got, want)
		}
		checkOffsetsInRegion(t, c)
	})
}
