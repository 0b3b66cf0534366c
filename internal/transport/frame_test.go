package transport

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
)

// allTypes lists every message type of the protocol.
var allTypes = []MsgType{
	MsgPing, MsgPutChunk, MsgGetChunk, MsgHasChunk, MsgDeleteChunk,
	MsgMergeDelta, MsgKeys, MsgDropArray, MsgStats, MsgRegisterView,
	MsgExecuteJoin, MsgOfferBatch, MsgPatchChunk, MsgGetBatch, MsgPutBatch,
	MsgQuery, MsgSnapshot,
	MsgOK, MsgErr, MsgChunk, MsgBool, MsgCount, MsgKeyList,
	MsgStatsReply, MsgChunkList, MsgBoolList, MsgQueryResult, MsgSnapshotReply,
}

func quickString(r *rand.Rand) string {
	v, ok := quick.Value(reflect.TypeOf(""), r)
	if !ok {
		panic("quick.Value(string)")
	}
	return v.Interface().(string)
}

func quickBytes(r *rand.Rand) []byte {
	v, ok := quick.Value(reflect.TypeOf([]byte(nil)), r)
	if !ok {
		panic("quick.Value([]byte)")
	}
	return v.Interface().([]byte)
}

// genMessage fills only the fields the codec carries for the type, using
// testing/quick's value generator for the field contents.
func genMessage(t MsgType, r *rand.Rand) *Message {
	m := &Message{Type: t}
	switch t {
	case MsgPing, MsgStats, MsgOK, MsgSnapshot:
	case MsgPutChunk:
		m.Array = quickString(r)
		m.Chunk = quickBytes(r)
	case MsgGetChunk, MsgHasChunk, MsgDeleteChunk:
		m.Array = quickString(r)
		m.Key = array.ChunkKey(quickString(r))
	case MsgMergeDelta:
		m.Array = quickString(r)
		m.MergeKind = uint8(r.Intn(256))
		m.MergeOps = quickBytes(r)
		m.Chunk = quickBytes(r)
	case MsgKeys, MsgDropArray:
		m.Array = quickString(r)
	case MsgRegisterView, MsgSnapshotReply:
		m.Spec = quickBytes(r)
	case MsgOfferBatch, MsgGetBatch, MsgPutBatch:
		for i, n := 0, r.Intn(5); i < n; i++ {
			m.Items = append(m.Items, cluster.WireItem{
				Array: quickString(r),
				Key:   array.ChunkKey(quickString(r)),
				Hash:  r.Uint64(),
				Size:  int64(r.Uint64()),
				Data:  quickBytes(r),
			})
		}
	case MsgPatchChunk:
		m.Array = quickString(r)
		m.Key = array.ChunkKey(quickString(r))
		m.Hash = r.Uint64()
		m.Chunk = quickBytes(r)
	case MsgExecuteJoin:
		m.View = quickString(r)
		m.Array = quickString(r)
		m.Key = array.ChunkKey(quickString(r))
		m.Array2 = quickString(r)
		m.Key2 = array.ChunkKey(quickString(r))
		m.Both = r.Intn(2) == 1
		m.Sign = math.Float64frombits(r.Uint64())
	case MsgErr:
		m.Err = quickString(r)
	case MsgChunk:
		m.Chunk = quickBytes(r)
	case MsgBool:
		m.Flag = r.Intn(2) == 1
	case MsgCount:
		m.Count = int64(r.Uint64())
	case MsgKeyList:
		for i, n := 0, r.Intn(5); i < n; i++ {
			m.KeyList = append(m.KeyList, array.ChunkKey(quickString(r)))
		}
	case MsgBoolList:
		for i, n := 0, r.Intn(6); i < n; i++ {
			m.Flags = append(m.Flags, r.Intn(2) == 1)
		}
	case MsgStatsReply:
		m.NumChunks = int64(r.Uint64())
		m.Bytes = int64(r.Uint64())
	case MsgChunkList:
		for i, n := 0, r.Intn(5); i < n; i++ {
			m.Chunks = append(m.Chunks, quickBytes(r))
		}
	case MsgQuery:
		m.Mode = uint8(r.Intn(256))
		m.Spec = quickBytes(r)
	case MsgQueryResult:
		m.Epoch = r.Uint64()
		m.Flag = r.Intn(2) == 1
		for i, n := 0, r.Intn(5); i < n; i++ {
			m.Chunks = append(m.Chunks, quickBytes(r))
		}
	default:
		panic("unhandled type in generator: " + t.String())
	}
	return m
}

// equalMessages compares two messages field by field, treating nil and
// empty slices as equal (the codec cannot distinguish them).
func equalMessages(a, b *Message) bool {
	eqBytes := func(x, y []byte) bool { return bytes.Equal(x, y) }
	if a.Type != b.Type || a.Array != b.Array || a.Key != b.Key ||
		a.Array2 != b.Array2 || a.Key2 != b.Key2 || a.View != b.View ||
		a.Both != b.Both || a.MergeKind != b.MergeKind ||
		a.Flag != b.Flag || a.Count != b.Count || a.Err != b.Err ||
		a.NumChunks != b.NumChunks || a.Bytes != b.Bytes ||
		a.Hash != b.Hash || a.Mode != b.Mode || a.Epoch != b.Epoch {
		return false
	}
	if len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Items {
		x, y := a.Items[i], b.Items[i]
		if x.Array != y.Array || x.Key != y.Key || x.Hash != y.Hash ||
			x.Size != y.Size || !bytes.Equal(x.Data, y.Data) {
			return false
		}
	}
	if len(a.Flags) != len(b.Flags) {
		return false
	}
	for i := range a.Flags {
		if a.Flags[i] != b.Flags[i] {
			return false
		}
	}
	// NaN-safe float comparison on the bit pattern.
	if math.Float64bits(a.Sign) != math.Float64bits(b.Sign) {
		return false
	}
	if !eqBytes(a.Chunk, b.Chunk) || !eqBytes(a.MergeOps, b.MergeOps) || !eqBytes(a.Spec, b.Spec) {
		return false
	}
	if len(a.Chunks) != len(b.Chunks) {
		return false
	}
	for i := range a.Chunks {
		if !eqBytes(a.Chunks[i], b.Chunks[i]) {
			return false
		}
	}
	if len(a.KeyList) != len(b.KeyList) {
		return false
	}
	for i := range a.KeyList {
		if a.KeyList[i] != b.KeyList[i] {
			return false
		}
	}
	return true
}

// TestFrameRoundTripQuick drives every message type through the full
// write/read path with testing/quick-generated contents.
func TestFrameRoundTripQuick(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, typ := range allTypes {
		typ := typ
		f := func() bool {
			in := genMessage(typ, r)
			var buf bytes.Buffer
			if err := WriteMessage(&buf, in); err != nil {
				t.Logf("%s: write: %v", typ, err)
				return false
			}
			out, err := ReadMessage(&buf)
			if err != nil {
				t.Logf("%s: read: %v", typ, err)
				return false
			}
			if buf.Len() != 0 {
				t.Logf("%s: %d unread bytes after frame", typ, buf.Len())
				return false
			}
			if !equalMessages(in, out) {
				t.Logf("%s: round trip mismatch:\n in: %+v\nout: %+v", typ, in, out)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", typ, err)
		}
	}
}

// TestTruncatedFrames verifies that every proper prefix of a valid frame
// decodes to a clean error, never a panic or a bogus message.
func TestTruncatedFrames(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, typ := range allTypes {
		m := genMessage(typ, r)
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		frame := buf.Bytes()
		for cut := 0; cut < len(frame); cut++ {
			if _, err := ReadMessage(bytes.NewReader(frame[:cut])); err == nil {
				t.Errorf("%s: truncation at %d/%d decoded without error", typ, cut, len(frame))
			}
		}
	}
}

// TestCorruptedFrames verifies that header and payload corruption decode
// to clean errors.
func TestCorruptedFrames(t *testing.T) {
	t.Run("zero length", func(t *testing.T) {
		if _, err := ReadMessage(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
			t.Error("zero-length frame decoded without error")
		}
	})
	t.Run("oversized length", func(t *testing.T) {
		if _, err := ReadMessage(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})); err == nil {
			t.Error("oversized frame decoded without error")
		}
	})
	t.Run("unknown type", func(t *testing.T) {
		if _, err := ReadMessage(bytes.NewReader([]byte{0, 0, 0, 1, 0xEE})); err == nil {
			t.Error("unknown message type decoded without error")
		}
	})
	t.Run("trailing garbage in payload", func(t *testing.T) {
		m := &Message{Type: MsgGetChunk, Array: "a", Key: "k"}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()
		// Extend the payload by one byte and fix up the length prefix.
		frame = append(frame, 0x7A)
		frame[3]++
		if _, err := ReadMessage(bytes.NewReader(frame)); err == nil {
			t.Error("frame with trailing payload bytes decoded without error")
		}
	})
	t.Run("inner length overrun", func(t *testing.T) {
		// A GetChunk whose array-name length points past the payload end.
		payload := []byte{0xFF, 0xFF, 0xFF, 0x00, 'a'}
		frame := []byte{0, 0, 0, byte(1 + len(payload)), byte(MsgGetChunk)}
		frame = append(frame, payload...)
		if _, err := ReadMessage(bytes.NewReader(frame)); err == nil {
			t.Error("frame with overrunning inner length decoded without error")
		}
	})
	t.Run("random fuzz does not panic", func(t *testing.T) {
		r := rand.New(rand.NewSource(3))
		for i := 0; i < 2000; i++ {
			n := r.Intn(64)
			buf := make([]byte, n)
			r.Read(buf)
			// Keep the claimed length sane so io.ReadFull fails fast.
			if n >= 4 {
				buf[0], buf[1] = 0, 0
			}
			_, _ = ReadMessage(bytes.NewReader(buf)) // must not panic
		}
	})
}
