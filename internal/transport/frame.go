// Package transport implements a stdlib-only TCP data plane for the
// cluster: a length-prefixed binary framing protocol for shipping
// serialized chunks between nodes, a per-node daemon serving one
// storage.Store, a pooled client, and a cluster.Fabric implementation that
// routes every chunk operation over real sockets.
//
// The wire format of one frame is
//
//	u32 length | u8 type | payload
//
// with all integers big-endian (matching the chunk encoding of
// internal/array). The length covers the type byte plus the payload.
// Chunks travel in their storage serialization (array.EncodeChunk), so a
// frame's dominant cost is exactly the bytes the paper's cost model
// charges for a chunk transfer.
//
// The top bit of the type byte versions the frame: when flagCompressed is
// set the payload is per-frame deflate,
//
//	u32 length | u8 type|0x80 | u32 rawLen | deflate(payload)
//
// and rawLen is the inflated payload size. Peers that never set the flag
// produce exactly the v1 format, and every decoder accepts both, so
// compression needs no handshake: a sender turns it on per frame when it
// shrinks the payload, and a server mirrors whatever the request used.
package transport

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
)

// MsgType identifies a frame's message.
type MsgType uint8

// Request messages.
const (
	MsgPing MsgType = iota + 1
	MsgPutChunk
	MsgGetChunk
	MsgHasChunk
	MsgDeleteChunk
	MsgMergeDelta
	MsgKeys
	MsgDropArray
	MsgStats
	MsgRegisterView
	MsgExecuteJoin
	MsgOfferBatch
	MsgPatchChunk
	MsgGetBatch
	MsgPutBatch
	// MsgQuery asks a serve daemon to answer a shape query against the
	// current snapshot epoch; MsgSnapshot asks for its epoch/cache/admission
	// statistics. Both are read-only and therefore idempotent.
	MsgQuery
	MsgSnapshot
)

// Response messages.
const (
	MsgOK MsgType = iota + 64
	MsgErr
	MsgChunk
	MsgBool
	MsgCount
	MsgKeyList
	MsgStatsReply
	MsgChunkList
	MsgBoolList
	MsgQueryResult
	MsgSnapshotReply
)

// flagCompressed marks a frame whose payload is deflate-compressed. It
// occupies the top bit of the type byte, which no message type uses.
const flagCompressed = 0x80

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgPing:
		return "Ping"
	case MsgPutChunk:
		return "PutChunk"
	case MsgGetChunk:
		return "GetChunk"
	case MsgHasChunk:
		return "HasChunk"
	case MsgDeleteChunk:
		return "DeleteChunk"
	case MsgMergeDelta:
		return "MergeDelta"
	case MsgKeys:
		return "Keys"
	case MsgDropArray:
		return "DropArray"
	case MsgStats:
		return "Stats"
	case MsgRegisterView:
		return "RegisterView"
	case MsgExecuteJoin:
		return "ExecuteJoin"
	case MsgOfferBatch:
		return "OfferBatch"
	case MsgPatchChunk:
		return "PatchChunk"
	case MsgGetBatch:
		return "GetBatch"
	case MsgPutBatch:
		return "PutBatch"
	case MsgQuery:
		return "Query"
	case MsgSnapshot:
		return "Snapshot"
	case MsgOK:
		return "OK"
	case MsgErr:
		return "Err"
	case MsgChunk:
		return "Chunk"
	case MsgBool:
		return "Bool"
	case MsgCount:
		return "Count"
	case MsgKeyList:
		return "KeyList"
	case MsgStatsReply:
		return "StatsReply"
	case MsgChunkList:
		return "ChunkList"
	case MsgBoolList:
		return "BoolList"
	case MsgQueryResult:
		return "QueryResult"
	case MsgSnapshotReply:
		return "SnapshotReply"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// maxFrame bounds one frame's type+payload size. A PTF-scale chunk is a
// few MiB serialized; 256 MiB leaves ample headroom while keeping a
// corrupted length prefix from allocating the moon.
const maxFrame = 1 << 28

// Message is the decoded form of one frame: a tagged union whose active
// fields depend on Type. Keeping it a flat struct makes the codec
// mechanical and lets property tests drive every branch with one
// generator.
type Message struct {
	Type MsgType

	// Array/Key address one chunk of one array (PutChunk, GetChunk,
	// HasChunk, DeleteChunk, MergeDelta, Keys, DropArray). For ExecuteJoin
	// they address the P side and Array2/Key2 the Q side.
	Array  string
	Key    array.ChunkKey
	Array2 string
	Key2   array.ChunkKey

	// Chunk holds one serialized chunk (PutChunk, MergeDelta request;
	// Chunk response). Chunks holds several (ChunkList).
	Chunk  []byte
	Chunks [][]byte

	// MergeDelta parameters: the declarative merge spec.
	MergeKind uint8
	MergeOps  []uint8

	// ExecuteJoin parameters.
	View string
	Both bool
	Sign float64

	// Spec is an encoded document the frame layer does not interpret: a
	// view definition (RegisterView), a query shape (Query), the serving
	// statistics (SnapshotReply).
	Spec []byte

	// Wire-efficiency fields. Items carries batched chunk identities —
	// plus bodies for PutBatch (OfferBatch, GetBatch, PutBatch). Hash is
	// the base content hash a PatchChunk delta applies against (the delta
	// itself travels in Chunk). Flags is the BoolList response.
	Items []cluster.WireItem
	Hash  uint64
	Flags []bool

	// Response payloads.
	Flag      bool             // Bool
	Count     int64            // Count
	KeyList   []array.ChunkKey // KeyList
	NumChunks int64            // StatsReply
	Bytes     int64            // StatsReply
	Err       string           // Err

	// Serving fields. Mode is the query.Mode of a Query request (its shape
	// travels gob-encoded in Spec). Epoch tags a QueryResult with the
	// snapshot epoch it was answered at (its result chunks travel in Chunks
	// and Flag reports whether the view path was used). A SnapshotReply
	// carries the daemon's statistics as one encoded document in Spec; the
	// serving layer owns its format, so a new counter is not a wire change.
	Mode  uint8
	Epoch uint64
}

// appendStr appends a u32-length-prefixed string.
func appendStr(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// appendBytes appends a u32-length-prefixed byte slice.
func appendBytes(buf []byte, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// appendPayload appends the message's payload to buf, which may be a
// pooled buffer being reused across frames.
func appendPayload(buf []byte, m *Message) []byte {
	switch m.Type {
	case MsgPing, MsgStats, MsgOK, MsgSnapshot:
		// empty payload
	case MsgPutChunk:
		buf = appendStr(buf, m.Array)
		buf = appendBytes(buf, m.Chunk)
	case MsgGetChunk, MsgHasChunk, MsgDeleteChunk:
		buf = appendStr(buf, m.Array)
		buf = appendStr(buf, string(m.Key))
	case MsgMergeDelta:
		buf = appendStr(buf, m.Array)
		buf = append(buf, m.MergeKind)
		buf = appendBytes(buf, m.MergeOps)
		buf = appendBytes(buf, m.Chunk)
	case MsgKeys, MsgDropArray:
		buf = appendStr(buf, m.Array)
	case MsgRegisterView, MsgSnapshotReply:
		buf = appendBytes(buf, m.Spec)
	case MsgOfferBatch, MsgGetBatch, MsgPutBatch:
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Items)))
		for _, it := range m.Items {
			buf = appendStr(buf, it.Array)
			buf = appendStr(buf, string(it.Key))
			buf = binary.BigEndian.AppendUint64(buf, it.Hash)
			buf = binary.BigEndian.AppendUint64(buf, uint64(it.Size))
			buf = appendBytes(buf, it.Data)
		}
	case MsgPatchChunk:
		buf = appendStr(buf, m.Array)
		buf = appendStr(buf, string(m.Key))
		buf = binary.BigEndian.AppendUint64(buf, m.Hash)
		buf = appendBytes(buf, m.Chunk)
	case MsgExecuteJoin:
		buf = appendStr(buf, m.View)
		buf = appendStr(buf, m.Array)
		buf = appendStr(buf, string(m.Key))
		buf = appendStr(buf, m.Array2)
		buf = appendStr(buf, string(m.Key2))
		if m.Both {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(m.Sign))
	case MsgErr:
		buf = appendStr(buf, m.Err)
	case MsgChunk:
		buf = appendBytes(buf, m.Chunk)
	case MsgBool:
		if m.Flag {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case MsgCount:
		buf = binary.BigEndian.AppendUint64(buf, uint64(m.Count))
	case MsgKeyList:
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.KeyList)))
		for _, k := range m.KeyList {
			buf = appendStr(buf, string(k))
		}
	case MsgStatsReply:
		buf = binary.BigEndian.AppendUint64(buf, uint64(m.NumChunks))
		buf = binary.BigEndian.AppendUint64(buf, uint64(m.Bytes))
	case MsgChunkList:
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Chunks)))
		for _, c := range m.Chunks {
			buf = appendBytes(buf, c)
		}
	case MsgBoolList:
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Flags)))
		for _, f := range m.Flags {
			if f {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	case MsgQuery:
		buf = append(buf, m.Mode)
		buf = appendBytes(buf, m.Spec)
	case MsgQueryResult:
		buf = binary.BigEndian.AppendUint64(buf, m.Epoch)
		if m.Flag {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Chunks)))
		for _, c := range m.Chunks {
			buf = appendBytes(buf, c)
		}
	}
	return buf
}

// payloadReader consumes a payload buffer with bounds checking.
type payloadReader struct {
	buf []byte
	off int
	err error
}

func (r *payloadReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *payloadReader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	if r.off+1 > len(r.buf) {
		r.fail("transport: truncated payload at byte %d", r.off)
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *payloadReader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.buf) {
		r.fail("transport: truncated payload at byte %d", r.off)
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *payloadReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail("transport: truncated payload at byte %d", r.off)
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *payloadReader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail("transport: length %d overruns payload (%d bytes left)", n, len(r.buf)-r.off)
		return nil
	}
	v := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

func (r *payloadReader) str() string { return string(r.bytes()) }

func (r *payloadReader) bool() bool { return r.u8() != 0 }

// DecodePayload parses a payload into a message of the given type. The
// payload slice is not retained; byte fields are copied.
func DecodePayload(t MsgType, payload []byte) (*Message, error) {
	m := &Message{Type: t}
	r := &payloadReader{buf: payload}
	switch t {
	case MsgPing, MsgStats, MsgOK, MsgSnapshot:
		// empty payload
	case MsgPutChunk:
		m.Array = r.str()
		m.Chunk = cloneBytes(r.bytes())
	case MsgGetChunk, MsgHasChunk, MsgDeleteChunk:
		m.Array = r.str()
		m.Key = array.ChunkKey(r.str())
	case MsgMergeDelta:
		m.Array = r.str()
		m.MergeKind = r.u8()
		m.MergeOps = cloneBytes(r.bytes())
		m.Chunk = cloneBytes(r.bytes())
	case MsgKeys, MsgDropArray:
		m.Array = r.str()
	case MsgRegisterView, MsgSnapshotReply:
		m.Spec = cloneBytes(r.bytes())
	case MsgOfferBatch, MsgGetBatch, MsgPutBatch:
		n := int(r.u32())
		if r.err == nil && n > len(payload) {
			return nil, fmt.Errorf("transport: item count %d exceeds payload size", n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			it := cluster.WireItem{
				Array: r.str(),
				Key:   array.ChunkKey(r.str()),
				Hash:  r.u64(),
				Size:  int64(r.u64()),
			}
			it.Data = cloneBytes(r.bytes())
			m.Items = append(m.Items, it)
		}
	case MsgPatchChunk:
		m.Array = r.str()
		m.Key = array.ChunkKey(r.str())
		m.Hash = r.u64()
		m.Chunk = cloneBytes(r.bytes())
	case MsgExecuteJoin:
		m.View = r.str()
		m.Array = r.str()
		m.Key = array.ChunkKey(r.str())
		m.Array2 = r.str()
		m.Key2 = array.ChunkKey(r.str())
		m.Both = r.bool()
		m.Sign = math.Float64frombits(r.u64())
	case MsgErr:
		m.Err = r.str()
	case MsgChunk:
		m.Chunk = cloneBytes(r.bytes())
	case MsgBool:
		m.Flag = r.bool()
	case MsgCount:
		m.Count = int64(r.u64())
	case MsgKeyList:
		n := int(r.u32())
		if r.err == nil && n > len(payload) {
			return nil, fmt.Errorf("transport: key count %d exceeds payload size", n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			m.KeyList = append(m.KeyList, array.ChunkKey(r.str()))
		}
	case MsgStatsReply:
		m.NumChunks = int64(r.u64())
		m.Bytes = int64(r.u64())
	case MsgChunkList:
		n := int(r.u32())
		if r.err == nil && n > len(payload) {
			return nil, fmt.Errorf("transport: chunk count %d exceeds payload size", n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			m.Chunks = append(m.Chunks, cloneBytes(r.bytes()))
		}
	case MsgBoolList:
		n := int(r.u32())
		if r.err == nil && n > len(payload) {
			return nil, fmt.Errorf("transport: flag count %d exceeds payload size", n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			m.Flags = append(m.Flags, r.bool())
		}
	case MsgQuery:
		m.Mode = r.u8()
		m.Spec = cloneBytes(r.bytes())
	case MsgQueryResult:
		m.Epoch = r.u64()
		m.Flag = r.bool()
		n := int(r.u32())
		if r.err == nil && n > len(payload) {
			return nil, fmt.Errorf("transport: chunk count %d exceeds payload size", n)
		}
		for i := 0; i < n && r.err == nil; i++ {
			m.Chunks = append(m.Chunks, cloneBytes(r.bytes()))
		}
	default:
		return nil, fmt.Errorf("transport: unknown message type %d", uint8(t))
	}
	if r.err != nil {
		return nil, fmt.Errorf("decoding %s: %w", t, r.err)
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("transport: %d trailing bytes after %s payload", len(payload)-r.off, t)
	}
	return m, nil
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// framePool recycles frame buffers across requests: WriteMessage builds
// header plus payload in one pooled buffer and issues a single Write, and
// ReadMessage reads each frame body into a pooled buffer. Pooling is safe
// because DecodePayload copies every byte field out of the payload. The
// pool stores pointers (not slices) so putting a buffer back does not
// itself allocate.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuf caps the capacity of buffers returned to the pool, so one
// outsized chunk frame does not pin its memory for the process lifetime.
const maxPooledBuf = 1 << 22

func getFrameBuf() *[]byte { return framePool.Get().(*[]byte) }

func putFrameBuf(bp *[]byte) {
	if cap(*bp) > maxPooledBuf {
		return
	}
	framePool.Put(bp)
}

// grownBuf reslices the pooled buffer to length n, reallocating only when
// its capacity is insufficient.
func grownBuf(bp *[]byte, n int) []byte {
	if cap(*bp) < n {
		*bp = make([]byte, n)
	} else {
		*bp = (*bp)[:n]
	}
	return *bp
}

// flatePool recycles deflate compressors (their window state is the
// expensive allocation).
var flatePool = sync.Pool{New: func() any {
	w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	return w
}}

// appendWriter adapts append-to-slice to io.Writer for the pooled deflater.
type appendWriter struct{ buf []byte }

func (a *appendWriter) Write(p []byte) (int, error) {
	a.buf = append(a.buf, p...)
	return len(p), nil
}

// appendDeflate appends deflate(src) to dst.
func appendDeflate(dst, src []byte) ([]byte, error) {
	aw := &appendWriter{buf: dst}
	fw := flatePool.Get().(*flate.Writer)
	defer flatePool.Put(fw)
	fw.Reset(aw)
	if _, err := fw.Write(src); err != nil {
		return dst, err
	}
	if err := fw.Close(); err != nil {
		return dst, err
	}
	return aw.buf, nil
}

// WriteMessage frames and writes one message in the v1 (uncompressed)
// format. The frame is assembled in a pooled buffer and written with a
// single Write call.
func WriteMessage(w io.Writer, m *Message) error {
	_, _, err := WriteMessageOpt(w, m, 0)
	return err
}

// WriteMessageOpt frames and writes one message, compressing the payload
// when compressMin > 0, the payload is at least compressMin bytes, and
// deflate actually shrinks the frame (incompressible payloads go out
// unflagged, so the choice costs nothing on the wire). It returns the
// frame's raw (uncompressed) and wire sizes, both excluding the 4-byte
// length prefix, so callers can account compression savings as raw−wire.
func WriteMessageOpt(w io.Writer, m *Message, compressMin int) (raw, wire int, err error) {
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	frame := append((*bp)[:0], 0, 0, 0, 0, uint8(m.Type))
	frame = appendPayload(frame, m)
	*bp = frame
	if len(frame)-4 > maxFrame {
		return 0, 0, fmt.Errorf("transport: %s frame of %d bytes exceeds limit", m.Type, len(frame)-4)
	}
	raw = len(frame) - 4
	payload := frame[5:]
	if compressMin > 0 && len(payload) >= compressMin {
		cp := getFrameBuf()
		defer putFrameBuf(cp)
		cf := append((*cp)[:0], 0, 0, 0, 0, uint8(m.Type)|flagCompressed)
		cf = binary.BigEndian.AppendUint32(cf, uint32(len(payload)))
		cf, cerr := appendDeflate(cf, payload)
		*cp = cf
		if cerr == nil && len(cf) < len(frame) {
			binary.BigEndian.PutUint32(cf, uint32(len(cf)-4))
			_, err = w.Write(cf)
			return raw, len(cf) - 4, err
		}
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	_, err = w.Write(frame)
	return raw, raw, err
}

// ReadMessage reads and decodes one frame, accepting both the v1 and the
// compressed format. io.EOF is returned unchanged on a clean close before
// the first header byte.
func ReadMessage(r io.Reader) (*Message, error) {
	m, _, _, err := ReadMessageOpt(r)
	return m, err
}

// ReadMessageOpt reads and decodes one frame, reporting its raw
// (decompressed) and wire sizes excluding the 4-byte length prefix —
// raw > wire exactly when the sender compressed the frame. The frame body
// lands in pooled buffers reused across calls; the decoded message owns
// copies of everything it needs.
func ReadMessageOpt(r io.Reader) (m *Message, raw, wire int, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return nil, 0, 0, err
	}
	length := binary.BigEndian.Uint32(hdr[:4])
	if length == 0 {
		return nil, 0, 0, fmt.Errorf("transport: zero-length frame")
	}
	if length > maxFrame {
		return nil, 0, 0, fmt.Errorf("transport: frame of %d bytes exceeds limit", length)
	}
	if _, err := io.ReadFull(r, hdr[4:5]); err != nil {
		return nil, 0, 0, fmt.Errorf("transport: truncated frame header: %w", err)
	}
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	body := grownBuf(bp, int(length-1))
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, 0, 0, fmt.Errorf("transport: truncated frame body: %w", err)
	}
	t := hdr[4]
	wire = int(length)
	raw = wire
	payload := body
	if t&flagCompressed != 0 {
		if len(body) < 4 {
			return nil, 0, 0, fmt.Errorf("transport: compressed frame of %d bytes lacks raw length", len(body))
		}
		rawLen := binary.BigEndian.Uint32(body)
		if int(rawLen) > maxFrame {
			return nil, 0, 0, fmt.Errorf("transport: compressed frame declares %d raw bytes, exceeds limit", rawLen)
		}
		rp := getFrameBuf()
		defer putFrameBuf(rp)
		out := grownBuf(rp, int(rawLen))
		fr := flate.NewReader(bytes.NewReader(body[4:]))
		if _, err := io.ReadFull(fr, out); err != nil {
			return nil, 0, 0, fmt.Errorf("transport: inflating frame: %w", err)
		}
		var probe [1]byte
		if n, _ := fr.Read(probe[:]); n != 0 {
			return nil, 0, 0, fmt.Errorf("transport: inflated frame exceeds declared %d bytes", rawLen)
		}
		_ = fr.Close()
		t &^= flagCompressed
		payload = out
		raw = 1 + int(rawLen)
	}
	m, err = DecodePayload(MsgType(t), payload)
	return m, raw, wire, err
}
