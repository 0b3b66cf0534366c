package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/arrayview/arrayview/internal/array"
)

// Log files (journals and the meta log) are sequences of framed records:
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// A torn tail — incomplete header, implausible length, or CRC mismatch —
// ends the readable prefix; replay truncates there. Segment files carry
// raw ACH1 chunk bodies addressed by (offset, length) from journal
// records and are integrity-checked by content hash instead of a frame.

const recHeaderLen = 8

// maxRecordLen bounds a single framed record; larger claimed lengths are
// treated as torn-tail garbage.
const maxRecordLen = 1 << 30

// appendFrame appends one framed record to buf.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// frames iterates the valid record prefix of a log file, calling fn with
// each payload and the file offset immediately after its frame. Iteration
// stops silently at the first torn/corrupt record (that is the crash
// contract, not an error) or when fn returns false. It returns the offset
// of the end of the last valid record.
func frames(data []byte, fn func(payload []byte, end int64) bool) int64 {
	off := 0
	for {
		if len(data)-off < recHeaderLen {
			return int64(off)
		}
		n := int(binary.BigEndian.Uint32(data[off:]))
		crc := binary.BigEndian.Uint32(data[off+4:])
		if n > maxRecordLen || len(data)-off-recHeaderLen < n {
			return int64(off)
		}
		payload := data[off+recHeaderLen : off+recHeaderLen+n]
		if crc32.ChecksumIEEE(payload) != crc {
			return int64(off)
		}
		off += recHeaderLen + n
		if !fn(payload, int64(off)) {
			return int64(off)
		}
	}
}

// Journal record kinds.
const (
	recPut       = 1
	recDelete    = 2
	recDropArray = 3
)

// journalRec is one decoded journal record.
type journalRec struct {
	kind  byte
	array string
	key   array.ChunkKey
	hash  uint64
	off   int64 // segment offset of the chunk body (recPut)
	size  int64 // segment length of the chunk body (recPut)
}

// encodeJournalRec renders a journal record payload.
func encodeJournalRec(r journalRec) []byte {
	buf := make([]byte, 0, 1+4+len(r.array)+4+len(r.key)+24)
	buf = append(buf, r.kind)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.array)))
	buf = append(buf, r.array...)
	if r.kind != recDropArray {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.key)))
		buf = append(buf, r.key...)
	}
	if r.kind == recPut {
		buf = binary.BigEndian.AppendUint64(buf, r.hash)
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.off))
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.size))
	}
	return buf
}

// decodeJournalRec parses a journal record payload. Only what
// encodeJournalRec writes decodes: trailing bytes are an error.
func decodeJournalRec(p []byte) (journalRec, error) {
	var r journalRec
	bad := func() (journalRec, error) { return r, fmt.Errorf("wal: malformed journal record (%d bytes)", len(p)) }
	if len(p) < 5 {
		return bad()
	}
	r.kind = p[0]
	n := int(binary.BigEndian.Uint32(p[1:]))
	p = p[5:]
	if n > len(p) {
		return bad()
	}
	r.array, p = string(p[:n]), p[n:]
	if r.kind == recDropArray {
		if len(p) != 0 {
			return bad()
		}
		return r, nil
	}
	if len(p) < 4 {
		return bad()
	}
	n = int(binary.BigEndian.Uint32(p))
	p = p[4:]
	if n > len(p) {
		return bad()
	}
	r.key, p = array.ChunkKey(p[:n]), p[n:]
	if r.kind == recDelete {
		if len(p) != 0 {
			return bad()
		}
		return r, nil
	}
	if r.kind != recPut || len(p) != 24 {
		return bad()
	}
	r.hash = binary.BigEndian.Uint64(p)
	r.off = int64(binary.BigEndian.Uint64(p[8:]))
	r.size = int64(binary.BigEndian.Uint64(p[16:]))
	return r, nil
}
