// Package arrayio serializes whole arrays — schema plus chunks — to a
// simple self-describing stream format, used by the dataset generation
// tools:
//
//	u32  magic "AAR1"
//	u32  JSON header length, then the header (schema)
//	u32  chunk count
//	per chunk: u32 length, then the chunk in array.EncodeChunk format
package arrayio

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"github.com/arrayview/arrayview/internal/array"
)

const magic = 0x41415231 // "AAR1"

// header is the JSON-encoded schema description.
type header struct {
	Name  string      `json:"name"`
	Dims  []headerDim `json:"dims"`
	Attrs []headerAtt `json:"attrs"`
}

type headerDim struct {
	Name      string `json:"name"`
	Start     int64  `json:"start"`
	End       int64  `json:"end"`
	ChunkSize int64  `json:"chunk"`
}

type headerAtt struct {
	Name string `json:"name"`
	Type int    `json:"type"`
}

// Write serializes the array to w.
func Write(w io.Writer, a *array.Array) error {
	s := a.Schema()
	h := header{Name: s.Name}
	for _, d := range s.Dims {
		h.Dims = append(h.Dims, headerDim{Name: d.Name, Start: d.Start, End: d.End, ChunkSize: d.ChunkSize})
	}
	for _, at := range s.Attrs {
		h.Attrs = append(h.Attrs, headerAtt{Name: at.Name, Type: int(at.Type)})
	}
	hb, err := json.Marshal(h)
	if err != nil {
		return err
	}
	if err := writeU32(w, magic); err != nil {
		return err
	}
	if err := writeU32(w, uint32(len(hb))); err != nil {
		return err
	}
	if _, err := w.Write(hb); err != nil {
		return err
	}
	keys := a.ChunkKeys()
	if err := writeU32(w, uint32(len(keys))); err != nil {
		return err
	}
	for _, k := range keys {
		buf := array.EncodeChunk(a.ChunkByKey(k))
		if err := writeU32(w, uint32(len(buf))); err != nil {
			return err
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// Read deserializes an array from r.
func Read(r io.Reader) (*array.Array, error) {
	m, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if m != magic {
		return nil, fmt.Errorf("arrayio: bad magic %#x", m)
	}
	hlen, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if hlen > 1<<20 {
		return nil, fmt.Errorf("arrayio: implausible header length %d", hlen)
	}
	hb := make([]byte, hlen)
	if _, err := io.ReadFull(r, hb); err != nil {
		return nil, err
	}
	var h header
	if err := json.Unmarshal(hb, &h); err != nil {
		return nil, err
	}
	var dims []array.Dimension
	for _, d := range h.Dims {
		dims = append(dims, array.Dimension{Name: d.Name, Start: d.Start, End: d.End, ChunkSize: d.ChunkSize})
	}
	var attrs []array.Attribute
	for _, at := range h.Attrs {
		attrs = append(attrs, array.Attribute{Name: at.Name, Type: array.AttrType(at.Type)})
	}
	schema, err := array.NewSchema(h.Name, dims, attrs)
	if err != nil {
		return nil, err
	}
	out := array.New(schema)
	n, err := readU32(r)
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < n; i++ {
		clen, err := readU32(r)
		if err != nil {
			return nil, err
		}
		buf := make([]byte, clen)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		ch, err := array.DecodeChunk(buf)
		if err != nil {
			return nil, err
		}
		if err := schema.CheckChunk(ch); err != nil {
			return nil, fmt.Errorf("arrayio: chunk %d: %w", i, err)
		}
		out.PutChunk(ch)
	}
	return out, nil
}

func writeU32(w io.Writer, v uint32) error {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(buf[:]), nil
}
