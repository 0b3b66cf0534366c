package wal

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
)

// fuzzDir writes a small durable directory — a checkpoint of a
// five-chunk array, then diff barriers that rewrite a chunk, ship a
// replica, and register and drop a second array — and returns its files.
// The seeds stay small so the fuzzer mutates them, not minimizes them.
func fuzzDir(f *testing.F) map[string][]byte {
	f.Helper()
	fs := NewMemFS()
	d, _, err := Open(fs, testNodes, Options{})
	if err != nil {
		f.Fatal(err)
	}
	cl, _ := cluster.New(testNodes, cluster.WithWorkersPerNode(1))
	fill := func(name string, n int64) *array.Array {
		a := array.New(oneDim(name, n))
		for i := int64(0); i < n; i += 4 {
			if err := a.Set(array.Point{i}, array.Tuple{float64(i)}); err != nil {
				f.Fatal(err)
			}
		}
		if err := cl.LoadArray(a, cluster.HashPlacement{}); err != nil {
			f.Fatal(err)
		}
		return a
	}
	base := fill("A", 50)
	if err := d.Attach(cl); err != nil {
		f.Fatal(err)
	}
	barrier := func() {
		if err := d.CommitBarrier(); err != nil {
			f.Fatal(err)
		}
	}
	ch := base.Chunk(array.ChunkCoord{1}).Clone()
	if err := ch.Set(array.Point{11}, array.Tuple{1}); err != nil {
		f.Fatal(err)
	}
	home, _ := cl.Catalog().Home("A", ch.Key())
	if err := cl.PutAt(home, "A", ch); err != nil {
		f.Fatal(err)
	}
	if err := cl.Catalog().SetChunk("A", ch.Key(), home, ch.SizeBytes(), ch.NumCells()); err != nil {
		f.Fatal(err)
	}
	barrier()
	if err := cl.Transfer(nil, "A", ch.Key(), home, (home+1)%testNodes); err != nil {
		f.Fatal(err)
	}
	barrier()
	fill("B", 20)
	barrier()
	cl.Catalog().Drop("B")
	barrier()
	if err := d.Close(); err != nil {
		f.Fatal(err)
	}
	files := map[string][]byte{}
	for _, name := range []string{"CURRENT", "gen-1/meta.wal"} {
		files[name], _ = fs.ReadFile(name)
	}
	for i := 0; i < testNodes; i++ {
		for _, ext := range []string{"wal", "seg"} {
			name := fmt.Sprintf("gen-1/node-%d.%s", i, ext)
			files[name], _ = fs.ReadFile(name)
		}
	}
	return files
}

// FuzzMetaLog opens a directory whose meta log is arbitrary bytes, beside
// the real journals of a test run. Open must never panic: it returns an
// error, or a recovered state that installs or fails with an error.
func FuzzMetaLog(f *testing.F) {
	files := fuzzDir(f)
	meta := files["gen-1/meta.wal"]
	f.Add(meta)
	var ends []int64
	frames(meta, func(_ []byte, end int64) bool { ends = append(ends, end); return true })
	for _, end := range ends {
		f.Add(meta[:end])   // each barrier as the last
		f.Add(meta[end-1:]) // a log starting mid-frame
	}
	f.Add(meta[ends[0]:]) // diffs with no full record before them
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fs := NewMemFS()
		if err := fs.MkdirAll("gen-1"); err != nil {
			t.Fatal(err)
		}
		for name, body := range files {
			if name == "gen-1/meta.wal" {
				body = data
			}
			fh, err := fs.Create(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fh.Write(body); err != nil {
				t.Fatal(err)
			}
		}
		_, rec, err := Open(fs, testNodes, Options{})
		if (err == nil) == (rec == nil) {
			t.Fatalf("Open returned state %v and error %v", rec != nil, err)
		}
		if rec == nil {
			return
		}
		cl, err := cluster.New(testNodes, cluster.WithWorkersPerNode(1))
		if err != nil {
			t.Fatal(err)
		}
		_ = rec.Install(cl)
	})
}

// FuzzJournalRec throws arbitrary payloads at the journal record decoder.
// It must never panic, and whatever decodes must be exactly what the
// encoder writes for the decoded record.
func FuzzJournalRec(f *testing.F) {
	files := fuzzDir(f)
	for i := 0; i < testNodes; i++ {
		frames(files[fmt.Sprintf("gen-1/node-%d.wal", i)], func(p []byte, _ int64) bool {
			f.Add(append([]byte(nil), p...))
			return true
		})
	}
	f.Add(encodeJournalRec(journalRec{kind: recDelete, array: "A", key: "k"}))
	f.Add(encodeJournalRec(journalRec{kind: recDropArray, array: "A"}))

	f.Fuzz(func(t *testing.T, p []byte) {
		r, err := decodeJournalRec(p)
		if err != nil {
			return
		}
		if enc := encodeJournalRec(r); !bytes.Equal(enc, p) {
			t.Fatalf("decoded %+v re-encodes to %x, read from %x", r, enc, p)
		}
	})
}
