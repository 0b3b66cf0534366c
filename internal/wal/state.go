package wal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
)

// Meta records are JSON-encoded in deterministic order. Chunk keys are raw
// big-endian coordinate bytes — not valid UTF-8 — so they travel as []byte
// (base64 under encoding/json).
//
// A generation's meta log opens with one full record (the checkpoint) and
// continues with diff records: each barrier writes only what changed in
// the catalog since the record before it. Recovery folds the log in order
// (see foldMeta); the pending log rides in every record as a full
// snapshot, since it is empty outside adaptive maintenance.

// metaRecord is one barrier in the coordinator meta log.
type metaRecord struct {
	// Kind is "commit", "rollback", "skip" (a consumed input batch that
	// wrote no retiring commit of its own), or "checkpoint" (the base
	// record a fresh generation starts with). All four mark consistent
	// cuts.
	Kind string
	// Seq is the monotonic barrier number, continued across checkpoints.
	Seq uint64
	// Applied counts top-level input batches durably consumed: retiring
	// commit barriers and skip barriers advance it, everything else
	// (rollbacks, materialization commits, extra barriers) carries it
	// forward unchanged. Restart resume indexes the input feed with it —
	// never with Seq, which counts barriers, not batches.
	Applied uint64
	// Epoch is the epoch counter to fast-forward to on recovery.
	Epoch uint64
	// Cuts holds each worker journal's replayable WAL length.
	Cuts []int64
	// Catalog is the whole durable catalog; set in full records, which
	// are exactly the records with a nil Diff.
	Catalog []catArray `json:",omitempty"`
	// Diff is the catalog's change since the previous record of the log.
	Diff *catDiff `json:",omitempty"`
	// Pending snapshots the pending-delta log.
	Pending []pendingRec
}

// catDiff is one barrier's catalog change: arrays dropped, then per array
// the chunks deleted and the chunks upserted (each with all its fields).
type catDiff struct {
	Dropped []string   `json:",omitempty"`
	Arrays  []catArray `json:",omitempty"`
}

// catArray is one array of a full record, or one array's change in a diff.
type catArray struct {
	Name string
	// Schema is set in full records, and in a diff when the array was
	// registered since the previous record: its entry then starts empty.
	Schema *array.Schema `json:",omitempty"`
	// Chunks lists every chunk in a full record, the upserted ones in a
	// diff.
	Chunks []catChunk
	// Deleted lists, in a diff only, the chunks removed.
	Deleted [][]byte `json:",omitempty"`
}

type catChunk struct {
	Key      []byte
	Home     int
	Size     int64
	Cells    int
	Replicas []int
	BBox     *array.Region `json:",omitempty"`
	Hash     *uint64       `json:",omitempty"`
	EncSize  int64         `json:",omitempty"`
}

type pendingRec struct {
	Seq   int
	Key   []byte
	Epoch uint64
	Chunk []byte // ACH1 encoding
}

// catState is a catalog as of one meta record: per array its schema and
// one value per chunk. The Durable store keeps it with a digest per chunk
// (what its next diff is taken against); recovery keeps it with the whole
// catChunk (what the fold installs).
type catState[V any] map[string]*stateArray[V]

type stateArray[V any] struct {
	schema *array.Schema
	chunks map[array.ChunkKey]V
}

// apply folds one diff into the state, valuing each upserted chunk with
// val. It fails on a diff that does not fit the state — a chunk of an
// unknown array, a deletion of an absent chunk or array — since a log
// whose records do not chain cannot be trusted to describe any state.
func (st catState[V]) apply(d *catDiff, val func(*catChunk) V) error {
	for _, name := range d.Dropped {
		if _, ok := st[name]; !ok {
			return fmt.Errorf("wal: diff drops unknown array %q", name)
		}
		delete(st, name)
	}
	for i := range d.Arrays {
		ca := &d.Arrays[i]
		sa := st[ca.Name]
		if ca.Schema != nil {
			sa = &stateArray[V]{schema: ca.Schema, chunks: make(map[array.ChunkKey]V, len(ca.Chunks))}
			st[ca.Name] = sa
		} else if sa == nil {
			return fmt.Errorf("wal: diff changes unknown array %q", ca.Name)
		}
		for _, k := range ca.Deleted {
			if _, ok := sa.chunks[array.ChunkKey(k)]; !ok {
				return fmt.Errorf("wal: diff deletes absent chunk %s/%x", ca.Name, k)
			}
			delete(sa.chunks, array.ChunkKey(k))
		}
		for j := range ca.Chunks {
			sa.chunks[array.ChunkKey(ca.Chunks[j].Key)] = val(&ca.Chunks[j])
		}
	}
	return nil
}

// checkFull rejects a full record that recovery could not install.
func checkFull(cat []catArray) error {
	for i := range cat {
		if cat[i].Schema == nil || len(cat[i].Deleted) > 0 {
			return fmt.Errorf("wal: full record has a malformed entry for array %q", cat[i].Name)
		}
	}
	return nil
}

// stateOf loads a full record's catalog into a state.
func stateOf[V any](cat []catArray, val func(*catChunk) V) catState[V] {
	st := make(catState[V], len(cat))
	_ = st.apply(&catDiff{Arrays: cat}, val) // every entry carries a schema: cannot fail
	return st
}

// exportState renders a fold state as a full record's catalog, ordered
// the way exportCatalog orders the live one.
func exportState(st catState[catChunk]) []catArray {
	names := make([]string, 0, len(st))
	for name := range st {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]catArray, 0, len(names))
	for _, name := range names {
		sa := st[name]
		keys := make([]array.ChunkKey, 0, len(sa.chunks))
		for k := range sa.chunks {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		ca := catArray{Name: name, Schema: sa.schema, Chunks: make([]catChunk, 0, len(keys))}
		for _, k := range keys {
			ca.Chunks = append(ca.Chunks, sa.chunks[k])
		}
		out = append(out, ca)
	}
	return out
}

// exportCatalog snapshots every durable (non-scratch) array of the
// catalog, deterministically ordered: a full record's catalog.
func exportCatalog(cat *cluster.Catalog) []catArray {
	return diffCatalog(cat, nil).Arrays
}

// diffCatalog compares the live catalog against st — the digests of the
// last record written — and returns what changed: dropped arrays, newly
// registered arrays in full, and per surviving array the deleted keys and
// the chunks whose digest moved. Against an empty st it is the whole
// catalog. Each array is walked under the catalog's read lock with no
// copy; only changed chunks are rendered. Output order is deterministic.
func diffCatalog(cat *cluster.Catalog, st catState[uint64]) *catDiff {
	d := &catDiff{}
	seen := make(map[string]bool, len(st))
	for _, name := range cat.Names() {
		if !durableArray(name) {
			continue
		}
		cat.ReadArray(name, func(m *cluster.ArrayMeta) {
			seen[name] = true
			sa := st[name]
			ca := catArray{Name: name}
			if sa == nil || sa.schema != m.Schema {
				ca.Schema = m.Schema
				sa = nil
			}
			matched := 0
			for k, home := range m.Home {
				if sa != nil {
					if sum, ok := sa.chunks[k]; ok {
						matched++
						if sum == liveSum(m, k, home) {
							continue
						}
					}
				}
				ca.Chunks = append(ca.Chunks, liveChunk(m, k, home))
			}
			if sa != nil && matched < len(sa.chunks) {
				for k := range sa.chunks {
					if _, ok := m.Home[k]; !ok {
						ca.Deleted = append(ca.Deleted, []byte(k))
					}
				}
			}
			if ca.Schema == nil && len(ca.Chunks) == 0 && len(ca.Deleted) == 0 {
				return
			}
			slices.SortFunc(ca.Chunks, func(a, b catChunk) int { return bytes.Compare(a.Key, b.Key) })
			slices.SortFunc(ca.Deleted, bytes.Compare)
			if ca.Schema != nil && ca.Chunks == nil {
				ca.Chunks = []catChunk{}
			}
			d.Arrays = append(d.Arrays, ca)
		})
	}
	for name := range st {
		if !seen[name] {
			d.Dropped = append(d.Dropped, name)
		}
	}
	sort.Strings(d.Dropped)
	return d
}

// liveChunk renders one live catalog chunk. The bounding box is cloned:
// the record is encoded after the catalog's lock is released.
func liveChunk(m *cluster.ArrayMeta, k array.ChunkKey, home int) catChunk {
	cc := catChunk{Key: []byte(k), Home: home, Size: m.Size[k], Cells: m.Cells[k]}
	for r := range m.Replicas[k] {
		cc.Replicas = append(cc.Replicas, r)
	}
	sort.Ints(cc.Replicas)
	if bb, ok := m.BBox[k]; ok {
		bb = bb.Clone()
		cc.BBox = &bb
	}
	if h, ok := m.Hash[k]; ok {
		cc.Hash = &h
		cc.EncSize = m.EncSize[k]
	}
	return cc
}

// liveSum digests one live catalog chunk without rendering it; it equals
// the sum of liveChunk's result.
func liveSum(m *cluster.ArrayMeta, k array.ChunkKey, home int) uint64 {
	var reps uint64
	for r := range m.Replicas[k] {
		reps += mix64(uint64(r))
	}
	var bb *array.Region
	if b, ok := m.BBox[k]; ok {
		bb = &b
	}
	var hash *uint64
	if h, ok := m.Hash[k]; ok {
		hash = &h
	}
	return fieldSum(home, m.Size[k], m.Cells[k], reps, bb, hash, m.EncSize[k])
}

// sum digests a rendered chunk, as liveSum digests a live one.
func (cc *catChunk) sum() uint64 {
	var reps uint64
	for _, r := range cc.Replicas {
		reps += mix64(uint64(r))
	}
	return fieldSum(cc.Home, cc.Size, cc.Cells, reps, cc.BBox, cc.Hash, cc.EncSize)
}

// fieldSum chains a chunk's catalog fields through mix64. The replica set
// enters as a sum of per-node mixes, so its iteration order is irrelevant.
// EncSize counts only alongside a hash, as the record carries it.
func fieldSum(home int, size int64, cells int, reps uint64, bb *array.Region, hash *uint64, encSize int64) uint64 {
	h := mix64(uint64(home))
	h = mix64(h ^ uint64(size))
	h = mix64(h ^ uint64(cells))
	h = mix64(h ^ reps)
	if bb != nil {
		h = mix64(h ^ uint64(len(bb.Lo)) ^ 1<<32)
		for _, v := range bb.Lo {
			h = mix64(h ^ uint64(v))
		}
		for _, v := range bb.Hi {
			h = mix64(h ^ uint64(v))
		}
	}
	if hash != nil {
		h = mix64(h ^ *hash ^ 1<<33)
		h = mix64(h ^ uint64(encSize))
	}
	return h
}

// mix64 is the SplitMix64 finalizer: a cheap bijective avalanche.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// exportPending snapshots the catalog's pending-delta log.
func exportPending(cat *cluster.Catalog) []pendingRec {
	entries := cat.Pending().Entries()
	out := make([]pendingRec, 0, len(entries))
	for _, e := range entries {
		out = append(out, pendingRec{
			Seq:   e.Seq,
			Key:   []byte(e.Key),
			Epoch: e.Epoch,
			Chunk: array.EncodeChunk(e.Chunk),
		})
	}
	return out
}

// importPending rebuilds the pending log from a snapshot.
func importPending(cat *cluster.Catalog, recs []pendingRec) error {
	entries := make([]cluster.PendingEntry, 0, len(recs))
	for _, r := range recs {
		ch, err := array.DecodeChunk(r.Chunk)
		if err != nil {
			return fmt.Errorf("wal: restore pending entry seq %d: %w", r.Seq, err)
		}
		entries = append(entries, cluster.PendingEntry{
			Seq:   r.Seq,
			Key:   array.ChunkKey(r.Key),
			Epoch: r.Epoch,
			Chunk: ch,
		})
	}
	cat.Pending().Reset(entries)
	return nil
}

// foldMeta reads a generation's meta log in order: a full record replaces
// the state, a diff applies to it, and the last valid frame is the cut
// recovery lands on. A torn tail ends the log silently (the crash
// contract), but a frame that passes its CRC and does not decode, a diff
// with no full record before it, a diff that does not fit the state, and
// a diff in a directory whose format predates diffs all fail: once
// records depend on each other, skipping one would install a state no
// barrier ever wrote. It returns a nil record for a log with no valid
// frame. A log whose only record is full returns that record's catalog
// as decoded.
func foldMeta(data []byte, diffs bool) (*metaRecord, []catArray, error) {
	var (
		last *metaRecord
		base []catArray         // the last full record's catalog, while no diff follows it
		st   catState[catChunk] // the fold, once a diff has followed base
		err  error
		n    int
	)
	whole := func(cc *catChunk) catChunk { return *cc }
	frames(data, func(payload []byte, _ int64) bool {
		n++
		var m metaRecord
		if err = json.Unmarshal(payload, &m); err != nil {
			err = fmt.Errorf("wal: meta record %d does not decode: %w", n, err)
			return false
		}
		switch {
		case m.Diff == nil:
			if err = checkFull(m.Catalog); err != nil {
				return false
			}
			base, st = m.Catalog, nil
		case !diffs:
			err = fmt.Errorf("wal: meta record %d is a diff in a directory of full records", n)
			return false
		case last == nil:
			err = fmt.Errorf("wal: meta record %d is a diff with no full record before it", n)
			return false
		default:
			if st == nil {
				st = stateOf(base, whole)
			}
			if err = st.apply(m.Diff, whole); err != nil {
				err = fmt.Errorf("wal: meta record %d: %w", n, err)
				return false
			}
		}
		last = &m
		return true
	})
	if err != nil || last == nil {
		return nil, nil, err
	}
	if st != nil {
		base = exportState(st)
	}
	return last, base, nil
}
