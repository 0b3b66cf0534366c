package cluster

import (
	"sort"
	"sync"

	"github.com/arrayview/arrayview/internal/array"
)

// PendingEntry is one deferred light-chunk delta: the chunk's cells as
// staged by batch Seq, tagged with the epoch that was current when the
// batch's eager part committed. The epoch tag keeps snapshot isolation
// exact: a pinned reader at epoch E never observes an entry appended after
// E, because entries only become visible through a normal maintenance
// commit (materialization), which publishes its own later epoch.
type PendingEntry struct {
	Seq   int
	Key   array.ChunkKey
	Chunk *array.Chunk
	Epoch uint64
	Cells int
}

// PendingLog is the per-chunk pending-delta log of the adaptive
// maintenance path: light-chunk deltas are appended here instead of being
// maintained eagerly, and materialized — replayed through the normal
// executor in original batch order — on first query touch, on conflict
// with an incoming eager batch, or by the staleness-debt drainer. It lives
// in the catalog because, like the rest of the chunk metadata, it is
// coordinator state describing where a chunk's authoritative content is
// (here: partly in the log, not yet in the array).
//
// It is safe for concurrent use.
type PendingLog struct {
	mu    sync.Mutex
	byKey map[array.ChunkKey][]PendingEntry
	seqs  map[int]int // distinct batch seqs outstanding → entry count
	cells int

	appended, materialized int64
}

// NewPendingLog returns an empty log.
func NewPendingLog() *PendingLog {
	return &PendingLog{
		byKey: make(map[array.ChunkKey][]PendingEntry),
		seqs:  make(map[int]int),
	}
}

// Append records one deferred delta chunk. The chunk is stored as given
// (callers clone if they keep mutating it).
func (l *PendingLog) Append(e PendingEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Cells = e.Chunk.NumCells()
	l.byKey[e.Key] = append(l.byKey[e.Key], e)
	l.seqs[e.Seq]++
	l.cells += e.Cells
	l.appended++
}

// Keys returns the chunk keys that currently have pending entries, in
// deterministic (sorted) order.
func (l *PendingLog) Keys() []array.ChunkKey {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := make([]array.ChunkKey, 0, len(l.byKey))
	for k := range l.byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// EntriesFor returns how many pending entries and cells the key holds.
func (l *PendingLog) EntriesFor(key array.ChunkKey) (entries, cells int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.byKey[key] {
		entries++
		cells += e.Cells
	}
	return entries, cells
}

// Take removes and returns every entry for the given keys, ordered by
// batch seq ascending (entries of one seq keep their append order). The
// caller replays them through the executor; on failure Restore puts them
// back.
func (l *PendingLog) Take(keys []array.ChunkKey) []PendingEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []PendingEntry
	for _, k := range keys {
		es, ok := l.byKey[k]
		if !ok {
			continue
		}
		out = append(out, es...)
		delete(l.byKey, k)
		for _, e := range es {
			l.cells -= e.Cells
			if l.seqs[e.Seq]--; l.seqs[e.Seq] == 0 {
				delete(l.seqs, e.Seq)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	l.materialized += int64(len(out))
	return out
}

// Restore re-inserts entries previously removed by Take (a failed
// materialization rolls its log reads back too).
func (l *PendingLog) Restore(entries []PendingEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range entries {
		l.byKey[e.Key] = append(l.byKey[e.Key], e)
		l.seqs[e.Seq]++
		l.cells += e.Cells
		l.materialized--
	}
	for k := range l.byKey {
		es := l.byKey[k]
		sort.SliceStable(es, func(i, j int) bool { return es[i].Seq < es[j].Seq })
	}
}

// Entries snapshots every outstanding entry in deterministic order (batch
// seq ascending, then key), with the chunks cloned so the caller may hold
// them across later log mutations. Used by the durability layer to persist
// the log across restarts.
func (l *PendingLog) Entries() []PendingEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []PendingEntry
	for _, es := range l.byKey {
		for _, e := range es {
			e.Chunk = e.Chunk.Clone()
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Seq != out[j].Seq {
			return out[i].Seq < out[j].Seq
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Reset replaces the log's contents with the given snapshot (recovery
// path). Counters restart from the snapshot: appended equals the entry
// count, materialized is zeroed.
func (l *PendingLog) Reset(entries []PendingEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.byKey = make(map[array.ChunkKey][]PendingEntry)
	l.seqs = make(map[int]int)
	l.cells = 0
	l.appended, l.materialized = int64(len(entries)), 0
	for _, e := range entries {
		e.Cells = e.Chunk.NumCells()
		l.byKey[e.Key] = append(l.byKey[e.Key], e)
		l.seqs[e.Seq]++
		l.cells += e.Cells
	}
	for k := range l.byKey {
		es := l.byKey[k]
		sort.SliceStable(es, func(i, j int) bool { return es[i].Seq < es[j].Seq })
	}
}

// PendingStats is a point-in-time snapshot of the log.
type PendingStats struct {
	Chunks       int
	Entries      int64
	Cells        int
	Batches      int // distinct batch seqs outstanding
	Appended     int64
	Materialized int64
}

// Stats snapshots the log counters.
func (l *PendingLog) Stats() PendingStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	var entries int64
	for _, es := range l.byKey {
		entries += int64(len(es))
	}
	return PendingStats{
		Chunks:       len(l.byKey),
		Entries:      entries,
		Cells:        l.cells,
		Batches:      len(l.seqs),
		Appended:     l.appended,
		Materialized: l.materialized,
	}
}

// Pending returns the catalog's pending-delta log, creating it on first
// use.
func (c *Catalog) Pending() *PendingLog {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending == nil {
		c.pending = NewPendingLog()
	}
	return c.pending
}
