package cluster

import (
	"fmt"
	"sort"
	"sync"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/obs"
)

// DefaultViewCacheBytes is the serve daemon's default assembled-view cache
// budget. A cached view is the fully decoded merge of every view chunk, so
// the budget is measured in decoded cell bytes, not encodings.
const DefaultViewCacheBytes = 256 << 20

// viewKey identifies one cached assembled view. The epoch is part of the
// key, so an entry can never be served to a reader pinned at a different
// epoch: invalidation is purely memory reclaim, never a correctness event.
type viewKey struct {
	name  string
	epoch uint64
}

// viewEntry is one cached assembled view. The builder publishes arr/err and
// closes ready exactly once; afterwards arr is warmed and never mutated, so
// any number of concurrent readers may share it (via Array.ShallowClone for
// paths that need to overlay writes). Entries of consecutive epochs share
// every chunk the commit between them did not write.
type viewEntry struct {
	key   viewKey
	ready chan struct{}
	arr   *array.Array
	bytes int64
	err   error

	// pins counts readers currently holding the entry (including waiters
	// blocked on ready, and a builder patching from it). stale marks the
	// entry for removal once pins drains to zero — set when an epoch
	// publish, or the build of its successor, outruns a long-running
	// reader.
	pins  int
	stale bool
}

// ViewCache caches decoded, merged view arrays keyed by (view, epoch). The
// gather-decode-merge work of assembling a view from its chunks is the
// dominant per-answer cost once plans are memoized; the cache pays it once
// per epoch and shares the warmed result across all concurrent answers at
// that epoch. Lookups singleflight: the first reader of a (view, epoch)
// builds while later readers block on the entry, so a burst of identical
// queries triggers one gather.
//
// The cache is maintained incrementally across commits. An epoch publish
// keeps each view's entry at the epoch just before it as a patch base, and
// the first reader at the new epoch builds its entry from that base: it
// shares every chunk outside the epoch's write set (Snapshot.Written),
// re-reads only the written or new ones, and then drops the base. Without
// a base — the first epoch, or two publishes with no read between — the
// reader builds from an empty array, so it reads every chunk.
//
// Entries are refcounted. Capacity eviction and epoch invalidation only
// drop unpinned entries; a pinned entry marked stale is reclaimed by its
// last Release. A nil *ViewCache is valid and falls through to an uncached
// gather.
type ViewCache struct {
	maxBytes int64
	ctrs     *obs.FastPathCounters

	mu      sync.Mutex
	entries map[viewKey]*viewEntry
	bytes   int64
}

// NewViewCache returns a cache bounded to maxBytes of decoded view data
// (DefaultViewCacheBytes if <= 0). ctrs may be nil.
func NewViewCache(maxBytes int64, ctrs *obs.FastPathCounters) *ViewCache {
	if maxBytes <= 0 {
		maxBytes = DefaultViewCacheBytes
	}
	return &ViewCache{
		maxBytes: maxBytes,
		ctrs:     ctrs,
		entries:  make(map[viewKey]*viewEntry),
	}
}

// Bytes returns the decoded bytes currently cached.
func (vc *ViewCache) Bytes() int64 {
	if vc == nil {
		return 0
	}
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.bytes
}

// Acquire returns the assembled view of the named array as of the
// snapshot's epoch, plus a release func the caller must invoke when done
// reading. The returned array is shared and warmed: callers must not mutate
// it — overlay writes through array.ShallowClone instead. On a nil cache
// the view is gathered fresh (caller-owned, release is a no-op).
func (vc *ViewCache) Acquire(name string, snap *Snapshot, rc *ReadCache) (*array.Array, func(), error) {
	if vc == nil {
		arr, err := snap.GatherCached(name, rc)
		return arr, func() {}, err
	}
	k := viewKey{name: name, epoch: snap.Epoch()}
	vc.mu.Lock()
	if e, ok := vc.entries[k]; ok {
		e.pins++
		vc.mu.Unlock()
		<-e.ready
		if e.err != nil {
			// The builder already removed the failed entry; dropping our
			// pin needs no map or byte accounting.
			vc.mu.Lock()
			e.pins--
			vc.mu.Unlock()
			return nil, nil, e.err
		}
		if vc.ctrs != nil {
			vc.ctrs.ViewHits.Add(1)
		}
		return e.arr, func() { vc.release(e) }, nil
	}
	e := &viewEntry{key: k, ready: make(chan struct{}), pins: 1}
	vc.entries[k] = e
	base := vc.baseLocked(k, snap)
	vc.mu.Unlock()
	if vc.ctrs != nil {
		vc.ctrs.ViewMisses.Add(1)
	}

	arr, patched, err := vc.build(name, snap, rc, base)
	vc.mu.Lock()
	if err != nil {
		e.err = err
		delete(vc.entries, k)
	} else {
		e.arr = arr
		e.bytes = decodedArrayBytes(arr)
		vc.bytes += e.bytes
	}
	if base != nil {
		// A base patched from has served its one purpose: only readers
		// still pinned at its epoch keep it. Unpinning it before the budget
		// check makes it the first entry capacity eviction may take.
		base.pins--
		base.stale = base.stale || patched
	}
	vc.evictLocked()
	if base != nil {
		vc.reclaimLocked(base)
	}
	vc.storeBytesLocked()
	close(e.ready)
	vc.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	return arr, func() { vc.release(e) }, nil
}

// baseLocked returns, pinned, the entry a build of k can patch from: the
// same view's entry at epoch k.epoch-1, when the snapshot knows the write
// set between the two epochs. An epoch-0 live view has no write set, and
// epoch 1 none relative to epoch 0. Caller holds vc.mu.
func (vc *ViewCache) baseLocked(k viewKey, snap *Snapshot) *viewEntry {
	if _, ok := snap.Written(k.name); !ok {
		return nil
	}
	base, ok := vc.entries[viewKey{name: k.name, epoch: k.epoch - 1}]
	if !ok {
		return nil
	}
	base.pins++
	return base
}

// build assembles the view at the snapshot's epoch, warmed: patched from
// base when base (pinned by the caller) is non-nil and built without error,
// else from an empty array, which reads every chunk. patched reports the
// former.
func (vc *ViewCache) build(name string, snap *Snapshot, rc *ReadCache, base *viewEntry) (arr *array.Array, patched bool, err error) {
	sch := snap.Schema(name)
	if sch == nil {
		return nil, false, fmt.Errorf("cluster: array %q not in snapshot %d", name, snap.Epoch())
	}
	prev := array.New(sch)
	if base != nil {
		<-base.ready
		if base.err == nil {
			prev, patched = base.arr, true
		}
	}
	arr, err = patchView(name, snap, rc, prev)
	if err != nil {
		return nil, false, err
	}
	if patched && vc.ctrs != nil {
		vc.ctrs.ViewPatches.Add(1)
	}
	return arr, patched, nil
}

// patchView builds the view at the snapshot's epoch from prev, the warmed
// view at epoch-1 (or an empty array, for a full build). A chunk outside
// the epoch's write set has the same content at both epochs, so prev's
// chunk is shared as is; written chunks and chunks prev lacks are re-read
// and warmed, and keys absent at this epoch are left out. With nothing
// written and the same chunk count the view is prev itself. Chunks are read
// in key order, the order answers walk them in, so a full build lays them
// out in memory as they are later read.
func patchView(name string, snap *Snapshot, rc *ReadCache, prev *array.Array) (*array.Array, error) {
	written, _ := snap.Written(name)
	if len(written) == 0 && len(snap.metas[name].Home) == prev.NumChunks() {
		return prev, nil
	}
	out := array.New(snap.Schema(name))
	for _, key := range snap.Keys(name) {
		if _, w := written[key]; !w {
			if ch := prev.ChunkByKey(key); ch != nil {
				out.PutChunk(ch)
				continue
			}
		}
		enc, hash, err := snap.cachedEncoding(name, key, rc)
		if err != nil {
			return nil, err
		}
		// Build every lazy per-chunk cache now, while the chunk is still
		// private: once the entry is ready it serves concurrent readers
		// and must never be written again. The bytes just read become
		// the chunk's kept encoding, which answers ship as they are.
		ch, err := array.DecodeWarm(enc, hash)
		if err != nil {
			return nil, err
		}
		out.PutChunk(ch)
	}
	// The key order too is built here, not lazily under readers.
	out.IndexKeys()
	return out, nil
}

// release drops one pin and reclaims the entry if it went stale while
// pinned.
func (vc *ViewCache) release(e *viewEntry) {
	vc.mu.Lock()
	e.pins--
	vc.reclaimLocked(e)
	vc.mu.Unlock()
}

// reclaimLocked drops a stale entry once nothing pins it. The entry leaves
// the map, and is counted as invalidated, exactly once: whichever of the
// epoch publish, the successor's build or the last release finds it
// unpinned removes it, and an entry already evicted for capacity is not in
// the map.
func (vc *ViewCache) reclaimLocked(e *viewEntry) {
	if e.pins > 0 || !e.stale {
		return
	}
	if cur, ok := vc.entries[e.key]; !ok || cur != e {
		return
	}
	delete(vc.entries, e.key)
	vc.bytes -= e.bytes
	if vc.ctrs != nil {
		vc.ctrs.ViewInvalidations.Add(1)
	}
	vc.storeBytesLocked()
}

// InvalidateBefore drops every cached view whose epoch is older than epoch,
// except each view's entry at epoch-1: that one stays as the patch base of
// the first build at epoch (see Acquire) and goes when that build is done,
// or at the next publish if no reader came. Pinned entries are marked stale
// and reclaimed by their last Release, so a reader mid-answer keeps its
// (still-correct, epoch-keyed) view while new readers at the fresh epoch
// build. Wired to Epochs.OnPublish by the serve daemon.
func (vc *ViewCache) InvalidateBefore(epoch uint64) {
	if vc == nil {
		return
	}
	vc.mu.Lock()
	for k, e := range vc.entries {
		if k.epoch >= epoch || (k.epoch > 0 && k.epoch+1 == epoch) {
			continue
		}
		e.stale = true
		vc.reclaimLocked(e)
	}
	vc.mu.Unlock()
}

// evictLocked enforces the byte budget: unpinned entries go first, oldest
// epoch first, so the entries most likely to be invalidated next are the
// ones sacrificed.
func (vc *ViewCache) evictLocked() {
	if vc.bytes <= vc.maxBytes {
		return
	}
	cands := make([]*viewEntry, 0, len(vc.entries))
	for _, e := range vc.entries {
		if e.pins == 0 {
			cands = append(cands, e)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].key.epoch != cands[j].key.epoch {
			return cands[i].key.epoch < cands[j].key.epoch
		}
		return cands[i].key.name < cands[j].key.name
	})
	for _, e := range cands {
		if vc.bytes <= vc.maxBytes {
			return
		}
		delete(vc.entries, e.key)
		vc.bytes -= e.bytes
		if vc.ctrs != nil {
			vc.ctrs.ViewEvictions.Add(1)
		}
	}
}

func (vc *ViewCache) storeBytesLocked() {
	if vc.ctrs != nil {
		vc.ctrs.ViewBytes.Store(vc.bytes)
	}
}

// decodedArrayBytes sums the in-memory cell payload of every chunk.
func decodedArrayBytes(a *array.Array) int64 {
	var n int64
	a.EachChunk(func(c *array.Chunk) bool {
		n += c.SizeBytes()
		return true
	})
	return n
}
