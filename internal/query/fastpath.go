package query

import (
	"encoding/binary"
	"runtime"
	"sync"

	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/shape"
)

// maxDecideEntries bounds the Δ memo against a workload that never repeats
// a shape; eviction is FIFO. An entry is one Δ shape, 8 bytes per offset
// component: about 27 KB for the 1,120-offset Δ of a PTF-5 query.
const maxDecideEntries = 256

// FastPath carries the serving-path accelerators of one engine: the
// epoch-keyed assembled-view cache, the shape-keyed Δ memo, the chunk-pair
// memo, and the join worker pool width. All members are safe for
// concurrent use; a nil *FastPath disables every cache and memo and leaves
// the join at its default width.
type FastPath struct {
	// Views caches decoded assembled views per (view, epoch). Nil disables
	// view caching while keeping the memos.
	Views *cluster.ViewCache
	// Counters receives hit/miss accounting; nil disables counting.
	Counters *obs.FastPathCounters
	// JoinWorkers is the snapshot-join fan-out width; <= 0 means GOMAXPROCS,
	// 1 forces the serial kernel.
	JoinWorkers int

	mu sync.Mutex
	// decide memoizes the Δ decomposition per query-shape fingerprint.
	decide      map[string]*decideEntry
	decideOrder []string
	// pairs memoizes the priced chunk-pair enumeration per (epoch,
	// join-shape box), so every shape with the same box shares one list.
	// Two generations: inserting a pair list for epoch E drops every entry
	// older than E-1, so the memo tracks the commit frontier without
	// unbounded growth.
	pairs map[pairMemoKey]*pairList
}

// NewFastPath returns a fast path with a view cache of the given budget
// (see cluster.NewViewCache) reporting into ctrs.
func NewFastPath(viewCacheBytes int64, ctrs *obs.FastPathCounters) *FastPath {
	return &FastPath{
		Views:    cluster.NewViewCache(viewCacheBytes, ctrs),
		Counters: ctrs,
	}
}

// decideEntry is one memoized Δ decomposition. It depends only on the view
// and query shapes, so it survives every epoch.
type decideEntry struct {
	delta     *shape.Shape // nil: the query IS the view
	deltaCard int64
}

type pairMemoKey struct {
	epoch uint64
	box   string
}

// boxKey encodes a shape's inclusive offset box, the only part of a shape
// the chunk-pair enumeration reads.
func boxKey(sh *shape.Shape) string {
	lo, hi := sh.Box()
	b := make([]byte, 0, 16*len(lo))
	for _, v := range append(lo, hi...) {
		b = binary.AppendVarint(b, v)
	}
	return string(b)
}

// workers is the snapshot-join fan-out width. Without a fast path the join
// still fans out at GOMAXPROCS: the parallel kernel is bitwise identical to
// the serial one, so width is a speed choice only.
func (f *FastPath) workers() int {
	if f != nil && f.JoinWorkers > 0 {
		return f.JoinWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// lookupDecide returns the memoized entry for a fingerprint, or nil.
func (f *FastPath) lookupDecide(fp string) *decideEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.decide[fp]
}

// storeDecide inserts an entry, evicting the oldest past the cap. A racing
// insert of the same fingerprint keeps the first entry (both are correct).
func (f *FastPath) storeDecide(fp string, e *decideEntry) *decideEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	if prev, ok := f.decide[fp]; ok {
		return prev
	}
	if f.decide == nil {
		f.decide = make(map[string]*decideEntry)
	}
	f.decide[fp] = e
	f.decideOrder = append(f.decideOrder, fp)
	for len(f.decideOrder) > maxDecideEntries {
		delete(f.decide, f.decideOrder[0])
		f.decideOrder = f.decideOrder[1:]
	}
	return e
}

// lookupPairs returns the memoized pair list of a join-shape box at an
// epoch, or nil. The list is shared and read-only.
func (f *FastPath) lookupPairs(epoch uint64, box string) *pairList {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pairs[pairMemoKey{epoch, box}]
}

// storePairs records a pair list and retires entries more than one epoch
// behind it. Epoch 0 is an unpinned live view whose chunk set can change
// under it, so nothing is stored there.
func (f *FastPath) storePairs(epoch uint64, box string, pl *pairList) {
	if epoch == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pairs == nil {
		f.pairs = make(map[pairMemoKey]*pairList)
	}
	f.pairs[pairMemoKey{epoch, box}] = pl
	for k := range f.pairs {
		if k.epoch+1 < epoch {
			delete(f.pairs, k)
		}
	}
}

// countMemo bumps the memo hit/miss counters.
func (f *FastPath) countMemo(hit bool) {
	if f == nil || f.Counters == nil {
		return
	}
	if hit {
		f.Counters.MemoHits.Add(1)
	} else {
		f.Counters.MemoMisses.Add(1)
	}
}
