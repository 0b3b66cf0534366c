package query

import (
	"runtime"
	"sync"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/shape"
)

// solvesPerDecision is how many placement solves one Auto decision costs
// without the memo: planViewPath prices both differential variants and
// DecideCtx prices the complete path, each a full planner run.
const solvesPerDecision = 3

// maxDecideEntries bounds the decision memo. Entries are tiny (a few shapes
// and floats), so the cap only guards against a workload that never repeats
// a shape; eviction is FIFO.
const maxDecideEntries = 256

// FastPath carries the serving-path accelerators of one engine: the
// epoch-keyed assembled-view cache, the shape-keyed decision/plan memo, the
// chunk-pair memo, and the join worker pool width. All members are safe for
// concurrent use; a nil *FastPath disables every cache and memo and leaves
// the join at its default width.
type FastPath struct {
	// Views caches decoded assembled views per (view, epoch). Nil disables
	// view caching while keeping the memos.
	Views *cluster.ViewCache
	// Counters receives hit/miss/skip accounting; nil disables counting.
	Counters *obs.FastPathCounters
	// JoinWorkers is the snapshot-join fan-out width; <= 0 means GOMAXPROCS,
	// 1 forces the serial kernel.
	JoinWorkers int

	mu sync.Mutex
	// decide memoizes per query-shape fingerprint the layout-independent
	// delta decomposition and, layout-versioned, the two plan costs.
	decide      map[string]*decideEntry
	decideOrder []string
	// pairs memoizes the snapshot join's chunk-pair enumeration per
	// (epoch, join-shape fingerprint). Two generations: inserting a pair
	// list for epoch E drops every entry older than E-1, so the memo tracks
	// the commit frontier without unbounded growth.
	pairs map[pairMemoKey][][2]array.ChunkKey
}

// NewFastPath returns a fast path with a view cache of the given budget
// (see cluster.NewViewCache) reporting into ctrs.
func NewFastPath(viewCacheBytes int64, ctrs *obs.FastPathCounters) *FastPath {
	return &FastPath{
		Views:    cluster.NewViewCache(viewCacheBytes, ctrs),
		Counters: ctrs,
	}
}

// decideEntry is one memoized decision. The delta decomposition depends
// only on the view and query shapes, so it survives forever; the plan costs
// are valid only at the catalog layout version that priced them.
type decideEntry struct {
	delta     *shape.Shape // nil: the query IS the view
	deltaCard int64

	costsValid   bool
	layout       uint64
	viewCost     float64
	completeCost float64
}

type pairMemoKey struct {
	epoch uint64
	fp    string
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

// costs returns the memoized plan costs if they were priced at the given
// layout version.
func (f *FastPath) costs(e *decideEntry, layout uint64) (viewCost, completeCost float64, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !e.costsValid || e.layout != layout {
		return 0, 0, false
	}
	return e.viewCost, e.completeCost, true
}

// setCosts records plan costs priced at the given layout version.
func (f *FastPath) setCosts(e *decideEntry, layout uint64, viewCost, completeCost float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	e.costsValid = true
	e.layout = layout
	e.viewCost = viewCost
	e.completeCost = completeCost
}

// lookupPairs returns the memoized chunk-pair list of a join shape at an
// epoch. The returned slice is shared and read-only.
func (f *FastPath) lookupPairs(epoch uint64, fp string) ([][2]array.ChunkKey, bool) {
	if f == nil {
		return nil, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ps, ok := f.pairs[pairMemoKey{epoch, fp}]
	return ps, ok
}

// storePairs records a chunk-pair list and retires entries more than one
// epoch behind it.
func (f *FastPath) storePairs(epoch uint64, fp string, ps [][2]array.ChunkKey) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pairs == nil {
		f.pairs = make(map[pairMemoKey][][2]array.ChunkKey)
	}
	f.pairs[pairMemoKey{epoch, fp}] = ps
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
