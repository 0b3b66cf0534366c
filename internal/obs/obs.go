// Package obs is the observability substrate of the maintenance pipeline:
// per-batch phase spans and atomic counters. It is deliberately pull-based
// and allocation-light — recording a span is two time.Now calls and an
// atomic add, so instrumentation never perturbs the numbers it reports.
//
// A Trace accumulates time per named phase plus per-node busy time. Every
// phase records two quantities with distinct semantics:
//
//   - busy seconds (PhaseTiming.Seconds): the sum of all span durations.
//     With concurrent spans of the same phase — pipelined batches running
//     their transfer stages at once, or per-node join tasks — busy time
//     exceeds wall-clock; it measures work, not elapsed time.
//   - wall seconds (PhaseTiming.WallSeconds): the union wall-clock, i.e.
//     elapsed time during which at least one span of the phase was open.
//     Overlapping spans never double-book it.
//
// For strictly sequential phases the two coincide. MaxConcurrent reports
// the peak number of simultaneously open spans, so renderers can tell which
// reading to present.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical phase names of one maintained batch, in pipeline order.
const (
	PhaseValidate = "validate" // plan validation + ledger charge
	PhaseSnapshot = "snapshot" // catalog rollback-baseline capture
	PhaseTransfer = "transfer" // chunk replication per the plan
	PhaseJoin     = "join"     // per-node chunk-pair joins (wall-clock)
	PhaseMerge    = "merge"    // folding partials into staging (busy)
	PhaseCommit   = "commit"   // idempotent apply of staged mutations
	PhaseCleanup  = "cleanup"  // staging + scratch replica teardown
)

// Counter is an atomic cumulative counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Store overwrites the counter — for gauge-style values (current heavy
// chunk count, pending log depth) that are re-published rather than
// accumulated.
func (c *Counter) Store(n int64) { c.v.Store(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// CacheCounters is the hit/miss/bytes accounting of one read cache. All
// fields are atomic, so a cache may update them from any number of
// concurrent readers without coordination.
type CacheCounters struct {
	Hits          Counter
	Misses        Counter
	BytesServed   Counter // payload bytes answered from cache
	BytesInserted Counter // payload bytes admitted into cache
	Evictions     Counter
}

// CacheSnapshot is a point-in-time copy of a cache's counters.
type CacheSnapshot struct {
	Hits          int64
	Misses        int64
	BytesServed   int64
	BytesInserted int64
	Evictions     int64
}

// Snapshot copies the counters.
func (c *CacheCounters) Snapshot() CacheSnapshot {
	return CacheSnapshot{
		Hits:          c.Hits.Load(),
		Misses:        c.Misses.Load(),
		BytesServed:   c.BytesServed.Load(),
		BytesInserted: c.BytesInserted.Load(),
		Evictions:     c.Evictions.Load(),
	}
}

// AdaptiveCounters is the observability surface of the heavy-light
// adaptive maintenance layer. Heavy/Light/PendingChunks/PendingCells are
// gauges (Store); the rest accumulate (Add).
type AdaptiveCounters struct {
	HeavyChunks   Counter // gauge: classes currently classified heavy
	LightChunks   Counter // gauge: classes seen but currently light
	PendingChunks Counter // gauge: chunks with deferred deltas outstanding
	PendingCells  Counter // gauge: cells deferred and not yet materialized
	Deferred      Counter // delta chunks routed to the pending log
	LazyMats      Counter // pending entries materialized on query touch
	Drained       Counter // pending entries materialized by drainer/conflict
	Promotions    Counter // light→heavy transitions (scores + pressure)
	Demotions     Counter // heavy→light transitions
	MemoHits      Counter // cached-join-state hits
	MemoMisses    Counter // cached-join-state misses
}

// AdaptiveSnapshot is a point-in-time copy of AdaptiveCounters.
type AdaptiveSnapshot struct {
	HeavyChunks   int64
	LightChunks   int64
	PendingChunks int64
	PendingCells  int64
	Deferred      int64
	LazyMats      int64
	Drained       int64
	Promotions    int64
	Demotions     int64
	MemoHits      int64
	MemoMisses    int64
}

// Snapshot copies the current values.
func (a *AdaptiveCounters) Snapshot() AdaptiveSnapshot {
	if a == nil {
		return AdaptiveSnapshot{}
	}
	return AdaptiveSnapshot{
		HeavyChunks:   a.HeavyChunks.Load(),
		LightChunks:   a.LightChunks.Load(),
		PendingChunks: a.PendingChunks.Load(),
		PendingCells:  a.PendingCells.Load(),
		Deferred:      a.Deferred.Load(),
		LazyMats:      a.LazyMats.Load(),
		Drained:       a.Drained.Load(),
		Promotions:    a.Promotions.Load(),
		Demotions:     a.Demotions.Load(),
		MemoHits:      a.MemoHits.Load(),
		MemoMisses:    a.MemoMisses.Load(),
	}
}

// DurableCounters is the observability surface of the WAL-backed durable
// chunk store: barrier, checkpoint, and byte accounting. All fields
// accumulate (Add).
type DurableCounters struct {
	Commits     Counter // commit barriers written (one per committed batch)
	Rollbacks   Counter // rollback barriers written (one per aborted batch)
	Checkpoints Counter // checkpoint compactions into a fresh generation
	WALBytes    Counter // bytes appended to journal + meta WALs
	SegBytes    Counter // chunk-body bytes appended to segment files
	Syncs       Counter // fsync calls issued (segments, WALs, directories)
}

// DurableSnapshot is a point-in-time copy of DurableCounters.
type DurableSnapshot struct {
	Commits     int64
	Rollbacks   int64
	Checkpoints int64
	WALBytes    int64
	SegBytes    int64
	Syncs       int64
}

// Snapshot copies the current values. Nil-safe: a nil receiver (durability
// disabled) snapshots to zeros.
func (d *DurableCounters) Snapshot() DurableSnapshot {
	if d == nil {
		return DurableSnapshot{}
	}
	return DurableSnapshot{
		Commits:     d.Commits.Load(),
		Rollbacks:   d.Rollbacks.Load(),
		Checkpoints: d.Checkpoints.Load(),
		WALBytes:    d.WALBytes.Load(),
		SegBytes:    d.SegBytes.Load(),
		Syncs:       d.Syncs.Load(),
	}
}

// FastPathCounters is the observability surface of the query answer fast
// path: the epoch-keyed assembled-view cache and the Δ-shape and chunk-pair
// memos. ViewBytes is a gauge (Store); the rest accumulate (Add).
type FastPathCounters struct {
	ViewHits          Counter // answers served from a cached assembled view
	ViewMisses        Counter // answers that had to gather + decode the view
	ViewPatches       Counter // misses built from the previous epoch's view
	ViewBytes         Counter // gauge: bytes currently pinned by cached views
	ViewEvictions     Counter // cached views dropped for capacity
	ViewInvalidations Counter // cached views dropped for age (publish or successor build)
	MemoHits          Counter // Δ-shape and chunk-pair memo hits
	MemoMisses        Counter // Δ-shape and chunk-pair memo misses
}

// FastPathSnapshot is a point-in-time copy of FastPathCounters.
type FastPathSnapshot struct {
	ViewHits          int64
	ViewMisses        int64
	ViewPatches       int64
	ViewBytes         int64
	ViewEvictions     int64
	ViewInvalidations int64
	MemoHits          int64
	MemoMisses        int64
	// SolveSkips is always 0: a query decision runs no placement solve to
	// skip. The benchmark still reads it; it goes when ROADMAP item 1
	// re-bases the benchmark.
	SolveSkips int64
}

// Snapshot copies the current values. Nil-safe: a nil receiver (fast path
// disabled) snapshots to zeros.
func (f *FastPathCounters) Snapshot() FastPathSnapshot {
	if f == nil {
		return FastPathSnapshot{}
	}
	return FastPathSnapshot{
		ViewHits:          f.ViewHits.Load(),
		ViewMisses:        f.ViewMisses.Load(),
		ViewPatches:       f.ViewPatches.Load(),
		ViewBytes:         f.ViewBytes.Load(),
		ViewEvictions:     f.ViewEvictions.Load(),
		ViewInvalidations: f.ViewInvalidations.Load(),
		MemoHits:          f.MemoHits.Load(),
		MemoMisses:        f.MemoMisses.Load(),
	}
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s CacheSnapshot) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// PhaseTiming is the snapshot of one phase of a trace.
type PhaseTiming struct {
	Name string
	// Seconds is busy time: the sum of span durations. Concurrent spans of
	// the same phase each contribute fully, so this can exceed WallSeconds.
	Seconds float64
	// WallSeconds is the union wall-clock: elapsed time with at least one
	// span of the phase open. Zero for durations folded in via Add (no span
	// boundaries to union).
	WallSeconds float64
	// MaxConcurrent is the peak number of simultaneously open spans (0 when
	// the phase only ever received Add'ed durations).
	MaxConcurrent int64
	// Count is how many spans contributed to the phase.
	Count int64
}

// NodeTiming is the snapshot of one node's accumulated task time.
type NodeTiming struct {
	Node    int
	Seconds float64
	Tasks   int64
}

// phase accumulates one named phase; nanos and count are written by
// concurrent tasks, so they are atomic. The wall-clock union is maintained
// under mu: a span opening while none are active notes the start instant,
// and the last span to close adds the elapsed stretch to wallNanos. Spans
// are per-stage events (a handful per batch), so the mutex is not a hot
// path.
type phase struct {
	name  string
	nanos atomic.Int64
	count atomic.Int64

	mu           sync.Mutex
	active       int64     // currently open spans
	maxActive    int64     // peak of active
	stretchStart time.Time // when active went 0 → 1
	wallNanos    int64     // closed stretches of ≥1-active time
}

// Trace collects the phase breakdown of one maintained batch. Methods are
// safe for concurrent use and are no-ops on a nil receiver, so untraced
// call paths pay nothing.
type Trace struct {
	mu     sync.Mutex
	order  []*phase
	phases map[string]*phase
	nodes  map[int]*phase
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{phases: make(map[string]*phase), nodes: make(map[int]*phase)}
}

// lookup returns the named phase, registering it on first use.
func (t *Trace) lookup(name string) *phase {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.phases[name]
	if !ok {
		p = &phase{name: name}
		t.phases[name] = p
		t.order = append(t.order, p)
	}
	return p
}

// Start opens a span of the named phase and returns its stop function.
// Concurrent spans of the same phase are safe: busy time accumulates per
// span while the wall-clock union advances only while the phase goes from
// idle to active and back.
func (t *Trace) Start(name string) func() {
	if t == nil {
		return func() {}
	}
	p := t.lookup(name)
	begin := time.Now()
	p.open(begin)
	var once sync.Once
	return func() {
		once.Do(func() {
			end := time.Now()
			p.nanos.Add(int64(end.Sub(begin)))
			p.count.Add(1)
			p.close(end)
		})
	}
}

// open records a span opening at the given instant.
func (p *phase) open(now time.Time) {
	p.mu.Lock()
	p.active++
	if p.active > p.maxActive {
		p.maxActive = p.active
	}
	if p.active == 1 {
		p.stretchStart = now
	}
	p.mu.Unlock()
}

// close records a span closing at the given instant.
func (p *phase) close(now time.Time) {
	p.mu.Lock()
	p.active--
	if p.active == 0 {
		p.wallNanos += int64(now.Sub(p.stretchStart))
	}
	p.mu.Unlock()
}

// wallSnapshot returns the union wall-clock including any still-open
// stretch, plus the peak concurrency.
func (p *phase) wallSnapshot() (wallNanos, maxActive int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := p.wallNanos
	if p.active > 0 {
		w += int64(time.Since(p.stretchStart))
	}
	return w, p.maxActive
}

// Add folds an already-measured duration into the named phase.
func (t *Trace) Add(name string, d time.Duration) {
	if t == nil {
		return
	}
	p := t.lookup(name)
	p.nanos.Add(int64(d))
	p.count.Add(1)
}

// AddNode folds one task's duration into a node's busy time.
func (t *Trace) AddNode(node int, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	p, ok := t.nodes[node]
	if !ok {
		p = &phase{}
		t.nodes[node] = p
	}
	t.mu.Unlock()
	p.nanos.Add(int64(d))
	p.count.Add(1)
}

// Phases snapshots every recorded phase in first-start order.
func (t *Trace) Phases() []PhaseTiming {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	order := append([]*phase(nil), t.order...)
	t.mu.Unlock()
	out := make([]PhaseTiming, 0, len(order))
	for _, p := range order {
		wall, maxAct := p.wallSnapshot()
		out = append(out, PhaseTiming{
			Name:          p.name,
			Seconds:       time.Duration(p.nanos.Load()).Seconds(),
			WallSeconds:   time.Duration(wall).Seconds(),
			MaxConcurrent: maxAct,
			Count:         p.count.Load(),
		})
	}
	return out
}

// PhaseSeconds returns the accumulated seconds of one phase (0 if never
// recorded).
func (t *Trace) PhaseSeconds(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	p, ok := t.phases[name]
	t.mu.Unlock()
	if !ok {
		return 0
	}
	return time.Duration(p.nanos.Load()).Seconds()
}

// Nodes snapshots per-node busy time, sorted by node ID.
func (t *Trace) Nodes() []NodeTiming {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	ids := make([]int, 0, len(t.nodes))
	for id := range t.nodes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]NodeTiming, 0, len(ids))
	for _, id := range ids {
		p := t.nodes[id]
		out = append(out, NodeTiming{
			Node:    id,
			Seconds: time.Duration(p.nanos.Load()).Seconds(),
			Tasks:   p.count.Load(),
		})
	}
	t.mu.Unlock()
	return out
}

// String renders a one-line span summary ("validate 12µs · join 3.1ms …").
// Phases that ran concurrent spans show busy and wall time separately, e.g.
// "transfer 8ms (wall 3ms ×4)".
func (t *Trace) String() string {
	if t == nil {
		return ""
	}
	round := func(s float64) time.Duration {
		return time.Duration(s * float64(time.Second)).Round(time.Microsecond)
	}
	var b strings.Builder
	for i, p := range t.Phases() {
		if i > 0 {
			b.WriteString(" · ")
		}
		fmt.Fprintf(&b, "%s %s", p.Name, round(p.Seconds))
		if p.MaxConcurrent > 1 {
			fmt.Fprintf(&b, " (wall %s ×%d)", round(p.WallSeconds), p.MaxConcurrent)
		}
	}
	return b.String()
}

// StageCounters is the live instrumentation of one pipeline stage of a
// streaming operator graph: queue depth, throughput, and back-pressure
// stalls. All fields are atomic; a stage updates them from its own
// goroutine while observers snapshot concurrently.
type StageCounters struct {
	// Entered / Done count batches that arrived at / left the stage.
	Entered Counter
	Done    Counter
	// Depth is the number of batches currently queued at or inside the
	// stage (Entered − Done of the downstream edge, maintained explicitly
	// so it reads as a gauge).
	Depth Counter
	// Stalls counts back-pressure events: submissions or hand-offs that had
	// to wait because the downstream bounded channel was full. StallNanos
	// accumulates the time spent waiting.
	Stalls     Counter
	StallNanos Counter
	// BusyNanos accumulates time the stage spent processing batches.
	BusyNanos Counter
}

// StageSnapshot is a point-in-time copy of one stage's counters.
type StageSnapshot struct {
	Name         string
	Entered      int64
	Done         int64
	Depth        int64
	Stalls       int64
	StallSeconds float64
	BusySeconds  float64
}

// Snapshot copies the counters under the given stage name.
func (s *StageCounters) Snapshot(name string) StageSnapshot {
	return StageSnapshot{
		Name:         name,
		Entered:      s.Entered.Load(),
		Done:         s.Done.Load(),
		Depth:        s.Depth.Load(),
		Stalls:       s.Stalls.Load(),
		StallSeconds: time.Duration(s.StallNanos.Load()).Seconds(),
		BusySeconds:  time.Duration(s.BusyNanos.Load()).Seconds(),
	}
}
