// Package stream is the pipelined micro-batch maintenance path: a small
// operator graph (delta source → chunk router → transfer → similarity join →
// merge/commit sink) that propagates update batches through bounded channels
// with back-pressure, reusing the batch executor's join kernel, shadow-staging
// commit protocol, and epoch publication.
//
// The point of the pipeline is to stop paying the full
// plan/validate/transfer/join/commit cycle per batch. Batch N+1 is admitted
// into planning and Phase-1 transfers while batch N is still joining: every
// in-flight batch stages under its own scratch namespaces
// ("<base>#sdeltaSEQ", "<view>#stage-sSEQ"), so concurrent stages never
// collide, and the commit sink serializes commits — and therefore epoch
// publications — in admission order, so snapshot readers observe the same
// linear history the batch-at-a-time path produces.
//
// Safe overlap is bounded by data conflicts, tracked per batch as a write
// set (the base chunks its commit rewrites or creates):
//
//   - unit generation runs against the catalog plus the pending keys of
//     in-flight predecessors (chunks their commits will create), with stale
//     bounding boxes disabled for chunks predecessors rewrite;
//   - transfers whose source chunk a predecessor will rewrite are deferred
//     out of Phase 1 and re-issued against the live catalog after the
//     predecessor commits (the commit fence at the join stage);
//   - scratch replicas shared across batches are reference-counted in a
//     claim table, so a predecessor's cleanup never scrubs a copy a
//     successor joins against;
//   - aborts publish rollback epochs, so they are serialized in the sink
//     too; a failed batch is retried as an isolated batch-at-a-time run
//     (bounded), which also re-grounds any successor that admitted the
//     failed batch's pending chunks.
//
// Planning is amortized with a placement-reuse router: the last full solve's
// join-site and view-home assignments are reused until the batch's
// chunk-touch distribution drifts below a coverage threshold, so trickle
// workloads pay the optimizer once per drift episode instead of per batch.
package stream

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/view"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("stream: graph closed")

// stageID indexes the pipeline's stages in flow order.
type stageID int

const (
	stSource stageID = iota
	stRouter
	stTransfer
	stJoin
	stSink
	numStages
)

var stageNames = [numStages]string{"source", "router", "transfer", "join", "sink"}

// Config wires a Graph.
type Config struct {
	Cluster *cluster.Cluster
	// Def is the maintained view; streaming currently supports self-join
	// views (the PTF workload shape) under insertion batches.
	Def *view.Definition
	// Planner runs the full placement solves (drift episodes and isolated
	// retries). It must be stateless or safe for use from two goroutines;
	// the built-in planners are value types reading only the Context.
	Planner maintain.Planner
	Params  maintain.Params

	ArrayPlacement cluster.Placement
	ViewPlacement  cluster.Placement

	// Adaptive, when non-nil, connects the pipeline to the heavy-light
	// adaptive layer: the source stage feeds every batch's chunk keys into
	// its classification window, batch contexts share its join-state memo
	// (content-identical pairs skip the join kernel), and the router
	// weights heavy-chunk touches when judging placement drift — drift in
	// the hot footprint re-solves promptly while churn in the cold scatter
	// tail keeps reusing the cached solve. The streaming path itself still
	// maintains every chunk eagerly (deferral is the batch path's job);
	// this keeps the classifier warm across both paths.
	Adaptive *maintain.AdaptiveMaintainer
}

const (
	// queueDepth bounds every inter-stage channel; a full downstream queue
	// back-pressures the upstream stage (and ultimately Submit). Two lets a
	// stage finish a batch while its successor is still busy with the
	// previous one, without letting admission run far ahead of the sink.
	queueDepth = 2
	// maxRetries bounds how many isolated batch-at-a-time retries a failed
	// batch gets in the sink before its error is surfaced.
	maxRetries = 2
	// driftThreshold is the minimum chunk-touch coverage against the cached
	// placement solve below which the router re-solves.
	driftThreshold = 0.5
	// nsTag marks the graph's scratch namespaces ("<base>#sdeltaSEQ",
	// "<view>#stage-sSEQ"; see maintain.Batch.Tag).
	nsTag = "s"
)

// Result is the terminal outcome of one submitted micro-batch.
type Result struct {
	// Seq is the batch's admission sequence number (also its scratch
	// namespace suffix).
	Seq int
	// Err is nil iff the batch committed (possibly after retries).
	Err error
	// Epoch is the epoch its commit published (0 when epochs are disabled
	// or the batch failed).
	Epoch uint64
	// Reused reports whether the router reused the cached placement.
	Reused bool
	// Retries counts isolated re-executions after a pipelined failure.
	Retries int
	// Trace carries the phase spans of the attempt that settled the batch.
	Trace *obs.Trace
}

// Ticket resolves to a batch's Result once the commit sink is done with it.
type Ticket struct {
	res  Result
	done chan struct{}
}

// Wait blocks until the batch is terminal and returns its result.
func (t *Ticket) Wait() Result { <-t.done; return t.res }

// Stats is a point-in-time picture of the pipeline.
type Stats struct {
	Stages   []obs.StageSnapshot `json:"stages"`
	Router   RouterStats         `json:"router"`
	Aborts   int64               `json:"aborts"`
	Retries  int64               `json:"retries"`
	InFlight int                 `json:"in_flight"`
}

// inflight is the conflict-tracking record of one admitted, not yet terminal
// batch. writeSet and newKeys are immutable after admission; done is closed
// by the sink once the batch is terminal, which is what the commit fence
// waits on.
type inflight struct {
	writeSet map[chunkID]bool
	newKeys  []array.ChunkKey
	done     chan struct{}
}

// batch carries one micro-batch through the stages. Exactly one stage owns
// it at a time (channels hand it off), so its fields need no locking.
type batch struct {
	delta  *array.Array
	ticket *Ticket

	seq     int                // admission sequence: the first attempt's namespace number
	prep    *maintain.Prepared // nil until staged; the latest attempt's
	flight  *inflight
	fences  []*inflight
	dirty   map[chunkID]bool
	defers  []claim // transfers deferred past the commit fence, sorted
	reused  bool
	staged  *maintain.Staged
	claims  []claim
	retries int
	epoch   uint64
	err     error
}

// Graph is the running pipeline. Submit admits micro-batches; five stage
// goroutines carry them to the commit sink; Close drains.
type Graph struct {
	cl       *cluster.Cluster
	def      *view.Definition
	m        *maintain.Maintainer // the batch pipeline every stage drives
	adaptive *maintain.AdaptiveMaintainer
	router   *router
	claims   *claimTable

	chans [numStages]chan *batch
	ctrs  [numStages]obs.StageCounters
	wg    sync.WaitGroup

	closed atomic.Bool
	// submitMu serializes Submit sends against Close's channel close.
	submitMu sync.RWMutex

	mu   sync.Mutex
	live []*inflight

	aborts  obs.Counter
	retries obs.Counter
}

// NewGraph builds the graph's Maintainer (which validates the configuration)
// and starts the stage goroutines.
func NewGraph(cfg Config) (*Graph, error) {
	if cfg.Cluster == nil || cfg.Def == nil {
		return nil, errors.New("stream: nil cluster or definition")
	}
	if !cfg.Def.SelfJoin() {
		return nil, fmt.Errorf("stream: streaming maintenance of %s: %w", cfg.Def.Name, view.ErrSelfJoinOnly)
	}
	m, err := maintain.NewMaintainer(cfg.Cluster, cfg.Def, cfg.Planner, cfg.Params)
	if err != nil {
		return nil, err
	}
	m.SetPlacements(cfg.ArrayPlacement, cfg.ViewPlacement)
	g := &Graph{
		cl:       cfg.Cluster,
		def:      cfg.Def,
		m:        m,
		adaptive: cfg.Adaptive,
		router:   newRouter(m.Planner()),
		claims:   newClaimTable(cfg.Cluster),
	}
	if cfg.Adaptive != nil {
		cfg.Adaptive.ShareMemo(m)
		g.router.heavy = cfg.Adaptive.IsHeavy
	}
	for i := range g.chans {
		g.chans[i] = make(chan *batch, queueDepth)
	}
	works := [numStages]func(*batch){
		stSource:   g.sourceWork,
		stRouter:   g.routeWork,
		stTransfer: g.transferWork,
		stJoin:     g.joinWork,
		stSink:     g.sinkWork,
	}
	for id := stSource; id < numStages; id++ {
		g.wg.Add(1)
		go g.runStage(id, works[id])
	}
	return g, nil
}

// Submit admits one insertion micro-batch. The delta's cells must be
// disjoint from the base array and from every in-flight delta (the same
// precondition ApplyBatch has, extended across the pipeline window). Submit
// blocks while the source queue is full — that is the graph's back-pressure
// boundary — and returns a Ticket resolving to the batch's outcome.
func (g *Graph) Submit(delta *array.Array) (*Ticket, error) {
	if delta == nil {
		return nil, errors.New("stream: nil delta")
	}
	g.submitMu.RLock()
	defer g.submitMu.RUnlock()
	if g.closed.Load() {
		return nil, ErrClosed
	}
	b := &batch{delta: delta, ticket: &Ticket{done: make(chan struct{})}}
	g.forward(stSource, stSource, b) // a full source queue stalls the source itself
	return b.ticket, nil
}

// Close stops admission. In-flight batches keep flowing; the stage
// goroutines exit as the pipeline drains. Safe to call more than once.
func (g *Graph) Close() {
	if g.closed.Swap(true) {
		return
	}
	// The write lock waits out Submits already past the closed check, so
	// the channel close below cannot race a send.
	g.submitMu.Lock()
	close(g.chans[stSource])
	g.submitMu.Unlock()
}

// Drain closes the graph and blocks until every admitted batch is terminal.
func (g *Graph) Drain() {
	g.Close()
	g.wg.Wait()
}

// Stats snapshots the per-stage counters and router statistics.
func (g *Graph) Stats() Stats {
	st := Stats{
		Router:  g.router.stats(),
		Aborts:  g.aborts.Load(),
		Retries: g.retries.Load(),
	}
	for id := stSource; id < numStages; id++ {
		st.Stages = append(st.Stages, g.ctrs[id].Snapshot(stageNames[id]))
	}
	g.mu.Lock()
	st.InFlight = len(g.live)
	g.mu.Unlock()
	return st
}

// runStage is the shared stage loop: dequeue, account, work, hand off.
// Batches that already failed skip the remaining work and fall through to
// the sink, which owns aborts (they publish epochs and must serialize with
// commits).
func (g *Graph) runStage(id stageID, work func(*batch)) {
	defer g.wg.Done()
	c := &g.ctrs[id]
	for b := range g.chans[id] {
		c.Entered.Add(1)
		start := time.Now()
		if b.err == nil || id == stSink {
			work(b)
		}
		c.BusyNanos.Add(time.Since(start).Nanoseconds())
		c.Done.Add(1)
		if id+1 < numStages {
			g.forward(id, id+1, b)
		}
		c.Depth.Add(-1)
	}
	if id+1 < numStages {
		close(g.chans[id+1])
	}
}

// forward hands a batch to the next stage, recording a back-pressure stall
// on the sending stage when the downstream queue is full.
func (g *Graph) forward(from, to stageID, b *batch) {
	g.ctrs[to].Depth.Add(1)
	select {
	case g.chans[to] <- b:
		return
	default:
	}
	g.ctrs[from].Stalls.Add(1)
	start := time.Now()
	g.chans[to] <- b
	g.ctrs[from].StallNanos.Add(time.Since(start).Nanoseconds())
}

// sourceWork admits a batch: compute its write set, snapshot the in-flight
// predecessors, and prepare it — stage the delta, generate units against
// catalog + pending chunks, build the maintenance context — under a private
// scratch namespace.
func (g *Graph) sourceWork(b *batch) {
	alpha := g.def.Alpha.Name
	cat := g.cl.Catalog()
	writeSet := make(map[chunkID]bool)
	var newKeys []array.ChunkKey
	for _, k := range b.delta.ChunkKeys() {
		writeSet[chunkID{alpha, k}] = true
		if _, ok := cat.Home(alpha, k); !ok {
			newKeys = append(newKeys, k)
		}
	}

	g.mu.Lock()
	preds := append([]*inflight(nil), g.live...)
	b.flight = &inflight{writeSet: writeSet, newKeys: newKeys, done: make(chan struct{})}
	g.live = append(g.live, b.flight)
	g.mu.Unlock()

	// Pending = chunks a predecessor's commit will create; dirty = chunks a
	// predecessor's commit will rewrite (superset of pending). Both sets are
	// immutable snapshots — a predecessor that commits between here and our
	// join only makes them conservative.
	b.dirty = make(map[chunkID]bool)
	pendingSet := make(map[array.ChunkKey]bool)
	for _, p := range preds {
		for id := range p.writeSet {
			b.dirty[id] = true
		}
		for _, k := range p.newKeys {
			pendingSet[k] = true
		}
	}
	pending := make([]array.ChunkKey, 0, len(pendingSet))
	for k := range pendingSet {
		pending = append(pending, k)
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i] < pending[j] })

	b.prep, b.err = g.m.Prepare(maintain.Batch{
		Alpha:   b.delta,
		Tag:     nsTag,
		Pending: pending,
		Dirty: func(name string, key array.ChunkKey) bool {
			return b.dirty[chunkID{name, key}]
		},
		Keep: g.claims.keep,
	})
	if b.err != nil {
		return
	}
	b.seq = b.prep.Seq
	if g.adaptive != nil {
		g.adaptive.Observe(b.delta.ChunkKeys())
	}

	// Fence on every predecessor whose write set intersects our base reads.
	for _, p := range preds {
		if unitsTouch(b.prep.Ctx, p.writeSet) {
			b.fences = append(b.fences, p)
		}
	}
}

// unitsTouch reports whether any unit's base-side input is in the write set.
func unitsTouch(ctx *maintain.Context, ws map[chunkID]bool) bool {
	for _, u := range ctx.Units {
		for _, ref := range [2]view.ChunkRef{u.P, u.Q} {
			if !ctx.IsDelta(ref) && ws[chunkID{ref.Array, ref.Key}] {
				return true
			}
		}
	}
	return false
}

// routeWork plans the batch (reuse or solve), splits off the transfers that
// must wait for the commit fence, claims the scratch replicas its joins
// read, and opens the staged execution (validate + charge).
func (g *Graph) routeWork(b *batch) {
	ctx := b.prep.Ctx
	plan, reused, err := g.router.plan(ctx, len(b.fences) > 0)
	if err != nil {
		b.err = err
		return
	}
	b.reused = reused
	b.claims = claimsFor(ctx, plan)
	// Every dirty chunk a join reads waits for the commit fence — also one
	// that needs no ship because it is homed at its join site today: the
	// predecessor's commit may rehome it, leaving the site a stale copy.
	for _, c := range b.claims {
		if b.dirty[chunkID{c.ref.Array, c.ref.Key}] {
			b.defers = append(b.defers, c)
		}
	}
	g.claims.acquire(b.claims)
	b.staged, err = maintain.BeginStaged(ctx, plan)
	if err != nil {
		b.err = err
	}
}

// transferWork runs Phase-1 replication, skipping the deferred ships.
func (g *Graph) transferWork(b *batch) {
	var skip func(ref view.ChunkRef, to int) bool
	if len(b.defers) > 0 {
		deferred := make(map[claim]bool, len(b.defers))
		for _, d := range b.defers {
			deferred[d] = true
		}
		skip = func(ref view.ChunkRef, to int) bool {
			return deferred[claim{ref: ref, node: to}]
		}
	}
	b.err = b.staged.RunTransfers(skip)
}

// joinWork waits out the commit fence, re-issues the deferred transfers
// against the live catalog (their sources now hold the predecessors'
// committed content), and runs the join stage.
func (g *Graph) joinWork(b *batch) {
	for _, f := range b.fences {
		<-f.done
	}
	if len(b.defers) > 0 {
		stop := b.prep.Ctx.Trace.Start(obs.PhaseTransfer)
		err := g.catchUpTransfers(b)
		stop()
		if err != nil {
			b.err = err
			return
		}
	}
	b.err = b.staged.RunJoins()
}

// catchUpTransfers ships the deferred chunks from their post-commit homes.
// A chunk with no home means the predecessor that was going to create it
// aborted; the error sends the batch to the sink's isolated retry, which
// regenerates units against the real catalog.
func (g *Graph) catchUpTransfers(b *batch) error {
	cat := g.cl.Catalog()
	for _, d := range b.defers {
		home, ok := cat.Home(d.ref.Array, d.ref.Key)
		if !ok {
			return fmt.Errorf("stream: deferred source %s missing after commit fence (predecessor aborted)", d.ref)
		}
		if home == d.node {
			continue
		}
		if err := g.cl.Transfer(nil, d.ref.Array, d.ref.Key, home, d.node); err != nil {
			if cluster.IsNodeDown(err) {
				continue // the join stage re-plans around dead nodes
			}
			return err
		}
	}
	return nil
}

// sinkWork is the merge/commit sink: the only stage that commits, aborts, or
// publishes epochs — and therefore the only one that writes durable
// barriers — in admission order. A batch that is terminal without a retiring
// barrier (every attempt failed) still consumes its slot of the input feed;
// the skip barrier is best-effort (see maintain.RetireSkipped).
func (g *Graph) sinkWork(b *batch) {
	_ = maintain.RetireSkipped(g.cl, func() { g.settle(b) })
	g.finish(b)
}

// settle commits the batch, or rolls it back and retries it as isolated
// batch-at-a-time runs with a bounded budget.
func (g *Graph) settle(b *batch) {
	if b.err == nil && b.staged != nil {
		b.staged.CaptureSnapshots()
		if err := b.staged.Commit(); err != nil {
			b.err = err
		} else {
			b.epoch = g.cl.Epochs().Publish()
			g.m.History().Record(b.prep.Ctx)
			b.staged.Cleanup()
		}
	}
	if b.err == nil {
		return
	}
	g.aborts.Add(1)
	if b.staged != nil {
		_ = b.staged.Abort(b.err)
	} else if b.prep != nil {
		// Died between Prepare and BeginStaged: only the staged delta
		// namespace exists.
		g.m.Discard(b.prep)
	}
	for b.err != nil && b.retries < maxRetries {
		b.retries++
		g.retries.Add(1)
		b.err = g.runIsolated(b)
	}
}

// runIsolated re-executes a failed batch start-to-finish on the sink
// goroutine: every predecessor is terminal (the sink is serial), so units
// regenerate against the real catalog with no pending chunks, and the
// configured planner solves fresh. Successor claims are still honored during
// cleanup — successors may be mid-join concurrently.
func (g *Graph) runIsolated(b *batch) error {
	prep, err := g.m.Prepare(maintain.Batch{Alpha: b.delta, Tag: nsTag, Keep: g.claims.keep})
	if err != nil {
		return err
	}
	b.prep = prep
	plan, err := g.m.Plan(prep)
	if err != nil {
		return err
	}
	rep, err := g.m.Run(prep, plan)
	if err != nil {
		return err
	}
	b.epoch = rep.Epoch
	return nil
}

// finish releases the batch's claims, retires its in-flight record (waking
// fenced successors), and resolves its ticket.
func (g *Graph) finish(b *batch) {
	if b.claims != nil {
		g.claims.release(b.claims)
	}
	if b.flight != nil {
		g.mu.Lock()
		for i, f := range g.live {
			if f == b.flight {
				g.live = append(g.live[:i], g.live[i+1:]...)
				break
			}
		}
		g.mu.Unlock()
		close(b.flight.done)
	}
	b.ticket.res = Result{Seq: b.seq, Err: b.err, Epoch: b.epoch, Reused: b.reused, Retries: b.retries}
	if b.prep != nil {
		b.ticket.res.Trace = b.prep.Ctx.Trace
	}
	close(b.ticket.done)
}
