package stream

import (
	"sync"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/view"
)

// claim identifies one scratch replica — a chunk copy at a node — that an
// in-flight batch's joins rely on.
type claim struct {
	ref  view.ChunkRef
	node int
}

// claimTable reference-counts the scratch replicas in-flight batches depend
// on, so a predecessor's cleanup never scrubs a copy a successor is about to
// join against. Cross-batch reuse is real: Cluster.Transfer dedups against
// resident replicas, so a successor's "ship" of a chunk a predecessor
// already moved is a no-op that physically relies on the predecessor's copy.
//
// The table also owns the deferred scrubs: when a cleanup skips a claimed
// replica, responsibility for removing it transfers here, and the scrub runs
// once the last claim is released (unless the replica became the chunk's
// home in the meantime).
type claimTable struct {
	cl *cluster.Cluster

	mu       sync.Mutex
	refs     map[claim]int
	deferred map[claim]bool
}

func newClaimTable(cl *cluster.Cluster) *claimTable {
	return &claimTable{
		cl:       cl,
		refs:     make(map[claim]int),
		deferred: make(map[claim]bool),
	}
}

// acquire registers every claim in the set.
func (t *claimTable) acquire(set []claim) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range set {
		t.refs[c]++
	}
}

// keep is the batches' maintain.Batch.Keep predicate: a replica with a live claim
// survives the batch's cleanup, and the skipped scrub is recorded for
// release to finish later.
func (t *claimTable) keep(ref view.ChunkRef, node int) bool {
	c := claim{ref, node}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.refs[c] > 0 {
		t.deferred[c] = true
		return true
	}
	return false
}

// release drops the batch's claims and scrubs every deferred replica whose
// last claim just went away. Scrubbing is cleanup-grade: best-effort, errors
// swallowed, and a replica that became its chunk's home is left alone.
func (t *claimTable) release(set []claim) {
	t.mu.Lock()
	var scrubs []claim
	for _, c := range set {
		if n := t.refs[c]; n <= 1 {
			delete(t.refs, c)
			if t.deferred[c] {
				delete(t.deferred, c)
				scrubs = append(scrubs, c)
			}
		} else {
			t.refs[c] = n - 1
		}
	}
	t.mu.Unlock()
	cat := t.cl.Catalog()
	for _, c := range scrubs {
		if home, ok := cat.Home(c.ref.Array, c.ref.Key); ok && home == c.node {
			continue
		}
		_, _ = t.cl.DeleteAt(c.node, c.ref.Array, c.ref.Key)
		cat.RemoveReplica(c.ref.Array, c.ref.Key, c.node)
	}
}

// claimsFor lists the distinct base-side residencies a plan's joins read:
// for every unit, each non-delta input chunk at the unit's join site. Delta
// chunks live in the batch's private namespace and need no protection.
func claimsFor(ctx *maintain.Context, plan *maintain.Plan) []claim {
	seen := make(map[claim]bool)
	var out []claim
	add := func(ref view.ChunkRef, node int) {
		if ctx.IsDelta(ref) {
			return
		}
		c := claim{ref, node}
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for i, u := range ctx.Units {
		site := plan.JoinSite[i]
		add(u.P, site)
		add(u.Q, site)
	}
	return out
}

// chunkID names one catalog chunk; the unit of write-set bookkeeping.
type chunkID struct {
	name string
	key  array.ChunkKey
}
