package maintain

import (
	"sync"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/view"
)

// HistPair is one (array chunk, view chunk) co-occurrence recorded from a
// past batch's update triples, with the chunk's byte size at that time.
// Refs are normalized to base-array namespaces.
type HistPair struct {
	Ref   view.ChunkRef
	View  array.ChunkKey
	Bytes int64
}

type batchRec struct {
	pairs     []HistPair
	pairBytes int64 // Σ B_pq across the batch's triples
}

// History is the sliding window of past batch updates U_1..U_L that array
// chunk reassignment scores against (Section 4.5). Most recent first.
//
// Alongside the pair window it keeps a second ring, same length, of the
// chunk keys each batch updated. The pair window only sees units the
// executor actually ran, so under adaptive maintenance (where light-chunk
// deltas are deferred) it would never learn about light chunks; the touch
// ring records every delta chunk of every batch regardless of which path
// handled it, and is what the heavy/light classifier scores against.
//
// The pair window may be recorded into while a planner scores against it
// (the streaming graph's sink commits batch N while its router solves batch
// N+1): Record swaps in a fresh slice under mu and planners read the slice
// header through recent, so a solve sees one consistent window. The touch
// ring has a single writer and reader (the adaptive layer, under its own
// mutex).
type History struct {
	window  int
	mu      sync.Mutex
	batches []batchRec                // replaced, never modified in place
	touched []map[array.ChunkKey]bool // most recent first, same window
}

// NewHistory returns a history keeping at most window batches.
func NewHistory(window int) *History {
	return &History{window: window}
}

// Len returns how many batches are currently recorded.
func (h *History) Len() int { return len(h.recent()) }

// recent returns the pair window, most recent batch first. The slice is
// shared and immutable.
func (h *History) recent() []batchRec {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.batches
}

// Record captures the just-processed batch's units into the window,
// normalizing delta refs to their base identity (the chunks exist in the
// base array once the batch is merged). Sizes are the planning index's: by
// the time a batch is recorded its delta namespace is gone and its base
// chunks have grown, and the window must weigh the pairs as the plan did.
func (h *History) Record(ctx *Context) {
	if h == nil || h.window == 0 {
		return
	}
	ix := ctx.index()
	var rec batchRec
	for i, u := range ctx.Units {
		bp, bq := ix.size[ix.unitP[i]], ix.size[ix.unitQ[i]]
		for _, v := range u.Views {
			rec.pairs = append(rec.pairs,
				HistPair{Ref: normalizeRef(ctx, u.P), View: v, Bytes: bp},
				HistPair{Ref: normalizeRef(ctx, u.Q), View: v, Bytes: bq})
			rec.pairBytes += bp + bq
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.batches = append([]batchRec{rec}, h.batches...)
	if len(h.batches) > h.window {
		h.batches = h.batches[:h.window]
	}
}

// RecordUpdates captures the full set of chunk keys a batch updated into
// the touch ring, independent of which units (if any) were executed for
// it. Keys are recorded as given — callers that want spatial rather than
// per-slab identity project them first (see Classifier.Project).
func (h *History) RecordUpdates(keys []array.ChunkKey) {
	if h == nil || h.window == 0 {
		return
	}
	set := make(map[array.ChunkKey]bool, len(keys))
	for _, k := range keys {
		set[k] = true
	}
	h.touched = append([]map[array.ChunkKey]bool{set}, h.touched...)
	if len(h.touched) > h.window {
		h.touched = h.touched[:h.window]
	}
}

// UpdateScores returns each chunk key's update-frequency score over the
// touch ring: Σ Decay^l over the batches l (0 = most recent) that updated
// the key — the same W_l = Decay^l batch weights Eq. 1 uses for the pair
// window. A chunk touched every batch scores Σ_{l<window} Decay^l; one
// touched once, long ago, decays toward zero.
func (h *History) UpdateScores(decay float64) map[array.ChunkKey]float64 {
	scores := make(map[array.ChunkKey]float64)
	if h == nil {
		return scores
	}
	w := 1.0
	for _, set := range h.touched {
		for k := range set {
			scores[k] += w
		}
		w *= decay
	}
	return scores
}
