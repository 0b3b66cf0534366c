package main

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans are fixed-size and
// pointer-free so a run's worth of them (millions of fabric calls) costs
// the collector nothing while they wait in memory for the end of the run.
type span struct {
	trace  int32 // batch number, or query number with queryBit set
	id     int32 // 1-based; 0 means "no span"
	parent int32
	name   int16 // index into tracer.names ("layer.name")
	leaf   bool  // a single call into a layer, recorded by tracer.leaf
	start  int64 // nanoseconds since the tracer started
	end    int64
}

// queryBit marks a trace id as a query number; batch traces leave it clear.
const queryBit = 1 << 30

// tracer collects spans in memory. Phase spans (begin/end) get their id at
// begin so children can name them; leaf spans are appended once, at their
// end, under whatever phase the stepped driver has declared current.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	names []string
	index map[string]int16

	// curTrace and curParent attribute leaf spans issued from goroutines
	// the harness does not control (the executor's worker pools).
	curTrace  atomic.Int32
	curParent atomic.Int32
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), index: make(map[string]int16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// intern returns the id of a "layer.name" pair. Decorators intern their
// names once so the per-call path does no string work.
func (t *tracer) intern(layer, name string) int16 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.internLocked(layer, name)
}

func (t *tracer) internLocked(layer, name string) int16 {
	key := layer + "." + name
	id, ok := t.index[key]
	if !ok {
		id = int16(len(t.names))
		t.names = append(t.names, key)
		t.index[key] = id
	}
	return id
}

// begin opens a phase span and returns its id.
func (t *tracer) begin(trace, parent int32, layer, name string) int32 {
	now := t.now()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{trace: trace, id: id, parent: parent, name: t.internLocked(layer, name), start: now})
	t.mu.Unlock()
	return id
}

// end closes a phase span opened by begin.
func (t *tracer) end(id int32) {
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// enter makes a phase span the parent of the leaf spans that follow, until
// the returned function restores the previous one.
func (t *tracer) enter(trace, id int32) func() {
	pt, pp := t.curTrace.Swap(trace), t.curParent.Swap(id)
	return func() {
		t.curTrace.Store(pt)
		t.curParent.Store(pp)
	}
}

// leaf times one call into a layer, named by an interned id; call the
// returned function when the call returns.
func (t *tracer) leaf(name int16) func() {
	start := t.now()
	return func() {
		end := t.now()
		t.mu.Lock()
		t.spans = append(t.spans, span{
			trace: t.curTrace.Load(), id: int32(len(t.spans) + 1), parent: t.curParent.Load(),
			name: name, leaf: true, start: start, end: end,
		})
		t.mu.Unlock()
	}
}

// unionNanos is the total length covered by the intervals, counting
// overlapping stretches once.
func unionNanos(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi int64
	first := true
	for _, v := range iv {
		switch {
		case first || v[0] > hi:
			total += v[1] - v[0]
			hi = v[1]
			first = false
		case v[1] > hi:
			total += v[1] - hi
			hi = v[1]
		}
	}
	return total
}

// selfNanos is a span's duration minus the union of its children's
// intervals (clipped to the span), so concurrent children are not
// subtracted twice.
func selfNanos(s span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := c.start, c.end
		if lo < s.start {
			lo = s.start
		}
		if hi > s.end {
			hi = s.end
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	return (s.end - s.start) - unionNanos(iv)
}

// traceView is the read side of a finished trace: spans grouped the ways
// the per-layer metrics need them.
type traceView struct {
	names    []string
	spans    []span
	children map[int32][]span
}

func (t *tracer) view() *traceView {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := &traceView{names: t.names, spans: t.spans, children: make(map[int32][]span)}
	for _, s := range t.spans {
		if s.parent != 0 {
			v.children[s.parent] = append(v.children[s.parent], s)
		}
	}
	return v
}

// named returns every span with the given "layer.name".
func (v *traceView) named(key string) []span {
	var out []span
	for _, s := range v.spans {
		if v.names[s.name] == key {
			out = append(out, s)
		}
	}
	return out
}

// durations converts spans to milliseconds.
func durationsMs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.end-s.start) / 1e6
	}
	return out
}

// childStats summarises the children of parent whose name has the prefix:
// how many there are and the wall-clock time at least one was in flight.
func (v *traceView) childStats(parent int32, prefix string) (calls int, busyNanos int64) {
	var iv [][2]int64
	for _, c := range v.children[parent] {
		if strings.HasPrefix(v.names[c.name], prefix) {
			calls++
			iv = append(iv, [2]int64{c.start, c.end})
		}
	}
	return calls, unionNanos(iv)
}

// jsonSpan is the on-disk form of a span.
type jsonSpan struct {
	Trace  string `json:"trace"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func traceLabel(id int32) string {
	if id&queryBit != 0 {
		return "q" + strconv.Itoa(int(id&^queryBit))
	}
	return "b" + strconv.Itoa(int(id))
}

// write stores the trace as JSON. Phase spans are all kept; leaf spans are
// kept for the first leafTraces traces only, because a full run holds
// millions of them, and the number left out is recorded.
func (v *traceView) write(path string, leafTraces int32) error {
	out := struct {
		Note    string     `json:"note"`
		Dropped int        `json:"leaf_spans_not_written"`
		Spans   []jsonSpan `json:"spans"`
	}{Note: "phase spans of every trace; leaf (fabric, wal) spans of the first traces only"}
	for _, s := range v.spans {
		if s.leaf && s.trace&^queryBit > leafTraces {
			out.Dropped++
			continue
		}
		layer, name, _ := strings.Cut(v.names[s.name], ".")
		out.Spans = append(out.Spans, jsonSpan{
			Trace: traceLabel(s.trace), ID: s.id, Parent: s.parent,
			Layer: layer, Name: name, Start: s.start, End: s.end,
		})
	}
	buf, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
