package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/shape"
	"github.com/arrayview/arrayview/internal/simjoin"
	"github.com/arrayview/arrayview/internal/view"
)

// testSchema is a 40×40 sky with 4×4 chunks — big enough that micro-batches
// in one region conflict with each other but not with batches elsewhere.
func testSchema() *array.Schema {
	return array.MustSchema("A",
		[]array.Dimension{
			{Name: "x", Start: 1, End: 40, ChunkSize: 4},
			{Name: "y", Start: 1, End: 40, ChunkSize: 4},
		},
		[]array.Attribute{{Name: "r", Type: array.Int64}},
	)
}

func testDef(t *testing.T) *view.Definition {
	t.Helper()
	s := testSchema()
	def, err := view.NewDefinition("V", s, s,
		simjoin.NewPred(shape.L1(2, 1), nil),
		[]string{"x", "y"},
		[]view.Aggregate{{Kind: view.Count, As: "cnt"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// makeDeltas deals out unique points (never colliding with used) into
// per-batch insertion arrays confined to the given sub-region.
func makeDeltas(t *testing.T, rng *rand.Rand, used map[string]bool, batches, per int, xlo, xhi, ylo, yhi int64) []*array.Array {
	t.Helper()
	out := make([]*array.Array, 0, batches)
	for b := 0; b < batches; b++ {
		d := array.New(testSchema())
		for c := 0; c < per; {
			p := array.Point{xlo + rng.Int63n(xhi-xlo+1), ylo + rng.Int63n(yhi-ylo+1)}
			if used[p.String()] {
				continue
			}
			used[p.String()] = true
			if err := d.Set(p, array.Tuple{1}); err != nil {
				t.Fatal(err)
			}
			c++
		}
		out = append(out, d)
	}
	return out
}

// streamFixture loads a seeded base array and builds the view on a fresh
// cluster. The returned base is the logical pre-stream content (for replay).
func streamFixture(t *testing.T, nodes int, used map[string]bool, opts ...cluster.Option) (*cluster.Cluster, *view.Definition, *array.Array) {
	t.Helper()
	cl, err := cluster.New(nodes, append([]cluster.Option{cluster.WithWorkersPerNode(2)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	base := array.New(testSchema())
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 40; i++ {
		p := array.Point{1 + rng.Int63n(40), 1 + rng.Int63n(40)}
		if used[p.String()] {
			continue
		}
		used[p.String()] = true
		if err := base.Set(p, array.Tuple{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.LoadArray(base, &cluster.RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	def := testDef(t)
	if err := maintain.BuildView(cl, def, &cluster.RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	return cl, def, base
}

// replayBatches applies the deltas batch-at-a-time on a fresh cluster and
// returns the final base and view — the fault-free reference state.
func replayBatches(t *testing.T, def *view.Definition, base *array.Array, deltas []*array.Array) (*array.Array, *array.Array) {
	t.Helper()
	cl, err := cluster.New(4, cluster.WithWorkersPerNode(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadArray(base, &cluster.RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	if err := maintain.BuildView(cl, def, &cluster.RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	m, err := maintain.NewMaintainer(cl, def, maintain.Reassign{}, maintain.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range deltas {
		if _, err := m.ApplyBatch(d); err != nil {
			t.Fatalf("replay batch %d: %v", i, err)
		}
	}
	gotBase, err := cl.Gather("A")
	if err != nil {
		t.Fatal(err)
	}
	gotView, err := cl.Gather("V")
	if err != nil {
		t.Fatal(err)
	}
	return gotBase, gotView
}

func statesEqual(a, b *array.Array) bool {
	ok := true
	check := func(x, y *array.Array) {
		x.EachCell(func(p array.Point, tup array.Tuple) bool {
			got, found := y.Get(p)
			if !found {
				for _, v := range tup {
					if v != 0 {
						ok = false
						return false
					}
				}
				return true
			}
			for i := range tup {
				if got[i] != tup[i] {
					ok = false
					return false
				}
			}
			return true
		})
	}
	check(a, b)
	if ok {
		check(b, a)
	}
	return ok
}

// fingerprint renders an array's cells in sorted order — equal content,
// equal string.
func fingerprint(a *array.Array) string {
	type cell struct {
		p array.Point
		t array.Tuple
	}
	var cells []cell
	a.EachCell(func(p array.Point, tup array.Tuple) bool {
		cells = append(cells, cell{append(array.Point(nil), p...), append(array.Tuple(nil), tup...)})
		return true
	})
	sort.Slice(cells, func(i, j int) bool {
		for d := range cells[i].p {
			if cells[i].p[d] != cells[j].p[d] {
				return cells[i].p[d] < cells[j].p[d]
			}
		}
		return false
	})
	var sb strings.Builder
	for _, c := range cells {
		fmt.Fprintf(&sb, "%v=%v;", c.p, c.t)
	}
	return sb.String()
}

// drainAll submits every delta, drains the graph, and returns the results.
func drainAll(t *testing.T, g *Graph, deltas []*array.Array) []Result {
	t.Helper()
	tickets := make([]*Ticket, 0, len(deltas))
	for i, d := range deltas {
		tk, err := g.Submit(d)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	g.Drain()
	out := make([]Result, 0, len(tickets))
	for _, tk := range tickets {
		out = append(out, tk.Wait())
	}
	return out
}

// TestGraphMatchesBatchReplay pushes conflicting micro-batches (all in one
// sky region, so successors overlap in-flight predecessors' write sets)
// through the pipeline and checks the committed state cell-for-cell against
// a batch-at-a-time replay of the same deltas.
func TestGraphMatchesBatchReplay(t *testing.T) {
	used := make(map[string]bool)
	cl, def, base := streamFixture(t, 4, used)
	deltas := makeDeltas(t, rand.New(rand.NewSource(7)), used, 8, 10, 1, 20, 1, 20)

	g, err := NewGraph(Config{Cluster: cl, Def: def, Params: maintain.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	results := drainAll(t, g, deltas)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("batch %d (seq %d) failed: %v", i, r.Seq, r.Err)
		}
	}

	wantBase, wantView := replayBatches(t, def, base, deltas)
	gotBase, err := cl.Gather("A")
	if err != nil {
		t.Fatal(err)
	}
	gotView, err := cl.Gather("V")
	if err != nil {
		t.Fatal(err)
	}
	if !statesEqual(gotBase, wantBase) {
		t.Fatal("streamed base diverges from batch replay")
	}
	if !statesEqual(gotView, wantView) {
		t.Fatal("streamed view diverges from batch replay")
	}

	st := g.Stats()
	if len(st.Stages) != int(numStages) {
		t.Fatalf("got %d stage snapshots, want %d", len(st.Stages), numStages)
	}
	for _, s := range st.Stages {
		if s.Entered != int64(len(deltas)) || s.Done != int64(len(deltas)) {
			t.Fatalf("stage %s processed %d/%d batches, want %d", s.Name, s.Entered, s.Done, len(deltas))
		}
		if s.Depth != 0 {
			t.Fatalf("stage %s reports residual depth %d after drain", s.Name, s.Depth)
		}
	}
	if st.InFlight != 0 {
		t.Fatalf("%d batches still in flight after drain", st.InFlight)
	}
	if rt := st.Router; rt.Solves+rt.Reuses != int64(len(deltas)) {
		t.Fatalf("router planned %d batches, want %d", rt.Solves+rt.Reuses, len(deltas))
	}
}

// noPlan is a planner whose every solve fails.
type noPlan struct{}

func (noPlan) Name() string { return "no-plan" }
func (noPlan) Plan(*maintain.Context) (*maintain.Plan, error) {
	return nil, errors.New("no plan today")
}

// TestGraphScratchNamespacesScrubbed checks that a drained pipeline leaves
// no scratch namespaces behind: every "#sdelta"/"#stage" array is gone from
// the catalog and the coordinator's store — after committed batches, and
// after a batch whose pipelined attempt and every isolated retry died in the
// planner, before the executor had anything to abort.
func TestGraphScratchNamespacesScrubbed(t *testing.T) {
	for _, tc := range []struct {
		name    string
		planner maintain.Planner
		batches int
		fails   bool
	}{
		{"committed", nil, 5, false},
		{"planner fails, retries exhausted", noPlan{}, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			used := make(map[string]bool)
			cl, def, _ := streamFixture(t, 4, used)
			deltas := makeDeltas(t, rand.New(rand.NewSource(8)), used, tc.batches, 8, 1, 24, 1, 24)
			g, err := NewGraph(Config{Cluster: cl, Def: def, Planner: tc.planner, Params: maintain.DefaultParams()})
			if err != nil {
				t.Fatal(err)
			}
			attempts := 0
			for i, r := range drainAll(t, g, deltas) {
				if (r.Err != nil) != tc.fails {
					t.Fatalf("batch %d: err = %v, want failure %v", i, r.Err, tc.fails)
				}
				if tc.fails && r.Retries != maxRetries {
					t.Fatalf("batch %d gave up after %d retries, want %d", i, r.Retries, maxRetries)
				}
				attempts += 1 + r.Retries
			}
			for _, name := range cl.Catalog().Names() {
				if strings.Contains(name, "#") {
					t.Errorf("scratch namespace %q survived the drain", name)
				}
			}
			for seq := 1; seq <= attempts; seq++ {
				name := fmt.Sprintf("A#sdelta%d", seq)
				if keys, err := cl.KeysAt(cluster.Coordinator, name); err != nil || len(keys) > 0 {
					t.Errorf("coordinator still holds %d chunks of %s (err %v)", len(keys), name, err)
				}
			}
		})
	}
}

// TestRouterDriftResolves drives batches through one sky region (the cached
// solve must be reused) and then jumps to a disjoint region (coverage
// collapses, forcing a re-solve). Batches run sequentially so reuse is the
// router's choice, not a conflict fallback.
func TestRouterDriftResolves(t *testing.T) {
	used := make(map[string]bool)
	cl, def, _ := streamFixture(t, 4, used)
	g, err := NewGraph(Config{Cluster: cl, Def: def, Params: maintain.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	submitWait := func(d *array.Array) Result {
		tk, err := g.Submit(d)
		if err != nil {
			t.Fatal(err)
		}
		return tk.Wait()
	}
	for i, d := range makeDeltas(t, rng, used, 3, 8, 1, 8, 1, 8) {
		if r := submitWait(d); r.Err != nil {
			t.Fatalf("region-1 batch %d: %v", i, r.Err)
		}
	}
	after1 := g.Stats().Router
	if after1.Solves != 1 {
		t.Fatalf("same-region trickle solved %d times, want 1", after1.Solves)
	}
	if after1.Reuses != 2 {
		t.Fatalf("same-region trickle reused %d times, want 2", after1.Reuses)
	}
	if r := submitWait(makeDeltas(t, rng, used, 1, 8, 33, 40, 33, 40)[0]); r.Err != nil {
		t.Fatalf("drifted batch: %v", r.Err)
	}
	after2 := g.Stats().Router
	if after2.Solves != 2 {
		t.Fatalf("drifted batch did not trigger a re-solve (solves=%d)", after2.Solves)
	}
	g.Drain()
}

// TestGraphSnapshotAuditWhileStreaming streams batches with epochs enabled
// while reader goroutines continuously pin snapshots and gather the view.
// Every published epoch's expected fingerprint is recorded by an OnPublish
// hook (on the sink goroutine, synchronous with the commit), and every
// reader gather must match the fingerprint of its pinned epoch exactly —
// zero violations.
func TestGraphSnapshotAuditWhileStreaming(t *testing.T) {
	used := make(map[string]bool)
	cl, def, _ := streamFixture(t, 4, used)

	var expected sync.Map // epoch → view fingerprint
	cl.Epochs().OnPublish(func(epoch uint64) {
		s, err := cl.Epochs().Acquire()
		if err != nil {
			t.Errorf("hook acquire at epoch %d: %v", epoch, err)
			return
		}
		defer s.Release()
		if s.Epoch() != epoch {
			t.Errorf("hook pinned epoch %d, published %d", s.Epoch(), epoch)
			return
		}
		v, err := s.Gather("V")
		if err != nil {
			t.Errorf("hook gather at epoch %d: %v", epoch, err)
			return
		}
		expected.Store(epoch, fingerprint(v))
	})
	cl.Epochs().Enable()

	g, err := NewGraph(Config{Cluster: cl, Def: def, Params: maintain.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}

	var violations atomic.Int64
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s, err := cl.Epochs().Acquire()
				if err != nil {
					continue
				}
				v, err := s.Gather("V")
				if err != nil {
					violations.Add(1)
					s.Release()
					continue
				}
				if want, ok := expected.Load(s.Epoch()); ok && want.(string) != fingerprint(v) {
					violations.Add(1)
				}
				s.Release()
			}
		}()
	}

	// A monitor polls Stats while the plan stage counts solves and reuses.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = g.Stats()
			}
		}
	}()

	deltas := makeDeltas(t, rand.New(rand.NewSource(13)), used, 8, 8, 1, 20, 1, 20)
	results := drainAll(t, g, deltas)
	close(stop)
	readers.Wait()
	if rt := g.Stats().Router; rt.Solves+rt.Reuses != int64(len(deltas)) {
		t.Fatalf("router planned %d batches, want %d", rt.Solves+rt.Reuses, len(deltas))
	}

	epochs := make([]uint64, 0, len(results))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("batch %d failed: %v", i, r.Err)
		}
		if r.Epoch == 0 {
			t.Fatalf("batch %d committed without publishing an epoch", i)
		}
		epochs = append(epochs, r.Epoch)
	}
	for i := 1; i < len(epochs); i++ {
		if epochs[i] <= epochs[i-1] {
			t.Fatalf("commit epochs not strictly increasing in admission order: %v", epochs)
		}
	}
	if n := violations.Load(); n != 0 {
		t.Fatalf("%d snapshot consistency violations while streaming", n)
	}
}

// TestGraphSubmitAfterClose verifies admission shuts off cleanly.
func TestGraphSubmitAfterClose(t *testing.T) {
	used := make(map[string]bool)
	cl, def, _ := streamFixture(t, 4, used)
	g, err := NewGraph(Config{Cluster: cl, Def: def, Params: maintain.DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	g.Drain()
	if _, err := g.Submit(array.New(testSchema())); err != ErrClosed {
		t.Fatalf("Submit after Close: got %v, want ErrClosed", err)
	}
}

// TestGraphRejectsTwoArrayView pins the v1 scope: streaming is self-join
// only.
func TestGraphRejectsTwoArrayView(t *testing.T) {
	used := make(map[string]bool)
	cl, _, _ := streamFixture(t, 3, used)
	sb := array.MustSchema("B",
		[]array.Dimension{
			{Name: "x", Start: 1, End: 40, ChunkSize: 4},
			{Name: "y", Start: 1, End: 40, ChunkSize: 4},
		},
		[]array.Attribute{{Name: "r", Type: array.Int64}},
	)
	def, err := view.NewDefinition("V2", testSchema(), sb,
		simjoin.NewPred(shape.L1(2, 1), nil),
		[]string{"x", "y"},
		[]view.Aggregate{{Kind: view.Count, As: "cnt"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGraph(Config{Cluster: cl, Def: def, Params: maintain.DefaultParams()}); !errors.Is(err, view.ErrSelfJoinOnly) {
		t.Fatalf("NewGraph on a two-array view = %v, want ErrSelfJoinOnly", err)
	}
}
