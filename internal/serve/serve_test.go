package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"testing"
	"time"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/query"
	"github.com/arrayview/arrayview/internal/shape"
	"github.com/arrayview/arrayview/internal/simjoin"
	"github.com/arrayview/arrayview/internal/transport"
	"github.com/arrayview/arrayview/internal/view"
)

// testEngine builds a 3-node cluster with a random sparse 2-D base array
// and a Linf-shaped count+sum view over it, returning a query engine, the
// base, and a maintainer for applying batches.
func testEngine(t *testing.T, seed int64, viewShape *shape.Shape, opts ...cluster.Option) (*query.Engine, *array.Array, *maintain.Maintainer) {
	t.Helper()
	schema := array.MustSchema("A",
		[]array.Dimension{
			{Name: "x", Start: 0, End: 39, ChunkSize: 5},
			{Name: "y", Start: 0, End: 39, ChunkSize: 5},
		},
		[]array.Attribute{{Name: "v", Type: array.Float64}})
	rng := rand.New(rand.NewSource(seed))
	base := array.New(schema)
	for i := 0; i < 150; i++ {
		_ = base.Set(array.Point{rng.Int63n(40), rng.Int63n(40)}, array.Tuple{float64(rng.Intn(5) + 1)})
	}
	opts = append([]cluster.Option{cluster.WithWorkersPerNode(2)}, opts...)
	cl, err := cluster.New(3, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadArray(base, &cluster.RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	def, err := view.NewDefinition("V", schema, schema,
		simjoin.NewPred(viewShape, nil),
		[]string{"x", "y"},
		[]view.Aggregate{{Kind: view.Count, As: "cnt"}, {Kind: view.Sum, Attr: "v", As: "vs"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := maintain.BuildView(cl, def, &cluster.RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	eng, err := query.NewEngine(cl, def, maintain.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	m, err := maintain.NewMaintainer(cl, def, nil, maintain.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return eng, base, m
}

// reference computes the query aggregate from scratch, locally.
func reference(t *testing.T, eng *query.Engine, base *array.Array, queryShape *shape.Shape) *array.Array {
	t.Helper()
	def, err := view.NewDefinition("ref", eng.Def.Alpha, eng.Def.Beta,
		simjoin.NewPred(queryShape, eng.Def.Pred.Mapping),
		eng.Def.GroupBy, eng.Def.Aggs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := view.Materialize(def, base, base)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// statesEqual compares aggregate state arrays, treating absent cells as
// all-zero state.
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
	check(b, a)
	return ok
}

// fingerprint renders an array's cells canonically for equality checks
// across goroutines.
func fingerprint(a *array.Array) string {
	var cells []string
	a.EachCell(func(p array.Point, tup array.Tuple) bool {
		cells = append(cells, fmt.Sprintf("%v=%v", p, tup))
		return true
	})
	sort.Strings(cells)
	return fmt.Sprint(cells)
}

// TestServeEndToEnd drives the full wire path: daemon up, client queries
// over TCP at a pinned epoch, stats endpoint, cache warming.
func TestServeEndToEnd(t *testing.T) {
	eng, base, _ := testEngine(t, 11, shape.Linf(2, 2))
	srv := NewServer(eng, nil)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := NewClient(srv.Addr(), eng.Def.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		sh   *shape.Shape
		mode query.Mode
	}{
		{"view-shape-auto", shape.Linf(2, 2), query.Auto},
		{"delta-forced-view", shape.Linf(2, 1), query.ForceView},
		{"forced-complete", shape.L1(2, 3), query.ForceComplete},
	}
	for _, tc := range cases {
		res, err := c.Query(tc.sh, tc.mode)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Epoch == 0 {
			t.Fatalf("%s: answer not pinned to an epoch", tc.name)
		}
		if want := reference(t, eng, base, tc.sh); !statesEqual(res.Array, want) {
			t.Fatalf("%s: remote answer diverges from reference", tc.name)
		}
	}

	// A repeated query must be served warm: either the hot-chunk read cache
	// (cold daemon) or the query fast path (view cache + plan memo) absorbs
	// the repeat without refetching.
	before, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(shape.Linf(2, 2), query.Auto); err != nil {
		t.Fatal(err)
	}
	after, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	warmed := after.CacheHits > before.CacheHits ||
		after.FastPath.MemoHits > before.FastPath.MemoHits ||
		after.FastPath.ViewHits > before.FastPath.ViewHits
	if !warmed {
		t.Fatalf("repeated query warmed no cache: read hits %d -> %d, fast path %+v -> %+v",
			before.CacheHits, after.CacheHits, before.FastPath, after.FastPath)
	}
	if after.FastPath.MemoMisses == 0 && after.FastPath.ViewMisses == 0 {
		t.Fatal("fast path never engaged on a default-config daemon")
	}
	if after.Queries < 4 {
		t.Fatalf("stats report %d admitted queries, want >= 4", after.Queries)
	}
	if after.Epoch == 0 || after.Rejected != 0 {
		t.Fatalf("unexpected stats: %+v", after)
	}
}

// TestServeRejectsGarbage checks the daemon answers protocol misuse with
// error frames instead of dropping state.
func TestServeRejectsGarbage(t *testing.T) {
	eng, _, _ := testEngine(t, 3, shape.Linf(2, 1))
	srv := NewServer(eng, nil)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tc := transport.NewClient(srv.Addr(), transport.DefaultClientConfig())
	defer tc.Close()

	if _, err := tc.Do(&transport.Message{Type: transport.MsgKeys, Array: "A"}); err == nil {
		t.Fatal("non-serve request type answered without error")
	}
	if _, err := tc.Do(&transport.Message{Type: transport.MsgQuery, Spec: []byte("junk")}); err == nil {
		t.Fatal("garbage query spec answered without error")
	}
	if _, err := tc.Do(&transport.Message{Type: transport.MsgQuery, Mode: 99}); err == nil {
		t.Fatal("unknown query mode answered without error")
	}
	// The daemon must still be healthy afterwards.
	if _, err := tc.Do(&transport.Message{Type: transport.MsgPing}); err != nil {
		t.Fatal(err)
	}
}

// TestLimiterOverload exercises admission control: slots, the bounded
// queue, typed rejection, and queue abandonment on context expiry.
func TestLimiterOverload(t *testing.T) {
	l := NewLimiter(1, 1)
	rel1, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Second query fits in the queue; give it a context we control.
	qctx, qcancel := context.WithCancel(context.Background())
	defer qcancel()
	queuedErr := make(chan error, 1)
	go func() {
		rel, err := l.Acquire(qctx)
		if err == nil {
			rel()
		}
		queuedErr <- err
	}()

	// Wait until the waiter holds the queue token, then overflow it.
	deadline := time.Now().Add(2 * time.Second)
	for len(l.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	_, err = l.Acquire(context.Background())
	if err == nil {
		t.Fatal("third concurrent query admitted past the queue bound")
	}
	if !IsOverload(err) {
		t.Fatalf("rejection is not typed as overload: %v", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("rejection is %T, want *OverloadError", err)
	}
	if oe.InFlight != 1 || oe.Queued != 1 {
		t.Fatalf("overload diagnostics = %+v, want 1 in flight, 1 queued", oe)
	}

	// Release the slot: the queued waiter gets in.
	rel1()
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued query failed after slot freed: %v", err)
	}

	// A waiter whose deadline expires abandons the queue cleanly.
	rel2, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := l.Acquire(ctx); err != context.DeadlineExceeded {
		t.Fatalf("expired waiter returned %v, want DeadlineExceeded", err)
	}
	rel2()
	if len(l.queue) != 0 {
		t.Fatal("expired waiter leaked a queue token")
	}

	queries, rejected := l.Counters()
	if queries != 3 || rejected != 1 {
		t.Fatalf("counters = (%d queries, %d rejected), want (3, 1)", queries, rejected)
	}

	// The remote form of the rejection is still recognizably an overload.
	if !IsOverload(&transport.RemoteError{Msg: (&OverloadError{}).Error()}) {
		t.Fatal("remote overload error not recognized")
	}
}

// TestLimiterCancelledContext is the regression test for the admission
// fast path: a query whose context is already cancelled (or past its
// deadline) must be turned away before it can claim a slot, even when one
// is free.
func TestLimiterCancelledContext(t *testing.T) {
	l := NewLimiter(1, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.Acquire(ctx); err != context.Canceled {
		t.Fatalf("cancelled query admitted with a free slot: err=%v, want context.Canceled", err)
	}
	if len(l.slots) != 0 {
		t.Fatal("cancelled query consumed an execution slot")
	}

	expired, ecancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer ecancel()
	if _, err := l.Acquire(expired); err != context.DeadlineExceeded {
		t.Fatalf("expired query admitted: err=%v, want DeadlineExceeded", err)
	}

	// A live query is unaffected, and the dead ones left no tokens behind.
	rel, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("live query rejected after cancelled ones: %v", err)
	}
	rel()
	queries, rejected := l.Counters()
	if queries != 1 || rejected != 0 {
		t.Fatalf("counters = (%d queries, %d rejected), want (1, 0)", queries, rejected)
	}
}

// TestReadErrorTyped checks that exhausted replica failover surfaces the
// typed ReadError — never partial data — through Gather.
func TestReadErrorTyped(t *testing.T) {
	eng, _, _ := testEngine(t, 5, shape.Linf(2, 1))
	cl := eng.Cluster
	// Drop one base chunk from its home behind the catalog's back.
	keys := cl.Catalog().Keys("A")
	if len(keys) == 0 {
		t.Fatal("no base chunks")
	}
	home, _ := cl.Catalog().Home("A", keys[0])
	if _, err := cl.DeleteAt(home, "A", keys[0]); err != nil {
		t.Fatal(err)
	}
	_, err := cl.Gather("A")
	if err == nil {
		t.Fatal("gather of a partially unreadable array succeeded")
	}
	var re *cluster.ReadError
	if !errors.As(err, &re) {
		t.Fatalf("gather error is %T (%v), want *cluster.ReadError", err, err)
	}
	if re.Array != "A" || re.Key != keys[0] || len(re.Tried) == 0 {
		t.Fatalf("read error lacks failure detail: %+v", re)
	}
}

// The stats reply is one self-describing document: every counter survives
// the round trip, a name this build does not know is skipped, and a name the
// sender did not write reads zero — so daemons and clients a counter apart
// still talk.
func TestStatsReplyRoundTrip(t *testing.T) {
	want := Stats{
		Epoch: 7, Pins: 1, Retained: 2, RetainedBytes: 3,
		CacheHits: 4, CacheMisses: 5, CacheBytes: 6, Queries: 8, Rejected: 9,
		Adaptive: obs.AdaptiveSnapshot{HeavyChunks: 10, PendingCells: 11, MemoMisses: 12},
		Durable:  obs.DurableSnapshot{Commits: 13, Syncs: 14},
		FastPath: obs.FastPathSnapshot{ViewHits: 15, SolveSkips: 16},
	}
	doc, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decodeStats(doc); err != nil || got != want {
		t.Fatalf("round trip: got %+v (err %v), want %+v", got, err, want)
	}

	var fields map[string]json.RawMessage
	if err := json.Unmarshal(doc, &fields); err != nil {
		t.Fatal(err)
	}
	fields["CounterFromTheFuture"] = json.RawMessage(`{"A": 1}`)
	newer, _ := json.Marshal(fields)
	if got, err := decodeStats(newer); err != nil || got != want {
		t.Fatalf("unknown field: got %+v (err %v), want %+v", got, err, want)
	}

	delete(fields, "CounterFromTheFuture")
	delete(fields, "Durable")
	delete(fields, "Rejected")
	older, _ := json.Marshal(fields)
	want.Durable, want.Rejected = obs.DurableSnapshot{}, 0
	if got, err := decodeStats(older); err != nil || got != want {
		t.Fatalf("missing fields: got %+v (err %v), want %+v", got, err, want)
	}

	if _, err := decodeStats([]byte("not a document")); err == nil {
		t.Fatal("garbage stats document decoded")
	}
}

// replyWith serves query replies carrying the given encoded chunks on a
// loopback listener, whatever the request, and returns its address.
func replyWith(t *testing.T, chunks ...[]byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					if _, err := transport.ReadMessage(conn); err != nil {
						return
					}
					reply := &transport.Message{Type: transport.MsgQueryResult, Epoch: 1, Chunks: chunks}
					if err := transport.WriteMessage(conn, reply); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestClientRejectsMisfitChunks: a reply chunk that decodes but does not fit
// the view schema fails the query instead of landing in the answer.
func TestClientRejectsMisfitChunks(t *testing.T) {
	eng, _, _ := testEngine(t, 3, shape.Linf(2, 1))
	vs := eng.Def.Schema()
	oneCell := func(s *array.Schema, cc array.ChunkCoord) []byte {
		c := array.NewChunk(s, cc)
		if err := c.Set(c.Region().Lo, make(array.Tuple, s.NumAttrs())); err != nil {
			t.Fatal(err)
		}
		return array.EncodeChunk(c)
	}
	oneDim := array.MustSchema(vs.Name, vs.Dims[:1], vs.Attrs)
	oneAttr := array.MustSchema(vs.Name, vs.Dims, vs.Attrs[:1])
	dims := append([]array.Dimension(nil), vs.Dims...)
	dims[1].ChunkSize++
	regrid := array.MustSchema(vs.Name, dims, vs.Attrs)
	offsetPast := oneCell(vs, array.ChunkCoord{0, 0})
	cell := 8 + 8*vs.NumAttrs()
	binary.BigEndian.PutUint64(offsetPast[len(offsetPast)-cell:], uint64(vs.ChunkRegion(array.ChunkCoord{0, 0}).Size()))

	ask := func(enc []byte) error {
		c, err := NewClient(replyWith(t, enc), vs, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_, err = c.Query(shape.Linf(2, 1), query.Auto)
		return err
	}
	if err := ask(oneCell(vs, array.ChunkCoord{1, 2})); err != nil {
		t.Fatalf("fitting chunk rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		enc  []byte
	}{
		{"dimensionality", oneCell(oneDim, array.ChunkCoord{0})},
		{"attribute count", oneCell(oneAttr, array.ChunkCoord{0, 0})},
		{"region", oneCell(regrid, array.ChunkCoord{0, 1})},
		{"coordinate off the grid", oneCell(vs, array.ChunkCoord{-1, 0})},
		{"cell offset past the region", offsetPast},
	} {
		if err := ask(tc.enc); err == nil {
			t.Errorf("%s: misfit chunk accepted", tc.name)
		}
	}
}
