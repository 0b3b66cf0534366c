package engine_test

import (
	"testing"
	"time"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/bench"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/engine"
	"github.com/arrayview/arrayview/internal/maintain"
	"github.com/arrayview/arrayview/internal/storage"
	"github.com/arrayview/arrayview/internal/workload"
)

// replicateOnce ships one replica of every chunk of the array to the next
// node over, best effort: cleanup scrubs scratch replicas, so a sequence that
// calls this before every batch re-ships known content every batch — the
// repeated transfers the wire layer's dedup offers and delta patches target,
// and the replicas failover reads from.
func replicateOnce(cl *cluster.Cluster, name string) {
	cat, n := cl.Catalog(), cl.NumNodes()
	for _, key := range cat.Keys(name) {
		if home, ok := cat.Home(name, key); ok {
			_ = cl.Transfer(nil, name, key, home, (home+1)%n)
		}
	}
}

// wireTotals sums the per-node fabric counters.
func wireTotals(t *testing.T, cl *cluster.Cluster) cluster.NetCounters {
	t.Helper()
	sum := cluster.NetCounters{Requests: map[string]int64{}}
	for node := 0; node < cl.NumNodes(); node++ {
		st, err := cl.Fabric().Stats(node)
		if err != nil {
			t.Fatal(err)
		}
		for op, n := range st.Net.Requests {
			sum.Requests[op] += n
		}
		sum.BytesOut += st.Net.BytesOut
		sum.BytesIn += st.Net.BytesIn
		sum.DedupHits += st.Net.DedupHits
		sum.BytesSavedDedup += st.Net.BytesSavedDedup
		sum.DeltaShips += st.Net.DeltaShips
		sum.BytesSavedDelta += st.Net.BytesSavedDelta
	}
	return sum
}

// The wire layer saves bytes on a correlated sequence over loopback TCP: the
// per-batch re-replication is answered by dedup offers, and changed chunks
// ship as delta patches. Re-shipping content the destination has already
// seen — its copy evicted, not changed — moves only the hash handshake: one
// dedup hit per chunk and no chunk body in either direction.
func TestWireSavings(t *testing.T) {
	spec := bench.SmallSpec(bench.GEO, workload.Correlated)
	data, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	h, err := spec.Open(data, func(c *engine.Config) { c.Distributed = true })
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	cl, def := h.Cluster(), h.Def()
	for i, batch := range data.Batches {
		replicateOnce(cl, def.Alpha.Name)
		replicateOnce(cl, def.Name)
		if _, err := h.Maintainer().ApplyBatch(batch); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	seq := wireTotals(t, cl)
	t.Logf("dedup %d hits %dB saved, delta %d ships %dB saved", seq.DedupHits, seq.BytesSavedDedup, seq.DeltaShips, seq.BytesSavedDelta)
	if seq.DedupHits == 0 || seq.BytesSavedDedup == 0 {
		t.Errorf("dedup saved nothing: %d hits, %dB", seq.DedupHits, seq.BytesSavedDedup)
	}
	if seq.DeltaShips == 0 || seq.BytesSavedDelta == 0 {
		t.Errorf("delta saved nothing: %d ships, %dB", seq.DeltaShips, seq.BytesSavedDelta)
	}

	// The repeat probe: replicate every base chunk, evict the replica (the
	// store sidelines its encoding in the content cache), ship it again.
	name, n := def.Alpha.Name, cl.NumNodes()
	type ship struct {
		key       array.ChunkKey
		home, dst int
	}
	var ships []ship
	for _, key := range cl.Catalog().Keys(name) {
		home, ok := cl.Catalog().Home(name, key)
		if !ok {
			continue
		}
		dst := (home + 1) % n
		if err := cl.Transfer(nil, name, key, home, dst); err != nil {
			t.Fatal(err)
		}
		if _, _, known := cl.Catalog().ChunkHash(name, key); !known {
			t.Fatalf("chunk %v shipped without its content hash recorded", key)
		}
		ships = append(ships, ship{key, home, dst})
	}
	for _, s := range ships {
		if _, err := cl.DeleteAt(s.dst, name, s.key); err != nil {
			t.Fatal(err)
		}
	}
	before := wireTotals(t, cl)
	for _, s := range ships {
		if err := cl.Transfer(nil, name, s.key, s.home, s.dst); err != nil {
			t.Fatal(err)
		}
	}
	after := wireTotals(t, cl)
	if len(ships) == 0 {
		t.Fatal("probe shipped no chunks")
	}
	if hits := after.DedupHits - before.DedupHits; hits != int64(len(ships)) {
		t.Errorf("repeat probe: %d dedup hits for %d chunks", hits, len(ships))
	}
	for op, c := range after.Requests {
		switch op {
		case "OfferBatch", "HasChunk", "Stats":
		default:
			if d := c - before.Requests[op]; d != 0 {
				t.Errorf("repeat probe sent %d %s requests; only the handshake may move", d, op)
			}
		}
	}
}

// skewAdaptive is the heavy-light tuning that makes replaying sequences pay
// off at small scale: the classifier projects out the time dimension (PTF
// batches land in fresh or replayed time slabs, so a chunk's persistent
// identity is its sky pointing), and any class touched now and at least once
// more in the window is heavy, so periodic revisits are not misread as cold.
func skewAdaptive(c *engine.Config) {
	cfg := maintain.DefaultAdaptiveConfig()
	cfg.Project = maintain.DropDims(0)
	cfg.HeavyThreshold = 1.05
	cfg.MaxPendingBatches = 6
	cfg.MemoCap = 32768
	c.Adaptive = &cfg
}

// Adaptive and streamed+adaptive maintenance end, after a drain, with base
// and view equal to eager maintenance of the same generated replaying
// sequence. Not Verify: a view maintained under replayed cells is not the
// materialization of its base. On the correlated replay the adaptive layer
// must also actually engage: join-memo hits and plan reuses.
func TestAdaptiveMatchesEager(t *testing.T) {
	spec := bench.SmallSpec(bench.PTF5, workload.Real)
	cases := []struct {
		name string
		gen  func() (*workload.Dataset, error)
	}{
		{"correlated", func() (*workload.Dataset, error) { return workload.GeneratePTF(spec.PTF, workload.Correlated) }},
		{"periodic", func() (*workload.Dataset, error) { return workload.GeneratePTF(spec.PTF, workload.Periodic) }},
		{"skewed", func() (*workload.Dataset, error) { return workload.GeneratePTFSkewed(spec.PTF, 0.8) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := tc.gen()
			if err != nil {
				t.Fatal(err)
			}
			run := func(dress func(*engine.Config)) *engine.Handle {
				h, err := spec.Open(data, dress)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { h.Close() })
				submitAll(t, h, data.Batches)
				return h
			}
			eager := run(nil)
			wantBase, wantView := gather(t, eager)
			for _, leg := range []struct {
				name  string
				dress func(*engine.Config)
			}{
				{"adaptive", skewAdaptive},
				{"streamed+adaptive", func(c *engine.Config) { c.Streamed = true; skewAdaptive(c) }},
			} {
				h := run(leg.dress)
				base, vw := gather(t, h)
				if !base.EqualStates(wantBase) || !vw.EqualStates(wantView) {
					t.Errorf("%s: base/view differ from eager", leg.name)
				}
				if tc.name != "correlated" || leg.name != "adaptive" {
					continue
				}
				st := h.Adaptive().Stats()
				if st.Memo.Hits == 0 || st.Plans.Hits == 0 {
					t.Errorf("adaptive on a correlated replay: %d memo hits, %d plan reuses; want both > 0",
						st.Memo.Hits, st.Plans.Hits)
				}
			}
		})
	}
}

// Under every fault class, a whole batch sequence ends with base and view
// equal to a fault-free replay of exactly the batches that committed: a
// failed batch rolled back completely and a committed one lost nothing.
func TestFaultClassEndsAtCleanReplay(t *testing.T) {
	spec := bench.SmallSpec(bench.GEO, workload.Correlated)
	data, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	classes := []struct {
		name     string
		inject   func(ff *cluster.FaultFabric)
		blackout int // batch during which node 0 is dark, or -1
	}{
		{"fault-free", nil, -1},
		{"latency", func(ff *cluster.FaultFabric) {
			ff.Inject(&cluster.FaultRule{Node: cluster.AnyNode, Op: cluster.AnyOp,
				Kind: cluster.FaultLatency, Latency: 200 * time.Microsecond, P: 0.2})
		}, -1},
		{"ack-loss", func(ff *cluster.FaultFabric) {
			ff.Inject(&cluster.FaultRule{Node: cluster.AnyNode, Op: "Put", Kind: cluster.FaultDropAfterWrite, P: 0.05})
		}, -1},
		{"node-errors", func(ff *cluster.FaultFabric) {
			ff.Inject(&cluster.FaultRule{Node: 0, Op: "Get", Kind: cluster.FaultError, P: 0.5, Count: 40})
		}, -1},
		{"blackout", nil, 1},
	}
	for _, fc := range classes {
		t.Run(fc.name, func(t *testing.T) {
			stores := make([]*storage.Store, spec.Nodes)
			for i := range stores {
				stores[i] = storage.NewStore()
			}
			ff := cluster.NewFaultFabric(cluster.NewLocalFabric(stores), 1)
			h, err := spec.Open(data, func(c *engine.Config) { c.Fabric = ff.AsFabric() })
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()
			if fc.inject != nil {
				fc.inject(ff)
			}
			var committed []*array.Array
			for i, batch := range data.Batches {
				replicateOnce(h.Cluster(), h.Def().Alpha.Name)
				replicateOnce(h.Cluster(), h.Def().Name)
				if i == fc.blackout {
					ff.Blackout(0)
				}
				_, err := h.Maintainer().ApplyBatch(batch)
				if i == fc.blackout {
					ff.Restore(0)
				}
				if err == nil {
					committed = append(committed, batch)
				} else if fc.name == "fault-free" {
					t.Fatalf("batch %d failed with no fault injected: %v", i, err)
				}
			}
			t.Logf("%d of %d batches committed; faults %+v", len(committed), len(data.Batches), ff.FaultCounts())
			if fc.name != "fault-free" && ff.FaultCounts().Total() == 0 {
				t.Fatal("no fault fired")
			}
			ff.ClearRules()
			base, vw := gather(t, h)

			clean, err := spec.Open(data, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer clean.Close()
			for i, batch := range committed {
				if _, err := clean.Maintainer().ApplyBatch(batch); err != nil {
					t.Fatalf("clean replay of committed batch %d: %v", i, err)
				}
			}
			wantBase, wantView := gather(t, clean)
			if !base.EqualStates(wantBase) || !vw.EqualStates(wantView) {
				t.Errorf("%s: %d of %d batches committed, but the end state is not their clean replay",
					fc.name, len(committed), len(data.Batches))
			}
		})
	}
}
