package transport_test

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/cluster"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/storage"
	"github.com/arrayview/arrayview/internal/transport"
)

// fetchStats GETs the node's metrics endpoint and decodes the snapshot.
func fetchStats(t *testing.T, url string) transport.ServerStats {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	var st transport.ServerStats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding %s: %v\n%s", url, err, body)
	}
	return st
}

// TestMetricsEndpointCountersMove drives the ivmnode metrics endpoint end
// to end: start loopback daemons with an HTTP metrics listener on one of
// them, maintain a batch through the TCP fabric, and check that the
// node's counters observed over HTTP actually moved.
func TestMetricsEndpointCountersMove(t *testing.T) {
	const nodes = 3
	lc, err := transport.StartLoopback(nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	ms, err := obs.StartMetrics("127.0.0.1:0", func() any { return lc.Servers[0].Stats() })
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	url := "http://" + ms.Addr()

	before := fetchStats(t, url)

	fab, err := lc.Fabric(transport.DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	cl, err := cluster.New(nodes, cluster.WithWorkersPerNode(2), cluster.WithFabric(fab))
	if err != nil {
		t.Fatal(err)
	}
	_, batch := e2eData(t)
	_, reports := runSequence(t, cl, "reassign", []*array.Array{batch})

	after := fetchStats(t, url)
	if after.FramesIn <= before.FramesIn {
		t.Errorf("FramesIn did not move: before=%d after=%d", before.FramesIn, after.FramesIn)
	}
	if after.BytesIn <= before.BytesIn {
		t.Errorf("BytesIn did not move: before=%d after=%d", before.BytesIn, after.BytesIn)
	}
	if after.StoreChunks == 0 {
		t.Error("StoreChunks = 0 after loading an array over the fabric")
	}
	total := int64(0)
	for _, n := range after.Requests {
		total += n
	}
	if total == 0 {
		t.Error("no per-type requests recorded on the server")
	}
	if after.Requests["PutChunk"] == 0 {
		t.Errorf("Requests[PutChunk] = 0; requests = %v", after.Requests)
	}

	// The maintained batch must carry a phase trace with the join phase
	// and at least one per-node task timing.
	rep := reports[0]
	if rep.Trace == nil {
		t.Fatal("report has no trace")
	}
	if rep.Trace.PhaseSeconds(obs.PhaseJoin) <= 0 {
		t.Errorf("join phase has no wall-clock; phases = %v", rep.Trace.Phases())
	}
	if len(rep.Trace.Nodes()) == 0 {
		t.Error("trace has no per-node task timings")
	}

	// And the fabric-side counters surfaced through cluster.FabricStats
	// must agree that traffic happened.
	for node := 0; node < nodes; node++ {
		st, err := cl.Fabric().Stats(node)
		if err != nil {
			t.Fatalf("fabric stats node %d: %v", node, err)
		}
		if st.Net.TotalRequests() == 0 {
			t.Errorf("node %d: fabric counters show no requests", node)
		}
		if st.Net.BytesOut == 0 {
			t.Errorf("node %d: fabric counters show no bytes out", node)
		}
	}
}

// Regression: Transfer used to trust the catalog's replica entry without
// checking the fabric. After a node daemon restart (its store is empty)
// the replica is gone; the old code turned the re-ship into a no-op and
// the next read at the destination failed far from the cause. Transfer
// must verify residency and re-ship.
func TestTransferReshipsAfterNodeRestart(t *testing.T) {
	const nodes = 2
	lc, err := transport.StartLoopback(nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	fab, err := lc.Fabric(transport.DefaultClientConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	cl, err := cluster.New(nodes, cluster.WithWorkersPerNode(1), cluster.WithFabric(fab))
	if err != nil {
		t.Fatal(err)
	}

	base, _ := e2eData(t)
	if err := cl.LoadArray(base, &cluster.RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	// Pick any chunk homed on node 0 and replicate it to node 1.
	var key array.ChunkKey
	found := false
	for _, k := range cl.Catalog().Keys("cat") {
		if home, ok := cl.Catalog().Home("cat", k); ok && home == 0 {
			key, found = k, true
			break
		}
	}
	if !found {
		t.Fatal("no chunk homed on node 0")
	}
	if err := cl.Transfer(nil, "cat", key, 0, 1); err != nil {
		t.Fatal(err)
	}
	if ok, err := cl.HasAt(1, "cat", key); err != nil || !ok {
		t.Fatalf("replica not resident on node 1 after transfer: ok=%v err=%v", ok, err)
	}

	// Genuinely restart the node-1 daemon: kill it and bring a new process
	// instance up on the same address with a fresh, empty store. The
	// coordinator's catalog still lists the replica, and the fabric's
	// pooled connections to the old daemon are now dead — both of which
	// the re-ship path has to cope with.
	addr := lc.Servers[1].Addr()
	if err := lc.Servers[1].Close(); err != nil {
		t.Fatal(err)
	}
	srv2 := transport.NewNodeServer(storage.NewStore(), nil)
	var lerr error
	for attempt := 0; attempt < 50; attempt++ {
		if lerr = srv2.Listen(addr); lerr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if lerr != nil {
		t.Fatalf("rebinding %s after restart: %v", addr, lerr)
	}
	lc.Servers[1] = srv2 // lc.Close tears the new daemon down
	if !cl.Catalog().HasReplica("cat", key, 1) {
		t.Fatal("catalog lost the replica entry; test setup broken")
	}
	if resident, err := cl.HasAt(1, "cat", key); err != nil {
		t.Fatalf("HasAt over restarted daemon: %v", err)
	} else if resident {
		t.Fatal("restarted daemon still holds the chunk — restart was not genuine")
	}

	// Pre-fix this was a silent no-op and the GetAt below failed.
	if err := cl.Transfer(nil, "cat", key, 0, 1); err != nil {
		t.Fatalf("re-transfer after restart: %v", err)
	}
	ch, err := cl.GetAt(1, "cat", key)
	if err != nil {
		t.Fatalf("GetAt(1) after re-transfer: %v", err)
	}
	if ch == nil || ch.NumCells() == 0 {
		t.Fatal("re-shipped chunk is empty")
	}
}
