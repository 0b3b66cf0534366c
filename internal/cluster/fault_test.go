package cluster

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/storage"
)

func faultCluster(t *testing.T, numNodes int) (*Cluster, *FaultFabric) {
	t.Helper()
	stores := make([]*storage.Store, numNodes)
	for i := range stores {
		stores[i] = storage.NewStore()
	}
	ff := NewFaultFabric(NewLocalFabric(stores), 1)
	cl, err := New(numNodes, WithFabric(ff.AsFabric()))
	if err != nil {
		t.Fatal(err)
	}
	return cl, ff
}

func TestIsNodeDown(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("plain"), false},
		{ErrNodeDown, true},
		{fmt.Errorf("wrapped: %w", ErrNodeDown), true},
		{&net.OpError{Op: "dial", Err: errors.New("connection refused")}, true},
		{fmt.Errorf("transport: %w", &net.OpError{Op: "read", Err: errors.New("reset")}), true},
	}
	for i, c := range cases {
		if got := IsNodeDown(c.err); got != c.want {
			t.Errorf("case %d: IsNodeDown(%v) = %v, want %v", i, c.err, got, c.want)
		}
	}
}

func TestFaultErrorInjection(t *testing.T) {
	cl, ff := faultCluster(t, 3)
	if err := cl.LoadArray(fig1Array(), &RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	key := cl.Catalog().Keys("A")[0]

	rule := ff.Inject(&FaultRule{Node: 0, Op: "Get", Kind: FaultError})
	if _, err := cl.GetAt(0, "A", key); err == nil {
		t.Fatal("injected Get fault must surface")
	} else if !IsNodeDown(err) {
		t.Fatalf("default injected error must be node-down, got %v", err)
	}
	if rule.Fired() != 1 {
		t.Fatalf("rule fired %d times, want 1", rule.Fired())
	}
	// Other nodes and other ops are untouched.
	if _, err := cl.KeysAt(0, "A"); err != nil {
		t.Fatalf("unmatched op must pass through: %v", err)
	}
	if ff.FaultCounts().Errors != 1 {
		t.Fatalf("error counter = %d, want 1", ff.FaultCounts().Errors)
	}
	ff.ClearRules()
	if _, err := cl.GetAt(0, "A", key); err != nil {
		t.Fatalf("after ClearRules Get must succeed: %v", err)
	}
}

func TestFaultRuleAfterAndCount(t *testing.T) {
	cl, ff := faultCluster(t, 2)
	if err := cl.LoadArray(fig1Array(), &RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	key := cl.Catalog().Keys("A")[0] // home = node 0

	ff.Inject(&FaultRule{Node: 0, Op: "Has", Kind: FaultError, After: 1, Count: 2})
	var errs int
	for i := 0; i < 5; i++ {
		if _, err := cl.HasAt(0, "A", key); err != nil {
			errs++
		}
	}
	// Op 1 passes (After), ops 2-3 fail (Count=2), ops 4-5 pass again.
	if errs != 2 {
		t.Fatalf("got %d injected failures, want 2", errs)
	}
}

func TestFaultLatencyDelaysButSucceeds(t *testing.T) {
	cl, ff := faultCluster(t, 2)
	if err := cl.LoadArray(fig1Array(), &RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	key := cl.Catalog().Keys("A")[0]
	ff.Inject(&FaultRule{Node: AnyNode, Op: "Get", Kind: FaultLatency, Latency: 30 * time.Millisecond, Count: 1})
	start := time.Now()
	if _, err := cl.GetAt(0, "A", key); err != nil {
		t.Fatalf("latency fault must not fail the op: %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("op returned in %v, want >= 30ms injected latency", d)
	}
	if ff.FaultCounts().Latencies != 1 {
		t.Fatalf("latency counter = %d, want 1", ff.FaultCounts().Latencies)
	}
}

func TestFaultDropAfterWriteApplies(t *testing.T) {
	cl, ff := faultCluster(t, 2)
	if err := cl.LoadArray(fig1Array(), &RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	key := cl.Catalog().Keys("A")[0]
	ch, err := cl.GetAt(0, "A", key)
	if err != nil {
		t.Fatal(err)
	}

	ff.Inject(&FaultRule{Node: 1, Op: "Put", Kind: FaultDropAfterWrite, Count: 1})
	err = cl.PutAt(1, "A", ch)
	if err == nil {
		t.Fatal("dropped ack must surface as an error")
	}
	if IsNodeDown(err) {
		t.Fatalf("ack loss is not node-down: %v", err)
	}
	// The write itself applied: the chunk is resident despite the error.
	if ok, herr := cl.HasAt(1, "A", key); herr != nil || !ok {
		t.Fatalf("write behind dropped ack must have applied (resident=%v, err=%v)", ok, herr)
	}
	if ff.FaultCounts().AcksDropped != 1 {
		t.Fatalf("acksDropped counter = %d, want 1", ff.FaultCounts().AcksDropped)
	}
}

func TestFaultBlackoutBlocksEverything(t *testing.T) {
	cl, ff := faultCluster(t, 3)
	if err := cl.LoadArray(fig1Array(), &RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	key := cl.Catalog().Keys("A")[1] // home = node 1
	ch, err := cl.GetAt(1, "A", key)
	if err != nil {
		t.Fatal(err)
	}

	ff.Blackout(1)
	if _, err := cl.GetAt(1, "A", key); !IsNodeDown(err) {
		t.Fatalf("Get on blacked-out node: got %v, want node-down", err)
	}
	// A Put during blackout must NOT apply (the node never saw it).
	other := cl.Catalog().Keys("A")[0]
	och, err := cl.GetAt(0, "A", other)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.PutAt(1, "A", och); !IsNodeDown(err) {
		t.Fatalf("Put on blacked-out node: got %v, want node-down", err)
	}
	ff.Restore(1)
	if ok, err := cl.HasAt(1, "A", other); err != nil || ok {
		t.Fatalf("blackout Put must not have applied (resident=%v, err=%v)", ok, err)
	}
	if _, err := cl.GetAt(1, "A", ch.Key()); err != nil {
		t.Fatalf("after Restore node must answer: %v", err)
	}
	if ff.FaultCounts().Blackouts == 0 {
		t.Fatal("blackout counter must record refused ops")
	}
}

func TestAsFabricPreservesJoinCapability(t *testing.T) {
	plain := NewLocalFabric([]*storage.Store{storage.NewStore()})
	ff := NewFaultFabric(plain, 1)
	if _, ok := ff.AsFabric().(JoinFabric); ok {
		t.Fatal("FaultFabric over a plain Fabric must not advertise ExecuteJoin")
	}
	jf := &stubJoinFabric{LocalFabric: plain}
	ffj := NewFaultFabric(jf, 1)
	if _, ok := ffj.AsFabric().(JoinFabric); !ok {
		t.Fatal("FaultFabric over a JoinFabric must stay join-capable")
	}
}

type stubJoinFabric struct {
	*LocalFabric
}

func (s *stubJoinFabric) ExecuteJoin(node int, req JoinRequest) ([]*array.Chunk, error) {
	return nil, nil
}

func TestTransferFailsOverToReplica(t *testing.T) {
	cl, ff := faultCluster(t, 3)
	if err := cl.LoadArray(fig1Array(), &RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	key := cl.Catalog().Keys("A")[0] // home = node 0
	// Seed a replica on node 1, then kill the home node.
	if err := cl.Transfer(nil, "A", key, 0, 1); err != nil {
		t.Fatal(err)
	}
	ff.Blackout(0)

	// A transfer whose planned source is dead must fail over to the replica.
	ledger := cl.NewLedger()
	if err := cl.Transfer(ledger, "A", key, 0, 2); err != nil {
		t.Fatalf("transfer with dead source must fail over: %v", err)
	}
	if ok, err := cl.HasAt(2, "A", key); err != nil || !ok {
		t.Fatalf("chunk must be resident on node 2 (resident=%v, err=%v)", ok, err)
	}
	// The true sender — the replica — is charged, not the dead home.
	if ledger.Ntwk(1) == 0 {
		t.Error("replica sender must be charged for the failover ship")
	}
	if ledger.Ntwk(0) != 0 {
		t.Error("dead planned source must not be charged")
	}

	// Gather also reads around the dead home.
	if _, err := cl.Gather("A"); err == nil {
		t.Log("gather succeeded (other chunks on node 0 have no replicas, so failure is also acceptable)")
	}
}

func TestGatherFailsOverToReplica(t *testing.T) {
	cl, ff := faultCluster(t, 2)
	if err := cl.LoadArray(fig1Array(), &RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	a := fig1Array()
	// Replicate every node-0 chunk onto node 1, then black out node 0.
	for _, key := range cl.Catalog().Keys("A") {
		if home, _ := cl.Catalog().Home("A", key); home == 0 {
			if err := cl.Transfer(nil, "A", key, 0, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	ff.Blackout(0)
	back, err := cl.Gather("A")
	if err != nil {
		t.Fatalf("gather must fail over to replicas: %v", err)
	}
	if !back.Equal(a) {
		t.Error("failover gather must reconstruct the full array")
	}
}

func TestCatalogUnregisteredErrors(t *testing.T) {
	cat := NewCatalog()
	key := array.ChunkKey("1|1")
	if err := cat.SetChunk("ghost", key, 0, 1, 1); err == nil {
		t.Error("SetChunk on unregistered array must error")
	}
	if err := cat.SetChunkBBox("ghost", key, array.Region{}); err == nil {
		t.Error("SetChunkBBox on unregistered array must error")
	}
	if err := cat.AddReplica("ghost", key, 0); err == nil {
		t.Error("AddReplica on unregistered array must error")
	}
	if err := cat.Rehome("ghost", key, 0, false); err == nil {
		t.Error("Rehome on unregistered array must error")
	}
	cat.ClearReplicas("ghost") // must not panic
	cat.RemoveReplica("ghost", key, 0)
}

func TestCatalogSnapshotRestore(t *testing.T) {
	cl, _ := faultCluster(t, 3)
	if err := cl.LoadArray(fig1Array(), &RoundRobin{}); err != nil {
		t.Fatal(err)
	}
	cat := cl.Catalog()
	key := cat.Keys("A")[0]
	snap, ok := cat.SnapshotMeta("A")
	if !ok {
		t.Fatal("SnapshotMeta of registered array must succeed")
	}
	if _, ok := cat.SnapshotMeta("ghost"); ok {
		t.Fatal("SnapshotMeta of unknown array must report !ok")
	}

	// Mutate metadata after the snapshot.
	if err := cat.SetChunk("A", key, 2, 999, 42); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddReplica("A", key, 1); err != nil {
		t.Fatal(err)
	}
	cat.DropChunk("A", cat.Keys("A")[1])

	cat.RestoreMeta("A", snap)
	if home, _ := cat.Home("A", key); home != 0 {
		t.Errorf("restored home = %d, want 0", home)
	}
	if cat.ChunkSize("A", key) == 999 {
		t.Error("restored size must be pre-mutation")
	}
	if len(cat.Keys("A")) != 6 {
		t.Errorf("restored catalog has %d chunks, want 6", len(cat.Keys("A")))
	}
	// The snapshot is reusable: mutate and restore again.
	if err := cat.SetChunk("A", key, 1, 5, 5); err != nil {
		t.Fatal(err)
	}
	cat.RestoreMeta("A", snap)
	if home, _ := cat.Home("A", key); home != 0 {
		t.Error("second restore from the same snapshot must work")
	}
}
