package cluster

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/storage"
)

// Node is one shared-nothing worker. Store is its in-process storage
// manager under the default LocalFabric; on a cluster built over a custom
// fabric (WithFabric) the chunks live elsewhere and Store is nil — address
// chunk traffic through the Cluster's *At helpers instead.
type Node struct {
	ID    int
	Store *storage.Store
}

// Cluster is the distributed array database: N worker nodes plus a
// coordinator, a centralized system catalog mapping chunks to nodes, the
// cost model used to account plans, and the fabric all chunk traffic to
// worker nodes flows through. With the default LocalFabric the cluster is
// the paper's in-process simulator; with a network fabric the same plans
// execute over real sockets.
type Cluster struct {
	nodes       []*Node
	coordinator *storage.Store
	catalog     *Catalog
	model       CostModel
	workers     int
	fabric      Fabric
	epochs      *Epochs
	durable     atomic.Pointer[DurableSink]
}

// Option configures a Cluster.
type Option func(*Cluster)

// WithCostModel overrides the default calibrated cost model.
func WithCostModel(m CostModel) Option {
	return func(c *Cluster) { c.model = m }
}

// WithWorkersPerNode sets the worker-thread pool size per node. The paper
// sets it to the core count; we default to a value that keeps the whole
// simulation within the host's cores.
func WithWorkersPerNode(n int) Option {
	return func(c *Cluster) {
		if n > 0 {
			c.workers = n
		}
	}
}

// WithFabric replaces the default in-process fabric. The fabric's node
// count must match the cluster's. Nodes of a cluster built on a custom
// fabric carry no local store — all chunk traffic goes through the fabric.
func WithFabric(f Fabric) Option {
	return func(c *Cluster) { c.fabric = f }
}

// New creates a cluster with numNodes workers.
func New(numNodes int, opts ...Option) (*Cluster, error) {
	if numNodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", numNodes)
	}
	c := &Cluster{
		coordinator: storage.NewStore(),
		catalog:     NewCatalog(),
		model:       DefaultCostModel(),
		workers:     max(1, runtime.NumCPU()/numNodes),
	}
	c.epochs = newEpochs(c)
	for _, opt := range opts {
		opt(c)
	}
	if c.fabric == nil {
		stores := make([]*storage.Store, numNodes)
		for i := range stores {
			stores[i] = storage.NewStore()
			c.nodes = append(c.nodes, &Node{ID: i, Store: stores[i]})
		}
		c.fabric = NewLocalFabric(stores)
	} else {
		if c.fabric.NumNodes() != numNodes {
			return nil, fmt.Errorf("cluster: fabric addresses %d nodes, cluster has %d", c.fabric.NumNodes(), numNodes)
		}
		for i := 0; i < numNodes; i++ {
			c.nodes = append(c.nodes, &Node{ID: i})
		}
	}
	return c, nil
}

// NumNodes returns the worker count.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Catalog returns the system catalog.
func (c *Cluster) Catalog() *Catalog { return c.catalog }

// CostModel returns the cluster's cost model.
func (c *Cluster) CostModel() CostModel { return c.model }

// NewLedger returns a fresh per-batch ledger for this cluster.
func (c *Cluster) NewLedger() *Ledger { return NewLedger(len(c.nodes), c.model) }

// Fabric returns the data plane the cluster was built with.
func (c *Cluster) Fabric() Fabric { return c.fabric }

// Epochs returns the cluster's snapshot-isolation manager (disabled until
// Epochs().Enable is called).
func (c *Cluster) Epochs() *Epochs { return c.epochs }

// DurableSink receives durability barriers from the maintenance layer.
// internal/wal implements it; the interface lives here so cluster stays
// free of a wal dependency. CommitBarrier makes the current cluster state
// (store mutations, catalog, pending log) the crash-recovery point;
// RollbackBarrier does the same for the restored pre-batch state after an
// abort. A barrier may only be issued when no batch is mid-commit.
type DurableSink interface {
	CommitBarrier() error
	RollbackBarrier() error
}

// SetDurable installs (or clears, with nil) the cluster's durable sink.
// Install before maintenance traffic starts; the maintenance layer reads
// it at every commit/rollback boundary.
func (c *Cluster) SetDurable(d DurableSink) { c.durable.Store(&d) }

// Durable returns the installed durable sink, or nil.
func (c *Cluster) Durable() DurableSink {
	if p := c.durable.Load(); p != nil {
		return *p
	}
	return nil
}

// Node returns the node with the given ID.
func (c *Cluster) Node(id int) *Node {
	if id < 0 || id >= len(c.nodes) {
		panic(fmt.Sprintf("cluster: node %d out of range [0, %d)", id, len(c.nodes)))
	}
	return c.nodes[id]
}

// PutAt stores a chunk at a node (or the coordinator) via the fabric.
func (c *Cluster) PutAt(node int, arrayName string, ch *array.Chunk) error {
	if node == Coordinator {
		return c.coordinator.Put(arrayName, ch)
	}
	return c.fabric.Put(node, arrayName, ch)
}

// GetAt fetches a chunk from a node (or the coordinator) via the fabric.
func (c *Cluster) GetAt(node int, arrayName string, key array.ChunkKey) (*array.Chunk, error) {
	if node == Coordinator {
		return c.coordinator.Get(arrayName, key)
	}
	return c.fabric.Get(node, arrayName, key)
}

// HasAt reports chunk residency at a node (or the coordinator).
func (c *Cluster) HasAt(node int, arrayName string, key array.ChunkKey) (bool, error) {
	if node == Coordinator {
		return c.coordinator.Has(arrayName, key), nil
	}
	return c.fabric.Has(node, arrayName, key)
}

// DeleteAt evicts a chunk from a node (or the coordinator).
func (c *Cluster) DeleteAt(node int, arrayName string, key array.ChunkKey) (bool, error) {
	if node == Coordinator {
		return c.coordinator.Delete(arrayName, key)
	}
	return c.fabric.Delete(node, arrayName, key)
}

// MergeAt folds src into the node-resident chunk with the same coordinate
// under the spec's semantics. The source chunk is consumed — a cell merge
// moves its tuples instead of cloning them — so callers must not reuse src
// after the call.
func (c *Cluster) MergeAt(node int, arrayName string, src *array.Chunk, spec MergeSpec) error {
	if node == Coordinator {
		fn, err := spec.Func()
		if err != nil {
			return err
		}
		return c.coordinator.Merge(arrayName, src, fn)
	}
	return c.fabric.Merge(node, arrayName, src, spec)
}

// KeysAt lists a node's resident chunk keys for one array.
func (c *Cluster) KeysAt(node int, arrayName string) ([]array.ChunkKey, error) {
	if node == Coordinator {
		return c.coordinator.Keys(arrayName), nil
	}
	return c.fabric.Keys(node, arrayName)
}

// DropArrayAt evicts every chunk of the named array from a node.
func (c *Cluster) DropArrayAt(node int, arrayName string) (int, error) {
	if node == Coordinator {
		return c.coordinator.DropArray(arrayName)
	}
	return c.fabric.DropArray(node, arrayName)
}

// LoadArray registers the array and distributes its chunks to nodes using
// the placement strategy, feeding chunks in row-major key order so that
// RoundRobin reproduces the paper's layout.
func (c *Cluster) LoadArray(a *array.Array, p Placement) error {
	if err := c.catalog.Register(a.Schema()); err != nil {
		return err
	}
	name := a.Schema().Name
	var err error
	a.EachChunk(func(ch *array.Chunk) bool {
		node := p.Place(ch.Key(), len(c.nodes))
		if node < 0 || node >= len(c.nodes) {
			err = fmt.Errorf("cluster: placement returned node %d", node)
			return false
		}
		if err = c.fabric.Put(node, name, ch); err != nil {
			return false
		}
		if err = c.catalog.SetChunk(name, ch.Key(), node, ch.SizeBytes(), ch.NumCells()); err != nil {
			return false
		}
		// The loader holds the chunk it just wrote, so it may record the
		// content hash that future transfers offer instead of the body.
		if err = c.catalog.SetChunkHash(name, ch.Key(), ch.ContentHash(), ch.EncodedSize()); err != nil {
			return false
		}
		if bb, ok := ch.BoundingBox(); ok {
			if err = c.catalog.SetChunkBBox(name, ch.Key(), bb); err != nil {
				return false
			}
		}
		return true
	})
	return err
}

// StageDelta places a batch's delta chunks at the coordinator and records
// them in the catalog with home = Coordinator. Chunks for an unregistered
// array are an error.
func (c *Cluster) StageDelta(name string, chunks []*array.Chunk) error {
	if c.catalog.Schema(name) == nil {
		return fmt.Errorf("cluster: array %q not registered", name)
	}
	for _, ch := range chunks {
		if err := c.coordinator.Put(name, ch); err != nil {
			return err
		}
		if err := c.catalog.SetChunk(name, ch.Key(), Coordinator, ch.SizeBytes(), ch.NumCells()); err != nil {
			return err
		}
		if err := c.catalog.SetChunkHash(name, ch.Key(), ch.ContentHash(), ch.EncodedSize()); err != nil {
			return err
		}
		if bb, ok := ch.BoundingBox(); ok {
			if err := c.catalog.SetChunkBBox(name, ch.Key(), bb); err != nil {
				return err
			}
		}
	}
	return nil
}

// Transfer copies a chunk from one node (or the coordinator) to another and
// charges the sender on the ledger with the bytes actually shipped. The
// catalog gains a replica entry; the home assignment is unchanged.
// Transfers to a node already holding a replica are free no-ops — but only
// after the fabric confirms the copy is actually resident: a catalog
// replica entry can outlive the data (a node daemon restart empties its
// store), and skipping the ship then surfaces later as a misleading read
// failure far from the cause.
//
// When the catalog knows the chunk's content hash and the fabric speaks the
// wire protocol, the transfer first offers (key, hash) to the destination;
// an accepted offer means the destination produced the content locally and
// the body ship — and its ledger charge — is skipped entirely.
func (c *Cluster) Transfer(ledger *Ledger, name string, key array.ChunkKey, from, to int) error {
	if from == to {
		return nil
	}
	if c.catalog.HasReplica(name, key, to) {
		if resident, err := c.HasAt(to, name, key); err == nil && resident {
			return nil
		}
		// Stale replica entry: fall through and re-ship the chunk.
	}
	if accepted, err := c.offerOne(name, key, to); err == nil && accepted {
		return c.catalog.AddReplica(name, key, to)
	}
	ch, src, err := c.readReplica(name, key, from)
	if err != nil {
		return fmt.Errorf("cluster: transfer %v of %q from node %d: %w", key, name, from, err)
	}
	if err := c.PutAtRetry(to, name, ch); err != nil {
		return fmt.Errorf("cluster: transfer %v of %q to node %d: %w", key, name, to, err)
	}
	if err := c.catalog.AddReplica(name, key, to); err != nil {
		return err
	}
	// The transfer just read the current content, so its hash may be
	// recorded: replicas are always copies of the current version, making
	// the next ship of this chunk a pure handshake.
	if _, _, known := c.catalog.ChunkHash(name, key); !known {
		_ = c.catalog.SetChunkHash(name, key, ch.ContentHash(), ch.EncodedSize())
	}
	if ledger != nil {
		// Charge the node actually read: under failover the sender differs
		// from the planned source, and the ledger should reflect the bytes
		// that really moved.
		ledger.ChargeTransferTo(src, to, c.catalog.ChunkSize(name, key))
	}
	return nil
}

// offerOne runs the dedup handshake for a single chunk against a worker
// node. accepted=false (with a nil error) covers every "just full-ship"
// case: unknown hash, a fabric without the wire protocol, or a declined
// offer. Errors are reported so callers can distinguish a down node.
func (c *Cluster) offerOne(name string, key array.ChunkKey, to int) (bool, error) {
	if to == Coordinator {
		return false, nil
	}
	wf, ok := c.fabric.(WireFabric)
	if !ok {
		return false, nil
	}
	h, sz, ok := c.catalog.ChunkHash(name, key)
	if !ok {
		return false, nil
	}
	acc, err := wf.OfferBatch(to, []WireItem{{Array: name, Key: key, Hash: h, Size: sz}})
	if err != nil {
		return false, err
	}
	return len(acc) == 1 && acc[0], nil
}

// TransferItem names one chunk of a batched transfer.
type TransferItem struct {
	Array string
	Key   array.ChunkKey
}

// TransferBatch ships several chunks from one node (or the coordinator) to
// another in a pipelined exchange: one dedup offer round for every chunk
// with a known content hash, one batched encoded read from the source, and
// one batched encoded write to the destination — three round trips for the
// whole wave instead of two per chunk. Chunks the destination already holds
// (or adopts from the offer) ship nothing and charge nothing; the rest
// charge the ledger with their full encoded payload, per the actual-bytes
// rule on Ledger.ChargeTransferTo. On fabrics without the wire protocol, or
// when any batched call fails, it falls back to per-chunk Transfer, which
// adds replica failover and node-down tolerance.
func (c *Cluster) TransferBatch(ledger *Ledger, items []TransferItem, from, to int) error {
	if from == to || len(items) == 0 {
		return nil
	}
	wf, wok := c.fabric.(WireFabric)
	if !wok || to == Coordinator {
		return c.transferEach(ledger, items, from, to)
	}

	// Partition: verified-resident chunks are done; chunks with a known
	// hash go into the offer; the rest ship in full. A catalog replica
	// entry alone is not trusted — for hashless chunks it is re-verified
	// with HasAt, for hashed chunks the offer itself confirms residency.
	var offers []WireItem
	var need []TransferItem
	for _, it := range items {
		h, sz, hok := c.catalog.ChunkHash(it.Array, it.Key)
		if hok {
			offers = append(offers, WireItem{Array: it.Array, Key: it.Key, Hash: h, Size: sz})
			continue
		}
		if c.catalog.HasReplica(it.Array, it.Key, to) {
			if resident, err := c.HasAt(to, it.Array, it.Key); err == nil && resident {
				continue
			}
		}
		need = append(need, it)
	}
	if len(offers) > 0 {
		acc, err := wf.OfferBatch(to, offers)
		if err != nil || len(acc) != len(offers) {
			return c.transferEach(ledger, items, from, to)
		}
		for i, o := range offers {
			if acc[i] {
				if err := c.catalog.AddReplica(o.Array, o.Key, to); err != nil {
					return err
				}
			} else {
				need = append(need, TransferItem{Array: o.Array, Key: o.Key})
			}
		}
	}
	if len(need) == 0 {
		return nil
	}

	// Batched body ship for the refused/hashless remainder.
	ship := make([]WireItem, len(need))
	for i, it := range need {
		ship[i] = WireItem{Array: it.Array, Key: it.Key}
	}
	if from == Coordinator {
		for i := range ship {
			buf, ok := c.coordinator.GetEncoded(ship[i].Array, ship[i].Key)
			if !ok {
				return c.transferEach(ledger, need, from, to)
			}
			ship[i].Data = buf
		}
	} else {
		bufs, err := wf.GetEncodedBatch(from, ship)
		if err != nil || len(bufs) != len(ship) {
			return c.transferEach(ledger, need, from, to)
		}
		for i := range ship {
			ship[i].Data = bufs[i]
		}
	}
	for i := range ship {
		ship[i].Size = int64(len(ship[i].Data))
		ship[i].Hash = array.HashChunkBytes(ship[i].Data)
	}
	if err := wf.PutEncodedBatch(to, ship); err != nil {
		return c.transferEach(ledger, need, from, to)
	}
	for i, it := range need {
		if err := c.catalog.AddReplica(it.Array, it.Key, to); err != nil {
			return err
		}
		// Shipped bytes are the current content by the replica invariant,
		// so the hash (computed above for the wire items) is recordable.
		if _, _, known := c.catalog.ChunkHash(it.Array, it.Key); !known {
			_ = c.catalog.SetChunkHash(it.Array, it.Key, ship[i].Hash, ship[i].Size)
		}
		if ledger != nil {
			ledger.ChargeTransferTo(from, to, c.catalog.ChunkSize(it.Array, it.Key))
		}
	}
	return nil
}

// transferEach is TransferBatch's per-chunk fallback path.
func (c *Cluster) transferEach(ledger *Ledger, items []TransferItem, from, to int) error {
	for _, it := range items {
		if err := c.Transfer(ledger, it.Array, it.Key, from, to); err != nil {
			return err
		}
	}
	return nil
}

// PutAtRetry stores a chunk with bounded retries. A write whose ack was lost
// may actually have applied, and Put is an idempotent overwrite, so retrying
// recovers one-shot ack loss; retries stop early when the node itself is
// down (failover, not persistence, is the answer there).
func (c *Cluster) PutAtRetry(node int, arrayName string, ch *array.Chunk) error {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = c.PutAt(node, arrayName, ch); err == nil {
			return nil
		}
		if IsNodeDown(err) {
			return err
		}
	}
	return err
}

// ReadReplica fetches a chunk from the preferred node, failing over to every
// catalog replica (and the home node); it returns the node actually read so
// callers can charge the true sender. Exported for executors that need to
// know the source of a failover read.
func (c *Cluster) ReadReplica(name string, key array.ChunkKey, prefer int) (*array.Chunk, int, error) {
	return c.readReplica(name, key, prefer)
}

// ReadError is the typed failure of a replicated chunk read: every candidate
// copy (preferred node, catalog replicas, home) was tried and none produced
// the chunk. Callers distinguishing "data truly unavailable" from transient
// single-node errors — Gather during failover, snapshot reads — match on it
// with errors.As; the partial result preceding it must be discarded, never
// returned as if complete.
type ReadError struct {
	Array string
	Key   array.ChunkKey
	// Tried lists the node IDs attempted, in order.
	Tried []int
	// Err is the error from the last attempt (nil when there was no
	// candidate at all, i.e. the chunk is unknown to the catalog).
	Err error
}

// Error implements error.
func (e *ReadError) Error() string {
	if e.Err == nil {
		return fmt.Sprintf("cluster: chunk %v of %q unknown", e.Key, e.Array)
	}
	return fmt.Sprintf("cluster: chunk %v of %q unreadable on all %d replicas %v: %v",
		e.Key, e.Array, len(e.Tried), e.Tried, e.Err)
}

// Unwrap exposes the last per-node error for errors.Is/As chains (e.g.
// IsNodeDown).
func (e *ReadError) Unwrap() error { return e.Err }

// readReplica fetches a chunk from the preferred node, failing over to every
// other catalog replica (and the home node) when the preferred copy is
// unreachable or missing. It returns the chunk and the node actually read so
// callers can charge the true sender. With no usable copy anywhere it
// returns a *ReadError naming every node tried.
func (c *Cluster) readReplica(name string, key array.ChunkKey, prefer int) (*array.Chunk, int, error) {
	cands := append([]int{prefer}, c.catalog.Replicas(name, key)...)
	if home, ok := c.catalog.Home(name, key); ok {
		cands = append(cands, home)
	}
	seen := make(map[int]bool, len(cands))
	rerr := &ReadError{Array: name, Key: key}
	for _, n := range cands {
		if seen[n] {
			continue
		}
		seen[n] = true
		ch, err := c.GetAt(n, name, key)
		if err == nil {
			return ch, n, nil
		}
		rerr.Tried = append(rerr.Tried, n)
		rerr.Err = err
	}
	return nil, 0, rerr
}

// FetchChunk reads a chunk from whichever node it is resident on (preferring
// the requested node) without charging the ledger; used by executors that
// already paid for transfers in the plan.
func (c *Cluster) FetchChunk(name string, key array.ChunkKey, at int) (*array.Chunk, error) {
	if at != Coordinator {
		if ok, err := c.HasAt(at, name, key); err == nil && ok {
			if ch, err := c.GetAt(at, name, key); err == nil {
				return ch, nil
			}
		}
	}
	home, ok := c.catalog.Home(name, key)
	if !ok {
		return nil, fmt.Errorf("cluster: chunk %v of %q unknown", key, name)
	}
	ch, _, err := c.readReplica(name, key, home)
	return ch, err
}

// Gather reconstructs the full logical array from the distributed chunks,
// reading each chunk from its home node. Used by tests and by clients that
// want a local copy. When any chunk is unreadable on every replica the whole
// gather fails with a *ReadError — a partial array is never returned, so a
// replica vanishing mid-read during failover surfaces as a typed error
// instead of silently missing data.
func (c *Cluster) Gather(name string) (*array.Array, error) {
	s := c.catalog.Schema(name)
	if s == nil {
		return nil, fmt.Errorf("cluster: array %q not registered", name)
	}
	out := array.New(s)
	for _, key := range c.catalog.Keys(name) {
		home, _ := c.catalog.Home(name, key)
		ch, _, err := c.readReplica(name, key, home)
		if err != nil {
			return nil, err
		}
		out.PutChunk(ch)
	}
	return out, nil
}

// Task is one unit of node-local work (a chunk-pair join or a view merge).
type Task func() error

// RunPerNode executes each node's task list concurrently: nodes run in
// parallel with each other and each node processes its own queue with the
// configured per-node worker pool, mirroring the paper's thread-pool
// servers. The first error aborts scheduling of further tasks and is
// returned.
func (c *Cluster) RunPerNode(tasks map[int][]Task) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	nodeIDs := make([]int, 0, len(tasks))
	for id := range tasks {
		nodeIDs = append(nodeIDs, id)
	}
	sort.Ints(nodeIDs)
	for _, id := range nodeIDs {
		queue := tasks[id]
		wg.Add(1)
		go func() {
			defer wg.Done()
			ch := make(chan Task)
			var nodeWG sync.WaitGroup
			for w := 0; w < c.workers; w++ {
				nodeWG.Add(1)
				go func() {
					defer nodeWG.Done()
					for t := range ch {
						if err := t(); err != nil {
							setErr(err)
						}
					}
				}()
			}
			for _, t := range queue {
				if failed() {
					break
				}
				ch <- t
			}
			close(ch)
			nodeWG.Wait()
		}()
	}
	wg.Wait()
	return firstErr
}
