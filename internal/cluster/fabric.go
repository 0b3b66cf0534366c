package cluster

import (
	"fmt"
	"sync"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/obs"
	"github.com/arrayview/arrayview/internal/storage"
)

// Fabric is the data plane of the cluster: every chunk read, write, merge,
// and eviction against a worker node goes through it. Two implementations
// exist: LocalFabric (in-process stores, the default, zero network) and the
// TCP fabric in internal/transport (real byte shipping to node daemons).
// The coordinator's store is always local to the process driving the
// cluster and is not addressed through the fabric.
//
// Node indices are worker IDs in [0, NumNodes()).
type Fabric interface {
	// Put stores a chunk on a node, replacing any previous version.
	Put(node int, arrayName string, ch *array.Chunk) error
	// Get fetches a chunk from a node. The returned chunk is a private
	// copy; the error reports non-residency or decode failure.
	Get(node int, arrayName string, key array.ChunkKey) (*array.Chunk, error)
	// Has reports whether the chunk is resident on the node.
	Has(node int, arrayName string, key array.ChunkKey) (bool, error)
	// Delete evicts a chunk, reporting whether it was resident.
	Delete(node int, arrayName string, key array.ChunkKey) (bool, error)
	// Merge folds src into the node's resident chunk with the same
	// coordinate (creating it if absent) under the spec's semantics. The
	// source chunk is consumed: a cell merge may move its tuples instead
	// of cloning them, so callers must not reuse src afterwards.
	Merge(node int, arrayName string, src *array.Chunk, spec MergeSpec) error
	// Keys lists the node's resident chunk keys for one array, sorted.
	Keys(node int, arrayName string) ([]array.ChunkKey, error)
	// DropArray evicts every chunk of the named array from the node and
	// returns how many were dropped.
	DropArray(node int, arrayName string) (int, error)
	// Stats reports the node's storage footprint.
	Stats(node int) (FabricStats, error)
	// NumNodes returns the worker count the fabric addresses.
	NumNodes() int
	// Close releases fabric resources (connections). The local fabric is a
	// no-op.
	Close() error
}

// FabricStats is one node's storage footprint as reported by the fabric,
// plus the cumulative data-plane counters of the traffic this process has
// driven to the node.
type FabricStats struct {
	NumChunks int
	Bytes     int64
	Net       NetCounters
}

// NetCounters is the cumulative per-node data-plane traffic, from the
// coordinator's point of view (out = coordinator→node). On the LocalFabric
// only Requests and the byte counters are meaningful (chunk payload bytes
// moved by Put/Get/Merge); a network fabric fills in frames, retries,
// reconnects, pool traffic, and remote errors.
type NetCounters struct {
	// Requests counts operations issued to the node, by message type name
	// on a network fabric ("PutChunk", "ExecuteJoin", …) and by operation
	// name locally.
	Requests map[string]int64
	// BytesOut and BytesIn are payload (local) or raw socket (network)
	// bytes moved to and from the node.
	BytesOut int64
	BytesIn  int64
	// FramesOut and FramesIn count protocol frames on a network fabric.
	FramesOut int64
	FramesIn  int64
	// Retries counts re-attempted requests; Reconnects counts dials.
	Retries    int64
	Reconnects int64
	// PoolHits and PoolMisses describe connection reuse.
	PoolHits   int64
	PoolMisses int64
	// RemoteErrors counts application-level failures reported by the node.
	RemoteErrors int64

	// Wire-efficiency savings. Both fabrics report these with the same
	// semantics so predicted-vs-measured validation can compare them.
	//
	// DedupHits counts transfer offers the node satisfied from content it
	// already held (resident or sidelined), skipping the body entirely.
	DedupHits int64
	// BytesSavedDedup is the encoded payload bytes those accepted offers
	// avoided shipping.
	BytesSavedDedup int64
	// DeltaShips counts chunk updates shipped as ACHΔ deltas instead of
	// full encodings.
	DeltaShips int64
	// BytesSavedDelta is the full-encoding bytes minus the delta bytes for
	// those ships.
	BytesSavedDelta int64
	// BytesSavedCompress is raw payload bytes minus wire bytes saved by
	// per-frame compression (zero on the local fabric, which has no wire).
	BytesSavedCompress int64
	// RoundTripsSaved counts request round trips avoided: one per accepted
	// dedup offer (the skipped body ship) and n−1 per n-item batched call.
	RoundTripsSaved int64
}

// TotalRequests sums the per-type request counts.
func (n NetCounters) TotalRequests() int64 {
	var total int64
	for _, v := range n.Requests {
		total += v
	}
	return total
}

// JoinRequest asks a node to join two chunks resident in its local store
// and return the partial view-state chunks of the registered view. It is
// the unit of pushed-down join execution: the paper's nodes compute joins
// where the chunks live and ship only differentials.
type JoinRequest struct {
	// View names a view definition previously registered with the node.
	View string
	// P and Q identify the resident chunk pair (P is the α side).
	PArray string
	PKey   array.ChunkKey
	QArray string
	QKey   array.ChunkKey
	// BothDirections marks self-join pairs evaluated in both orientations.
	BothDirections bool
	// Sign scales the contributions (−1 retracts, for deletion batches).
	Sign float64
}

// JoinFabric is implemented by fabrics that can execute chunk-pair joins on
// the node holding the chunks, returning the partial view chunks. Fabrics
// without it (LocalFabric) fall back to executing joins in the driving
// process against fabric-fetched chunks.
type JoinFabric interface {
	Fabric
	ExecuteJoin(node int, req JoinRequest) ([]*array.Chunk, error)
}

// WireItem identifies one chunk in a batched wire-efficiency exchange. In
// offers and encoded reads only the identity fields are set; in encoded
// writes Data carries the canonical ACH1 encoding (Hash and Size describe
// it).
type WireItem struct {
	Array string
	Key   array.ChunkKey
	// Hash is the FNV-1a 64 content hash of the canonical encoding.
	Hash uint64
	// Size is the encoded length in bytes (the cheap collision guard).
	Size int64
	// Data is the encoding itself, present only in PutEncodedBatch items.
	Data []byte
}

// WireFabric is implemented by fabrics that support the wire-efficiency
// protocol: content-addressed dedup offers, ACHΔ delta patches, and batched
// encoded chunk movement. Callers must tolerate a fabric without it (assert
// and fall back to plain Put/Get shipping).
type WireFabric interface {
	Fabric
	// OfferBatch asks the node whether it can produce each offered chunk
	// (identified by content hash and encoded size) without receiving the
	// body. Accepted offers leave the chunk resident under its key.
	OfferBatch(node int, items []WireItem) ([]bool, error)
	// Patch applies an ACHΔ delta to the node's resident chunk, but only
	// when the resident content hash matches baseHash. applied=false means
	// the caller must fall back to a full ship; the call is idempotent (a
	// retried duplicate finds the new hash resident and reports false,
	// after which the fallback ships identical content). fullSize is the
	// encoded size of the post-patch chunk, used for savings accounting.
	Patch(node int, arrayName string, key array.ChunkKey, baseHash uint64, delta []byte, fullSize int64) (bool, error)
	// GetEncodedBatch fetches the canonical encodings of resident chunks
	// in one exchange. The returned buffers must be treated as read-only.
	GetEncodedBatch(node int, items []WireItem) ([][]byte, error)
	// PutEncodedBatch lands encodings verbatim in one exchange.
	PutEncodedBatch(node int, items []WireItem) error
}

// LocalFabric is the in-process fabric: each node is a storage.Store in
// this process and chunk movement is a map operation. It preserves the
// seed's simulator behavior exactly — the deterministic cost ledger remains
// the batch's reported maintenance time. Per-node operation and payload
// counters make the in-process data plane comparable to the TCP fabric's
// wire counters.
type LocalFabric struct {
	stores []*storage.Store
	net    []*localCounters
}

// localCounters is one node's in-process traffic accounting. The byte
// counters are chunk payload sizes (the serialized size the cost model
// charges), not socket bytes.
type localCounters struct {
	mu       sync.Mutex
	requests map[string]int64
	bytesIn  obs.Counter
	bytesOut obs.Counter

	dedupHits       obs.Counter
	bytesSavedDedup obs.Counter
	deltaShips      obs.Counter
	bytesSavedDelta obs.Counter
	roundTripsSaved obs.Counter
}

func (c *localCounters) record(op string, in, out int64) {
	c.mu.Lock()
	c.requests[op]++
	c.mu.Unlock()
	c.bytesIn.Add(in)
	c.bytesOut.Add(out)
}

func (c *localCounters) snapshot() NetCounters {
	c.mu.Lock()
	reqs := make(map[string]int64, len(c.requests))
	for k, v := range c.requests {
		reqs[k] = v
	}
	c.mu.Unlock()
	return NetCounters{
		Requests:        reqs,
		BytesIn:         c.bytesIn.Load(),
		BytesOut:        c.bytesOut.Load(),
		DedupHits:       c.dedupHits.Load(),
		BytesSavedDedup: c.bytesSavedDedup.Load(),
		DeltaShips:      c.deltaShips.Load(),
		BytesSavedDelta: c.bytesSavedDelta.Load(),
		RoundTripsSaved: c.roundTripsSaved.Load(),
	}
}

// NewLocalFabric wraps per-node stores into a fabric.
func NewLocalFabric(stores []*storage.Store) *LocalFabric {
	net := make([]*localCounters, len(stores))
	for i := range net {
		net[i] = &localCounters{requests: make(map[string]int64)}
	}
	return &LocalFabric{stores: stores, net: net}
}

func (f *LocalFabric) store(node int) (*storage.Store, error) {
	if node < 0 || node >= len(f.stores) {
		return nil, fmt.Errorf("cluster: fabric node %d out of range [0, %d)", node, len(f.stores))
	}
	return f.stores[node], nil
}

// Put implements Fabric.
func (f *LocalFabric) Put(node int, arrayName string, ch *array.Chunk) error {
	s, err := f.store(node)
	if err != nil {
		return err
	}
	f.net[node].record("Put", ch.SizeBytes(), 0)
	return s.Put(arrayName, ch)
}

// Get implements Fabric.
func (f *LocalFabric) Get(node int, arrayName string, key array.ChunkKey) (*array.Chunk, error) {
	s, err := f.store(node)
	if err != nil {
		return nil, err
	}
	ch, err := s.Get(arrayName, key)
	if err != nil {
		f.net[node].record("Get", 0, 0)
		return nil, err
	}
	f.net[node].record("Get", 0, ch.SizeBytes())
	return ch, nil
}

// GetEncoded is Get without the decode: it returns the node's stored
// encoding of the chunk, the store's own read-only buffer, and accounts
// the read as a Get of the same payload size.
func (f *LocalFabric) GetEncoded(node int, arrayName string, key array.ChunkKey) ([]byte, error) {
	s, err := f.store(node)
	if err != nil {
		return nil, err
	}
	enc, ok := s.GetEncoded(arrayName, key)
	if !ok {
		f.net[node].record("Get", 0, 0)
		return nil, fmt.Errorf("storage: chunk %v of %q not resident", key, arrayName)
	}
	f.net[node].record("Get", 0, array.EncodedPayloadSize(enc))
	return enc, nil
}

// Has implements Fabric.
func (f *LocalFabric) Has(node int, arrayName string, key array.ChunkKey) (bool, error) {
	s, err := f.store(node)
	if err != nil {
		return false, err
	}
	f.net[node].record("Has", 0, 0)
	return s.Has(arrayName, key), nil
}

// Delete implements Fabric.
func (f *LocalFabric) Delete(node int, arrayName string, key array.ChunkKey) (bool, error) {
	s, err := f.store(node)
	if err != nil {
		return false, err
	}
	f.net[node].record("Delete", 0, 0)
	return s.Delete(arrayName, key)
}

// Merge implements Fabric.
func (f *LocalFabric) Merge(node int, arrayName string, src *array.Chunk, spec MergeSpec) error {
	s, err := f.store(node)
	if err != nil {
		return err
	}
	fn, err := spec.Func()
	if err != nil {
		return err
	}
	f.net[node].record("Merge", src.SizeBytes(), 0)
	return s.Merge(arrayName, src, fn)
}

// Keys implements Fabric.
func (f *LocalFabric) Keys(node int, arrayName string) ([]array.ChunkKey, error) {
	s, err := f.store(node)
	if err != nil {
		return nil, err
	}
	f.net[node].record("Keys", 0, 0)
	return s.Keys(arrayName), nil
}

// DropArray implements Fabric.
func (f *LocalFabric) DropArray(node int, arrayName string) (int, error) {
	s, err := f.store(node)
	if err != nil {
		return 0, err
	}
	f.net[node].record("DropArray", 0, 0)
	return s.DropArray(arrayName)
}

// OfferBatch implements WireFabric: each offer is answered by the node's
// store, which adopts matching content (resident or sidelined) under the
// offered key.
func (f *LocalFabric) OfferBatch(node int, items []WireItem) ([]bool, error) {
	s, err := f.store(node)
	if err != nil {
		return nil, err
	}
	c := f.net[node]
	c.record("Offer", 0, 0)
	if n := int64(len(items)) - 1; n > 0 {
		c.roundTripsSaved.Add(n)
	}
	out := make([]bool, len(items))
	for i, it := range items {
		if _, ok := s.TryAdopt(it.Array, it.Key, it.Hash, it.Size); ok {
			out[i] = true
			c.dedupHits.Add(1)
			c.bytesSavedDedup.Add(it.Size)
			c.roundTripsSaved.Add(1)
		}
	}
	return out, nil
}

// Patch implements WireFabric.
func (f *LocalFabric) Patch(node int, arrayName string, key array.ChunkKey, baseHash uint64, delta []byte, fullSize int64) (bool, error) {
	s, err := f.store(node)
	if err != nil {
		return false, err
	}
	c := f.net[node]
	c.record("Patch", int64(len(delta)), 0)
	applied, err := s.Patch(arrayName, key, baseHash, delta)
	if err != nil || !applied {
		return false, err
	}
	c.deltaShips.Add(1)
	if saved := fullSize - int64(len(delta)); saved > 0 {
		c.bytesSavedDelta.Add(saved)
	}
	return true, nil
}

// GetEncodedBatch implements WireFabric.
func (f *LocalFabric) GetEncodedBatch(node int, items []WireItem) ([][]byte, error) {
	s, err := f.store(node)
	if err != nil {
		return nil, err
	}
	c := f.net[node]
	c.record("GetBatch", 0, 0)
	if n := int64(len(items)) - 1; n > 0 {
		c.roundTripsSaved.Add(n)
	}
	out := make([][]byte, len(items))
	for i, it := range items {
		buf, ok := s.GetEncoded(it.Array, it.Key)
		if !ok {
			return nil, fmt.Errorf("cluster: chunk %v of %q not resident on node %d", it.Key, it.Array, node)
		}
		c.bytesOut.Add(int64(len(buf)))
		out[i] = buf
	}
	return out, nil
}

// PutEncodedBatch implements WireFabric.
func (f *LocalFabric) PutEncodedBatch(node int, items []WireItem) error {
	s, err := f.store(node)
	if err != nil {
		return err
	}
	c := f.net[node]
	c.record("PutBatch", 0, 0)
	if n := int64(len(items)) - 1; n > 0 {
		c.roundTripsSaved.Add(n)
	}
	for _, it := range items {
		c.bytesIn.Add(int64(len(it.Data)))
		if err := s.PutEncoded(it.Array, it.Key, it.Data); err != nil {
			return err
		}
	}
	return nil
}

// Stats implements Fabric.
func (f *LocalFabric) Stats(node int) (FabricStats, error) {
	s, err := f.store(node)
	if err != nil {
		return FabricStats{}, err
	}
	return FabricStats{
		NumChunks: s.NumChunks(),
		Bytes:     s.Bytes(),
		Net:       f.net[node].snapshot(),
	}, nil
}

// NumNodes implements Fabric.
func (f *LocalFabric) NumNodes() int { return len(f.stores) }

// Close implements Fabric.
func (f *LocalFabric) Close() error { return nil }

var _ WireFabric = (*LocalFabric)(nil)
