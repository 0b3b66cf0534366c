package cluster

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/arrayview/arrayview/internal/array"
)

// ArrayMeta is the catalog entry for one array: its schema plus chunk-level
// metadata — home node (S_q in the paper), size in bytes (B_q), cell count,
// and the replica set built up by maintenance transfers.
type ArrayMeta struct {
	Schema *array.Schema
	// Home maps each occupied chunk to the node owning its primary copy.
	Home map[array.ChunkKey]int
	// Size caches the serialized byte size of each chunk (B_q).
	Size map[array.ChunkKey]int64
	// Cells caches the non-empty cell count of each chunk.
	Cells map[array.ChunkKey]int
	// Replicas tracks which nodes hold a copy of each chunk, including the
	// home node. Reassignment piggybacks on these copies (Section 4.5).
	Replicas map[array.ChunkKey]map[int]bool
	// BBox optionally caches the tight bounding region of each chunk's
	// non-empty cells — the "positional information on non-empty cells"
	// the paper says cell-granularity maintenance requires.
	BBox map[array.ChunkKey]array.Region
	// Hash optionally caches the FNV-1a content hash of each chunk's
	// canonical encoding, and EncSize the encoded length it covers. An
	// entry exists only while it is known to describe the current content:
	// SetChunk drops it, and only an explicit SetChunkHash by a writer that
	// holds the chunk restores it. A stale hash would make the dedup
	// handshake adopt old content while reporting success, so absence (and
	// a full ship) is always the safe state.
	Hash    map[array.ChunkKey]uint64
	EncSize map[array.ChunkKey]int64
}

func newArrayMeta(s *array.Schema) *ArrayMeta {
	return &ArrayMeta{
		Schema:   s,
		Home:     make(map[array.ChunkKey]int),
		Size:     make(map[array.ChunkKey]int64),
		Cells:    make(map[array.ChunkKey]int),
		Replicas: make(map[array.ChunkKey]map[int]bool),
		BBox:     make(map[array.ChunkKey]array.Region),
		Hash:     make(map[array.ChunkKey]uint64),
		EncSize:  make(map[array.ChunkKey]int64),
	}
}

// Catalog is the centralized system catalog stored at the coordinator. It
// is safe for concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	arrays map[string]*ArrayMeta
	// layout counts catalog mutations: every operation that can change what
	// a placement solve or pair enumeration would see (chunk set, homes,
	// sizes, replicas, restores) bumps it. Plan memos key on the value, so
	// a stale plan can never be served after the layout moves.
	layout atomic.Uint64
	// pending is the adaptive path's pending-delta log (see pending.go),
	// created lazily by Pending(). It has its own lock; the catalog only
	// guards the pointer.
	pending *PendingLog
}

// LayoutVersion returns the current mutation counter. Two calls returning
// the same value bracket a window with no catalog mutations, which is what
// makes a layout-keyed plan memo sound.
func (c *Catalog) LayoutVersion() uint64 { return c.layout.Load() }

// bumpLayout advances the mutation counter; called by every mutator.
func (c *Catalog) bumpLayout() { c.layout.Add(1) }

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{arrays: make(map[string]*ArrayMeta)}
}

// Register adds an array schema to the catalog. Registering an existing
// name is an error.
func (c *Catalog) Register(s *array.Schema) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.arrays[s.Name]; ok {
		return fmt.Errorf("cluster: array %q already registered", s.Name)
	}
	c.arrays[s.Name] = newArrayMeta(s)
	c.bumpLayout()
	return nil
}

// Drop removes an array from the catalog.
func (c *Catalog) Drop(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.arrays, name)
	c.bumpLayout()
}

// Schema returns the schema of the named array, or nil.
func (c *Catalog) Schema(name string) *array.Schema {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if m, ok := c.arrays[name]; ok {
		return m.Schema
	}
	return nil
}

// meta fetches the entry, reporting an error for unregistered arrays.
// Requests naming unknown arrays can arrive from remote peers over the
// fabric, so the catalog must refuse them instead of crashing the
// coordinator.
func (c *Catalog) meta(name string) (*ArrayMeta, error) {
	m, ok := c.arrays[name]
	if !ok {
		return nil, fmt.Errorf("cluster: array %q not registered", name)
	}
	return m, nil
}

// SetChunk records or updates the metadata of one chunk: home node, byte
// size, and cell count. It resets the replica set to just the home node and
// drops the cached content hash — the chunk's content may have changed, and
// an offer made with a stale hash would silently adopt old bytes.
func (c *Catalog) SetChunk(name string, key array.ChunkKey, home int, size int64, cells int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, err := c.meta(name)
	if err != nil {
		return err
	}
	m.Home[key] = home
	m.Size[key] = size
	m.Cells[key] = cells
	m.Replicas[key] = map[int]bool{home: true}
	delete(m.Hash, key)
	delete(m.EncSize, key)
	c.bumpLayout()
	return nil
}

// SetChunkHash records the content hash (and encoded length) of a chunk's
// current canonical encoding. Only a writer that holds the chunk it just
// wrote may call this: the entry asserts "this is the content every replica
// of the chunk has right now".
func (c *Catalog) SetChunkHash(name string, key array.ChunkKey, hash uint64, encSize int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, err := c.meta(name)
	if err != nil {
		return err
	}
	m.Hash[key] = hash
	m.EncSize[key] = encSize
	c.bumpLayout()
	return nil
}

// ChunkHash returns the cached content hash and encoded length of a chunk;
// ok=false means the hash is unknown (or stale-dropped) and transfers must
// full-ship.
func (c *Catalog) ChunkHash(name string, key array.ChunkKey) (hash uint64, encSize int64, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, okA := c.arrays[name]
	if !okA {
		return 0, 0, false
	}
	hash, ok = m.Hash[key]
	return hash, m.EncSize[key], ok
}

// Home returns the home node of a chunk; ok=false when the chunk is not in
// the catalog.
func (c *Catalog) Home(name string, key array.ChunkKey) (int, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.arrays[name]
	if !ok {
		return 0, false
	}
	node, ok := m.Home[key]
	return node, ok
}

// ReadArray calls fn with the named array's entry under the catalog's read
// lock, so a caller resolving many chunks pays one lock, not one per lookup.
// fn must neither keep nor mutate m, nor call back into the catalog. It is
// not called when the array is not registered.
func (c *Catalog) ReadArray(name string, fn func(m *ArrayMeta)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if m, ok := c.arrays[name]; ok {
		fn(m)
	}
}

// ChunkSize returns the cached byte size of a chunk (0 if unknown).
func (c *Catalog) ChunkSize(name string, key array.ChunkKey) int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.arrays[name]
	if !ok {
		return 0
	}
	return m.Size[key]
}

// ChunkCells returns the cached cell count of a chunk (0 if unknown).
func (c *Catalog) ChunkCells(name string, key array.ChunkKey) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.arrays[name]
	if !ok {
		return 0
	}
	return m.Cells[key]
}

// SetChunkBBox records the tight bounding region of a chunk's cells.
func (c *Catalog) SetChunkBBox(name string, key array.ChunkKey, bb array.Region) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, err := c.meta(name)
	if err != nil {
		return err
	}
	m.BBox[key] = bb.Clone()
	c.bumpLayout()
	return nil
}

// ChunkBBox returns the cached cell bounding box of a chunk, if recorded.
func (c *Catalog) ChunkBBox(name string, key array.ChunkKey) (array.Region, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.arrays[name]
	if !ok {
		return array.Region{}, false
	}
	bb, ok := m.BBox[key]
	return bb, ok
}

// AddReplica records that node holds a copy of the chunk.
func (c *Catalog) AddReplica(name string, key array.ChunkKey, node int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, err := c.meta(name)
	if err != nil {
		return err
	}
	reps, ok := m.Replicas[key]
	if !ok {
		reps = make(map[int]bool)
		m.Replicas[key] = reps
	}
	reps[node] = true
	c.bumpLayout()
	return nil
}

// RemoveReplica forgets node's copy of the chunk. Removing the home copy's
// entry is allowed (the home node still counts as a replica via HasReplica);
// unknown arrays or chunks are a no-op.
func (c *Catalog) RemoveReplica(name string, key array.ChunkKey, node int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.arrays[name]
	if !ok {
		return
	}
	delete(m.Replicas[key], node)
	c.bumpLayout()
}

// HasReplica reports whether node holds a copy of the chunk (the home node
// always counts).
func (c *Catalog) HasReplica(name string, key array.ChunkKey, node int) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.arrays[name]
	if !ok {
		return false
	}
	if home, known := m.Home[key]; known && home == node {
		return true
	}
	return m.Replicas[key][node]
}

// Replicas returns the sorted node IDs holding a copy of the chunk.
func (c *Catalog) Replicas(name string, key array.ChunkKey) []int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.arrays[name]
	if !ok {
		return nil
	}
	out := make([]int, 0, len(m.Replicas[key]))
	for n := range m.Replicas[key] {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// DropChunk removes one chunk's metadata entirely (e.g., after all its
// cells are deleted).
func (c *Catalog) DropChunk(name string, key array.ChunkKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.arrays[name]
	if !ok {
		return
	}
	delete(m.Home, key)
	delete(m.Size, key)
	delete(m.Cells, key)
	delete(m.Replicas, key)
	delete(m.BBox, key)
	delete(m.Hash, key)
	delete(m.EncSize, key)
	c.bumpLayout()
}

// Rehome changes the home node of a chunk. The new home must already hold a
// replica when requireReplica is set — this is the Algorithm 3 constraint
// that reassignment piggybacks on existing copies and costs no transfer.
func (c *Catalog) Rehome(name string, key array.ChunkKey, node int, requireReplica bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, err := c.meta(name)
	if err != nil {
		return err
	}
	if _, ok := m.Home[key]; !ok {
		return fmt.Errorf("cluster: chunk %v of %q unknown", key, name)
	}
	if requireReplica && !m.Replicas[key][node] {
		return fmt.Errorf("cluster: node %d holds no replica of chunk %v of %q", node, key, name)
	}
	m.Home[key] = node
	if m.Replicas[key] == nil {
		m.Replicas[key] = make(map[int]bool)
	}
	m.Replicas[key][node] = true
	c.bumpLayout()
	return nil
}

// ClearReplicas trims every chunk's replica set back to its home node,
// modelling the end-of-batch garbage collection of scratch copies. Unknown
// arrays are a no-op (the batch may have dropped the array already).
func (c *Catalog) ClearReplicas(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.arrays[name]
	if !ok {
		return
	}
	for key, reps := range m.Replicas {
		if len(reps) == 1 && reps[m.Home[key]] {
			continue // already just the home copy; skip the realloc
		}
		m.Replicas[key] = map[int]bool{m.Home[key]: true}
	}
	c.bumpLayout()
}

// SnapshotMeta deep-copies the catalog entry of one array, for restoration
// after a failed batch. ok=false when the array is not registered.
func (c *Catalog) SnapshotMeta(name string) (*ArrayMeta, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.arrays[name]
	if !ok {
		return nil, false
	}
	return copyArrayMeta(m), true
}

// RestoreMeta replaces (or re-creates) the catalog entry of one array with a
// snapshot taken by SnapshotMeta. The snapshot is deep-copied again so the
// caller may restore the same snapshot more than once.
func (c *Catalog) RestoreMeta(name string, m *ArrayMeta) {
	if m == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.arrays[name] = copyArrayMeta(m)
	c.bumpLayout()
}

// chunkMetaSnap is the pre-batch catalog entry of one chunk, or its
// recorded absence (exists=false: restoring deletes whatever records the
// batch created for the chunk).
type chunkMetaSnap struct {
	exists   bool
	home     int
	size     int64
	cells    int
	replicas map[int]bool
	bbox     array.Region
	hasBBox  bool
	hash     uint64
	encSize  int64
	hasHash  bool
}

// MetaPatch is a scoped catalog snapshot of one array: the pre-batch
// entries (or recorded absence) of an enumerated chunk set. Capturing and
// restoring one touches only those chunks, so rollback baselines cost
// O(batch footprint) instead of O(array size) — full-array SnapshotMeta
// deep-copies every chunk's maps and dominates per-batch overhead once the
// base grows past a few thousand chunks.
type MetaPatch struct {
	name    string
	entries map[array.ChunkKey]chunkMetaSnap
}

// SnapshotMetaScoped captures the catalog entries of the listed chunks of
// one array, recording absent chunks as such. ok=false when the array is
// not registered.
func (c *Catalog) SnapshotMetaScoped(name string, keys []array.ChunkKey) (*MetaPatch, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.arrays[name]
	if !ok {
		return nil, false
	}
	p := &MetaPatch{name: name, entries: make(map[array.ChunkKey]chunkMetaSnap, len(keys))}
	for _, k := range keys {
		if _, dup := p.entries[k]; dup {
			continue
		}
		home, exists := m.Home[k]
		s := chunkMetaSnap{exists: exists, home: home}
		if exists {
			s.size = m.Size[k]
			s.cells = m.Cells[k]
			if reps, ok := m.Replicas[k]; ok {
				s.replicas = make(map[int]bool, len(reps))
				for n, b := range reps {
					s.replicas[n] = b
				}
			}
			if bb, ok := m.BBox[k]; ok {
				s.bbox, s.hasBBox = bb.Clone(), true
			}
			if h, ok := m.Hash[k]; ok {
				s.hash, s.encSize, s.hasHash = h, m.EncSize[k], true
			}
		}
		p.entries[k] = s
	}
	return p, true
}

// RestoreMetaScoped puts the captured chunks back exactly as recorded —
// present entries field-for-field, absent ones deleted — and leaves every
// other chunk of the array untouched. A nil patch or a dropped array is a
// no-op; restoring the same patch more than once is safe (entries are
// copied on the way back in).
func (c *Catalog) RestoreMetaScoped(p *MetaPatch) {
	if p == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.arrays[p.name]
	if !ok {
		return
	}
	for k, s := range p.entries {
		if !s.exists {
			delete(m.Home, k)
			delete(m.Size, k)
			delete(m.Cells, k)
			delete(m.Replicas, k)
			delete(m.BBox, k)
			delete(m.Hash, k)
			delete(m.EncSize, k)
			continue
		}
		m.Home[k] = s.home
		m.Size[k] = s.size
		m.Cells[k] = s.cells
		if s.replicas != nil {
			cp := make(map[int]bool, len(s.replicas))
			for n, b := range s.replicas {
				cp[n] = b
			}
			m.Replicas[k] = cp
		} else {
			delete(m.Replicas, k)
		}
		if s.hasBBox {
			m.BBox[k] = s.bbox.Clone()
		} else {
			delete(m.BBox, k)
		}
		if s.hasHash {
			m.Hash[k] = s.hash
			m.EncSize[k] = s.encSize
		} else {
			delete(m.Hash, k)
			delete(m.EncSize, k)
		}
	}
	c.bumpLayout()
}

func copyArrayMeta(m *ArrayMeta) *ArrayMeta {
	out := newArrayMeta(m.Schema)
	for k, v := range m.Home {
		out.Home[k] = v
	}
	for k, v := range m.Size {
		out.Size[k] = v
	}
	for k, v := range m.Cells {
		out.Cells[k] = v
	}
	for k, reps := range m.Replicas {
		cp := make(map[int]bool, len(reps))
		for n, b := range reps {
			cp[n] = b
		}
		out.Replicas[k] = cp
	}
	for k, bb := range m.BBox {
		out.BBox[k] = bb.Clone()
	}
	for k, h := range m.Hash {
		out.Hash[k] = h
	}
	for k, n := range m.EncSize {
		out.EncSize[k] = n
	}
	return out
}

// Names returns the sorted names of every registered array.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.arrays))
	for n := range c.arrays {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Keys returns the sorted chunk keys of the named array.
func (c *Catalog) Keys(name string) []array.ChunkKey {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.arrays[name]
	if !ok {
		return nil
	}
	out := make([]array.ChunkKey, 0, len(m.Home))
	for k := range m.Home {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// NumChunks returns how many chunks of the array the catalog tracks.
func (c *Catalog) NumChunks(name string) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.arrays[name]
	if !ok {
		return 0
	}
	return len(m.Home)
}

// NodeLoad returns, for each node, the total bytes of chunks homed there.
func (c *Catalog) NodeLoad(name string, numNodes int) []int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	load := make([]int64, numNodes)
	m, ok := c.arrays[name]
	if !ok {
		return load
	}
	for k, node := range m.Home {
		if node >= 0 && node < numNodes {
			load[node] += m.Size[k]
		}
	}
	return load
}

// Placement decides the home node for a new chunk; used by the baseline
// algorithm and by initial data loading.
type Placement interface {
	// Place returns a node in [0, numNodes) for the chunk.
	Place(key array.ChunkKey, numNodes int) int
}

// RoundRobin assigns chunks to nodes cyclically in the order presented —
// with row-major-sorted input this is the paper's "distributed round-robin
// in row-major order". The zero value starts at node 0.
type RoundRobin struct {
	mu   sync.Mutex
	next int
}

// Place implements Placement.
func (r *RoundRobin) Place(_ array.ChunkKey, numNodes int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next % numNodes
	r.next++
	return n
}

// HashPlacement assigns chunks by FNV hash of the chunk key: the
// "hash-based chunking" strategy whose poor locality the paper discusses
// ("each join computation is likely to require communication because
// adjacent chunks are assigned to different nodes").
type HashPlacement struct{}

// Place implements Placement.
func (HashPlacement) Place(key array.ChunkKey, numNodes int) int {
	// FNV-1a (hash/fnv's New32a) inlined over the string: the planners
	// place every new chunk, and a hasher plus a []byte copy per call adds up.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(numNodes))
}

// RangePlacement is the space-partitioning assignment common in array
// databases: contiguous bands of one dimension's chunk index map to
// consecutive nodes. The paper notes its failure mode for maintenance:
// "most of the joins are concentrated on a single node, thus the load is
// imbalanced" when updates hit a narrow region.
type RangePlacement struct {
	// Dim is the banded dimension's position in the chunk coordinate.
	Dim int
	// NumChunks is the number of chunk slots along Dim.
	NumChunks int64
}

// Place implements Placement.
func (r RangePlacement) Place(key array.ChunkKey, numNodes int) int {
	cc := key.Coord()
	if r.Dim < 0 || r.Dim >= len(cc) || r.NumChunks <= 0 {
		return 0
	}
	idx := cc[r.Dim]
	if idx < 0 {
		idx = 0
	}
	if idx >= r.NumChunks {
		idx = r.NumChunks - 1
	}
	node := int(idx * int64(numNodes) / r.NumChunks)
	if node >= numNodes {
		node = numNodes - 1
	}
	return node
}
