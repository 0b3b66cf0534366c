// Package storage implements the per-node chunk storage manager, modeled
// after ArrayStore (Soroush et al., SIGMOD 2011), which the paper's
// prototype builds on. Chunks are held serialized, keyed by array name and
// chunk coordinate, so every read/write crosses a real
// serialization boundary just as a disk- or network-backed store would.
package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/arrayview/arrayview/internal/array"
)

// DefaultCacheBytes caps the sideline content cache (see Store). Entries
// are chunk encodings, so the default holds a few thousand chunks.
const DefaultCacheBytes = 64 << 20

// Journal receives every mutation of a Store, in apply order, before the
// mutation takes effect (write-ahead discipline: a mutation whose journal
// append fails is not applied). Calls arrive under the store's lock, so an
// implementation sees them strictly serialized per store. The journal
// decides which namespaces are durable — internal/wal skips scratch ("#")
// arrays, for example.
type Journal interface {
	JournalPut(arrayName string, key array.ChunkKey, enc []byte, hash uint64) error
	JournalDelete(arrayName string, key array.ChunkKey) error
	JournalDropArray(arrayName string) error
}

// DurabilityError wraps a journal/fsync/close failure of the durable layer.
// Mutators surface it instead of applying the mutation, and the maintenance
// commit path propagates it as-is so callers can errors.As for it.
type DurabilityError struct {
	Op  string // the store operation that failed: "put", "delete", "drop-array", "sync", "close"
	Err error
}

func (e *DurabilityError) Error() string {
	return fmt.Sprintf("storage: durability failure during %s: %v", e.Op, e.Err)
}

func (e *DurabilityError) Unwrap() error { return e.Err }

// Store is one node's chunk storage. It is safe for concurrent use.
//
// Besides the resident chunks, the store keeps a bounded LRU "sideline"
// cache of recently evicted chunk encodings keyed by content hash. The
// cache backs the wire-level dedup handshake: when a transfer offers a
// (key, hash) the node has seen before — a replica scrubbed by batch
// cleanup, a chunk displaced by an overwrite — TryAdopt resurrects the
// bytes locally instead of moving them over the network. The cache is
// never readable by (array, key): only an explicit adoption, verified by
// content hash and length, promotes an entry back to residency, so stale
// reads are impossible by construction.
type Store struct {
	mu     sync.RWMutex
	chunks map[string][]byte // key: arrayName + "\x00" + chunkKey
	hashes map[string]uint64 // content hash of the resident encoding
	// byArray indexes resident store keys per array name, so per-array
	// operations (Keys, DropArray) touch only that array's chunks instead
	// of scanning the whole store. Batch cleanup drops several scratch
	// namespaces per node per batch; without the index each drop scanned
	// every resident chunk and cleanup grew with the base size.
	byArray map[string]map[string]bool
	bytes   int64

	cache   *ContentCache // sideline cache of displaced encodings
	journal Journal       // optional write-ahead journal; nil = RAM-only
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		chunks:  make(map[string][]byte),
		hashes:  make(map[string]uint64),
		byArray: make(map[string]map[string]bool),
		cache:   NewContentCache(DefaultCacheBytes),
	}
}

func storeKey(arrayName string, key array.ChunkKey) string {
	return arrayName + "\x00" + string(key)
}

// arrayOf recovers the array name from a store key (names cannot contain
// the NUL separator; chunk key bytes after the first NUL are irrelevant).
func arrayOf(k string) string {
	return k[:strings.IndexByte(k, 0)]
}

// chunkKeyOf recovers the chunk key from a store key.
func chunkKeyOf(k string) array.ChunkKey {
	return array.ChunkKey(k[strings.IndexByte(k, 0)+1:])
}

// SetJournal installs (or clears, with nil) the store's write-ahead
// journal. Install before the store takes traffic: the journal only sees
// mutations made after it is set.
func (s *Store) SetJournal(j Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
}

// indexAddLocked records k under its array. Caller holds s.mu.
func (s *Store) indexAddLocked(k string) {
	name := arrayOf(k)
	set, ok := s.byArray[name]
	if !ok {
		set = make(map[string]bool)
		s.byArray[name] = set
	}
	set[k] = true
}

// indexRemoveLocked forgets k. Caller holds s.mu.
func (s *Store) indexRemoveLocked(k string) {
	name := arrayOf(k)
	if set, ok := s.byArray[name]; ok {
		delete(set, k)
		if len(set) == 0 {
			delete(s.byArray, name)
		}
	}
}

// sideline moves a displaced encoding into the content cache. The cache has
// its own lock, so this is safe whether or not the caller holds s.mu.
func (s *Store) sideline(buf []byte) {
	s.cache.Insert(buf)
}

// cacheLookup returns the sidelined encoding for a content hash, verifying
// the expected length, and refreshes its recency.
func (s *Store) cacheLookup(hash uint64, size int64) ([]byte, bool) {
	return s.cache.Lookup(hash, size)
}

// putLocked installs an encoding under k, sidelining any replaced version.
// The mutation is journaled first; if the journal append fails nothing is
// installed. Caller holds s.mu.
func (s *Store) putLocked(k string, buf []byte, hash uint64) error {
	if s.journal != nil {
		if err := s.journal.JournalPut(arrayOf(k), chunkKeyOf(k), buf, hash); err != nil {
			return &DurabilityError{Op: "put", Err: err}
		}
	}
	if old, ok := s.chunks[k]; ok {
		s.bytes -= int64(len(old))
		s.sideline(old)
	}
	s.chunks[k] = buf
	s.hashes[k] = hash
	s.indexAddLocked(k)
	s.bytes += int64(len(buf))
	return nil
}

// Put serializes and stores the chunk under the array name, replacing any
// previous version.
func (s *Store) Put(arrayName string, c *array.Chunk) error {
	buf := array.EncodeChunk(c)
	k := storeKey(arrayName, c.Key())
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putLocked(k, buf, array.HashChunkBytes(buf))
}

// PutEncoded stores an already-serialized ACH1 encoding verbatim. The
// transport server uses it to land wire payloads without a decode/encode
// round trip when the bytes are already canonical.
func (s *Store) PutEncoded(arrayName string, key array.ChunkKey, buf []byte) error {
	k := storeKey(arrayName, key)
	h := array.HashChunkBytes(buf)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putLocked(k, buf, h)
}

// Hash returns the content hash of the resident encoding of a chunk.
func (s *Store) Hash(arrayName string, key array.ChunkKey) (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h, ok := s.hashes[storeKey(arrayName, key)]
	return h, ok
}

// TryAdopt is the receiving half of the dedup handshake: it reports
// whether the node can produce the offered content (identified by hash
// and encoded size) without receiving the body. Residency under the same
// key with the same hash satisfies the offer directly; otherwise a
// matching sideline-cache entry is promoted to residency under the key.
// On success the returned size is the encoded length now resident.
func (s *Store) TryAdopt(arrayName string, key array.ChunkKey, hash uint64, size int64) (int64, bool) {
	k := storeKey(arrayName, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.hashes[k]; ok && h == hash {
		buf := s.chunks[k]
		if size < 0 || int64(len(buf)) == size {
			return int64(len(buf)), true
		}
	}
	if buf, ok := s.cacheLookup(hash, size); ok {
		// An adoption that cannot be journaled is declined rather than
		// failed: the caller falls back to a full ship, whose Put surfaces
		// the durability error.
		if s.putLocked(k, buf, hash) != nil {
			return 0, false
		}
		return int64(len(buf)), true
	}
	return 0, false
}

// Patch applies an ACHΔ delta to the resident chunk, but only when the
// resident content hash matches baseHash — the sender computed the delta
// against exactly that version. A missing chunk or a hash mismatch is not
// an error: applied=false tells the caller to fall back to a full ship.
func (s *Store) Patch(arrayName string, key array.ChunkKey, baseHash uint64, delta []byte) (applied bool, err error) {
	k := storeKey(arrayName, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, ok := s.chunks[k]
	if !ok || s.hashes[k] != baseHash {
		return false, nil
	}
	c, err := array.DecodeChunk(buf)
	if err != nil {
		return false, err
	}
	if err := array.ApplyDelta(c, delta); err != nil {
		return false, err
	}
	out := array.EncodeChunk(c)
	if err := s.putLocked(k, out, array.HashChunkBytes(out)); err != nil {
		return false, err
	}
	return true, nil
}

// GetEncoded returns the resident canonical encoding of a chunk without
// decoding it. The returned slice is the store's own buffer and must be
// treated as read-only (the store never mutates stored buffers in place).
func (s *Store) GetEncoded(arrayName string, key array.ChunkKey) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	buf, ok := s.chunks[storeKey(arrayName, key)]
	return buf, ok
}

// Get fetches and deserializes a chunk. It returns an error if the chunk is
// not resident or fails to decode. The returned chunk is a private copy.
func (s *Store) Get(arrayName string, key array.ChunkKey) (*array.Chunk, error) {
	s.mu.RLock()
	buf, ok := s.chunks[storeKey(arrayName, key)]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("storage: chunk %v of %q not resident", key, arrayName)
	}
	return array.DecodeChunk(buf)
}

// Has reports whether the chunk is resident.
func (s *Store) Has(arrayName string, key array.ChunkKey) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.chunks[storeKey(arrayName, key)]
	return ok
}

// Delete evicts a chunk, reporting whether it was resident.
func (s *Store) Delete(arrayName string, key array.ChunkKey) (bool, error) {
	k := storeKey(arrayName, key)
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, ok := s.chunks[k]
	if !ok {
		return false, nil
	}
	if s.journal != nil {
		if err := s.journal.JournalDelete(arrayName, key); err != nil {
			return false, &DurabilityError{Op: "delete", Err: err}
		}
	}
	s.bytes -= int64(len(buf))
	delete(s.chunks, k)
	delete(s.hashes, k)
	s.indexRemoveLocked(k)
	s.sideline(buf)
	return true, nil
}

// Merge folds src's cells into the resident chunk with the same coordinate,
// creating it if absent. This is the view-merging primitive: worker threads
// apply differential chunks as they arrive.
func (s *Store) Merge(arrayName string, src *array.Chunk, merge func(dst, src *array.Chunk) error) error {
	k := storeKey(arrayName, src.Key())
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, ok := s.chunks[k]
	if !ok {
		out := array.EncodeChunk(src)
		return s.putLocked(k, out, array.HashChunkBytes(out))
	}
	dst, err := array.DecodeChunk(buf)
	if err != nil {
		return err
	}
	if err := merge(dst, src); err != nil {
		return err
	}
	out := array.EncodeChunk(dst)
	return s.putLocked(k, out, array.HashChunkBytes(out))
}

// NumChunks returns the number of resident chunks across all arrays.
func (s *Store) NumChunks() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.chunks)
}

// Bytes returns the total stored bytes.
func (s *Store) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Keys returns the resident chunk keys for one array, sorted.
func (s *Store) Keys(arrayName string) []array.ChunkKey {
	prefix := len(arrayName) + 1
	s.mu.RLock()
	var out []array.ChunkKey
	for k := range s.byArray[arrayName] {
		out = append(out, array.ChunkKey(k[prefix:]))
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DropArray evicts every chunk of the named array and returns how many were
// dropped.
func (s *Store) DropArray(arrayName string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal != nil && len(s.byArray[arrayName]) > 0 {
		if err := s.journal.JournalDropArray(arrayName); err != nil {
			return 0, &DurabilityError{Op: "drop-array", Err: err}
		}
	}
	n := 0
	for k := range s.byArray[arrayName] {
		buf := s.chunks[k]
		s.bytes -= int64(len(buf))
		delete(s.chunks, k)
		delete(s.hashes, k)
		s.sideline(buf)
		n++
	}
	delete(s.byArray, arrayName)
	return n, nil
}

// EachEncoded calls fn for every resident chunk in deterministic
// (array, key) order with its canonical encoding and content hash. The
// encoding is the store's own buffer: read-only. The durable layer uses
// this to checkpoint a store's full state.
func (s *Store) EachEncoded(fn func(arrayName string, key array.ChunkKey, enc []byte, hash uint64) error) error {
	s.mu.RLock()
	keys := make([]string, 0, len(s.chunks))
	for k := range s.chunks {
		keys = append(keys, k)
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		s.mu.RLock()
		buf, ok := s.chunks[k]
		hash := s.hashes[k]
		s.mu.RUnlock()
		if !ok { // deleted between snapshot and visit
			continue
		}
		if err := fn(arrayOf(k), chunkKeyOf(k), buf, hash); err != nil {
			return err
		}
	}
	return nil
}

// CacheBytes returns the sideline content cache's current footprint.
func (s *Store) CacheBytes() int64 { return s.cache.Bytes() }
