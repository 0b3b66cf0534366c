package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/arrayview/arrayview/internal/array"
)

// retainedVer is one preserved pre-image of a chunk: the canonical encoding
// of the content the chunk had at every epoch <= until. The committer
// captures it from the pre-image it already reads for the undo log, so
// retention costs no extra chunk fetch.
type retainedVer struct {
	until uint64
	enc   []byte
}

// EpochStats is a point-in-time summary of the version manager, reported by
// the serve daemon's snapshot endpoint.
type EpochStats struct {
	Current       uint64
	Pins          int
	RetainedVers  int64
	RetainedBytes int64
}

// Epochs is the cluster's snapshot-isolation manager. Maintenance is the
// single writer: each maintain.Execute commit (or rollback) publishes a new
// epoch — an immutable deep copy of the catalog metadata of every durable
// array — and the committer retains the pre-image of every chunk it
// overwrites or deletes. Readers pin an epoch with Acquire and see exactly
// the chunk set and content that was live when that epoch was published,
// regardless of commits racing past them; retained versions are reclaimed
// once no pin can need them.
//
// The manager is off by default so maintenance-only workloads pay nothing:
// Retain and Publish are cheap no-ops until Enable. The concurrency model is
// one maintenance loop (writer) and any number of reader goroutines.
type Epochs struct {
	cl      *Cluster
	enabled atomic.Bool

	mu      sync.Mutex
	current uint64
	metas   map[string]*ArrayMeta // published epoch's catalog view; treated as immutable
	pins    map[uint64]int
	// retained maps array → chunk key → versions ordered by ascending until.
	retained map[string]map[array.ChunkKey][]retainedVer
	// hooks run synchronously after each publication (see OnPublish).
	hooks []func(epoch uint64)
}

func newEpochs(cl *Cluster) *Epochs {
	return &Epochs{
		cl:       cl,
		pins:     make(map[uint64]int),
		retained: make(map[string]map[array.ChunkKey][]retainedVer),
	}
}

// Enabled reports whether snapshot publication and retention are on.
func (e *Epochs) Enabled() bool { return e.enabled.Load() }

// Enable turns on version retention and publishes the first epoch from the
// current catalog state. Call it after loading base data and building the
// view, before serving readers.
func (e *Epochs) Enable() {
	e.enabled.Store(true)
	e.Publish()
}

// durableName reports whether an array belongs in a published snapshot.
// Every scratch namespace of the maintenance pipeline — "#stage", "#deltaN"
// — carries a '#', so filtering on it keeps half-batch state out of
// snapshots by construction.
func durableName(name string) bool { return !strings.Contains(name, "#") }

// durableMetas deep-copies the live catalog metadata of every durable array:
// the chunk map a published epoch, or an unpinned live snapshot, reads.
func (e *Epochs) durableMetas() map[string]*ArrayMeta {
	cat := e.cl.Catalog()
	metas := make(map[string]*ArrayMeta)
	for _, name := range cat.Names() {
		if !durableName(name) {
			continue
		}
		if m, ok := cat.SnapshotMeta(name); ok {
			metas[name] = m
		}
	}
	return metas
}

// Publish atomically installs a new epoch: a deep copy of the catalog
// metadata of every durable array becomes the visible chunk map for readers
// that pin from now on. The committer calls it once after a batch fully
// commits and once after a rollback completes, so every published epoch
// describes a consistent (pre- or post-batch) state. No-op while disabled.
func (e *Epochs) Publish() uint64 {
	if !e.enabled.Load() {
		return 0
	}
	metas := e.durableMetas()
	e.mu.Lock()
	e.current++
	epoch := e.current
	e.metas = metas
	e.reclaimLocked()
	hooks := e.hooks
	e.mu.Unlock()
	// Hooks run outside the lock (they may Acquire snapshots) but still on
	// the publisher's goroutine: with the single-writer discipline every
	// hook observes exactly the epoch it was handed, before the next one
	// can be published.
	for _, h := range hooks {
		h(epoch)
	}
	return epoch
}

// OnPublish registers a hook invoked synchronously after every epoch
// publication with the new epoch number, on the publisher's goroutine —
// commits are the only publishers, so a hook sees each committed (or
// rolled-back) state exactly once, in order. The streaming commit sink's
// consistency audit and the serve daemon's stats loop hang off this.
// Register hooks before maintenance starts; registration is not
// synchronized against in-flight publications.
func (e *Epochs) OnPublish(h func(epoch uint64)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.hooks = append(append([]func(epoch uint64){}, e.hooks...), h)
}

// Current returns the most recently published epoch (0 before the first
// publish).
func (e *Epochs) Current() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.current
}

// FastForward raises the epoch counter to at least epoch without
// publishing. Crash recovery calls it so the first post-restart publish
// lands above every epoch a pre-crash reader could have pinned; it never
// lowers the counter.
func (e *Epochs) FastForward(epoch uint64) {
	e.mu.Lock()
	if epoch > e.current {
		e.current = epoch
	}
	e.mu.Unlock()
}

// Retain preserves a chunk's pre-image before the committer overwrites or
// deletes it. The encoding is captured immediately (the committer mutates
// nothing until after this returns, but the chunk object may be reused).
// Only the first retention of a (array, chunk) per epoch sticks: later
// writes in the same batch are overwriting intra-batch state no reader can
// have seen. No-op while disabled or for scratch arrays.
func (e *Epochs) Retain(name string, key array.ChunkKey, prev *array.Chunk) {
	if !e.enabled.Load() || !durableName(name) || prev == nil {
		return
	}
	enc := array.EncodeChunk(prev)
	e.mu.Lock()
	defer e.mu.Unlock()
	byKey, ok := e.retained[name]
	if !ok {
		byKey = make(map[array.ChunkKey][]retainedVer)
		e.retained[name] = byKey
	}
	vers := byKey[key]
	if n := len(vers); n > 0 && vers[n-1].until >= e.current {
		return
	}
	byKey[key] = append(vers, retainedVer{until: e.current, enc: enc})
}

// lookupRetained returns the encoding of the version valid at the given
// epoch: the retained version with the smallest until >= epoch. ok=false
// means the live copy is (still) the right one.
func (e *Epochs) lookupRetained(name string, key array.ChunkKey, epoch uint64) ([]byte, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, v := range e.retained[name][key] {
		if v.until >= epoch {
			return v.enc, true
		}
	}
	return nil, false
}

// reclaimLocked drops every retained version no pinned snapshot (and no
// future pin of the current epoch) can need. A version with until=U serves
// pins at epochs <= U, so it is droppable once U < min(current, oldest pin).
func (e *Epochs) reclaimLocked() {
	min := e.current
	for ep := range e.pins {
		if ep < min {
			min = ep
		}
	}
	for name, byKey := range e.retained {
		for key, vers := range byKey {
			i := 0
			for i < len(vers) && vers[i].until < min {
				i++
			}
			if i == 0 {
				continue
			}
			if i == len(vers) {
				delete(byKey, key)
				continue
			}
			byKey[key] = append([]retainedVer(nil), vers[i:]...)
		}
		if len(byKey) == 0 {
			delete(e.retained, name)
		}
	}
}

// Stats summarizes the manager's state.
func (e *Epochs) Stats() EpochStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := EpochStats{Current: e.current}
	for _, n := range e.pins {
		st.Pins += n
	}
	for _, byKey := range e.retained {
		for _, vers := range byKey {
			st.RetainedVers += int64(len(vers))
			for _, v := range vers {
				st.RetainedBytes += int64(len(v.enc))
			}
		}
	}
	return st
}

// Acquire pins the current epoch and returns a snapshot reading against it.
// The pin holds retained versions alive until Release. Acquire never blocks
// on commit I/O — publication swaps a pointer under a short critical
// section — which is what keeps read admission independent of maintenance
// progress.
func (e *Epochs) Acquire() (*Snapshot, error) {
	if !e.enabled.Load() {
		return nil, fmt.Errorf("cluster: snapshot epochs not enabled")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.current == 0 {
		return nil, fmt.Errorf("cluster: no epoch published yet")
	}
	e.pins[e.current]++
	return &Snapshot{es: e, epoch: e.current, metas: e.metas}, nil
}

// Snapshot returns a read view for one query. With epochs on it is a pin of
// the current epoch (see Acquire). With epochs off it is an unpinned copy of
// the live catalog metadata at epoch 0, and epochs stay off, so a read adds
// no publish or retention cost to later commits; such a view is consistent
// only while no commit runs. Release it either way.
func (e *Epochs) Snapshot() (*Snapshot, error) {
	if e.enabled.Load() {
		return e.Acquire()
	}
	return &Snapshot{es: e, metas: e.durableMetas()}, nil
}

// Snapshot is a pinned, consistent view of the cluster at one epoch. All
// reads resolve against the epoch's catalog copy, never the live catalog, so
// a commit racing past the reader changes nothing the snapshot observes.
// Release the snapshot when done; a leaked pin blocks version reclamation.
type Snapshot struct {
	es       *Epochs
	epoch    uint64
	metas    map[string]*ArrayMeta
	released atomic.Bool
}

// Epoch returns the pinned epoch, or 0 for an unpinned live view.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Release unpins the snapshot's epoch and lets retention reclaim versions
// only this pin needed. Safe to call more than once.
func (s *Snapshot) Release() {
	if s.released.Swap(true) || s.epoch == 0 {
		return // released already, or an unpinned live view
	}
	e := s.es
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := e.pins[s.epoch]; n <= 1 {
		delete(e.pins, s.epoch)
	} else {
		e.pins[s.epoch] = n - 1
	}
	e.reclaimLocked()
}

// Schema returns the pinned schema of an array, or nil if the array was not
// part of the snapshot's epoch.
func (s *Snapshot) Schema(name string) *array.Schema {
	if m, ok := s.metas[name]; ok {
		return m.Schema
	}
	return nil
}

// Names lists the arrays visible in the snapshot, sorted.
func (s *Snapshot) Names() []string {
	out := make([]string, 0, len(s.metas))
	for n := range s.metas {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Keys returns the sorted chunk keys of an array as of the snapshot epoch.
func (s *Snapshot) Keys(name string) []array.ChunkKey {
	m, ok := s.metas[name]
	if !ok {
		return nil
	}
	out := make([]array.ChunkKey, 0, len(m.Home))
	for k := range m.Home {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ChunkMeta returns the pinned (home, size, cells) of one chunk.
func (s *Snapshot) ChunkMeta(name string, key array.ChunkKey) (home int, size int64, cells int, ok bool) {
	m, mok := s.metas[name]
	if !mok {
		return 0, 0, 0, false
	}
	home, ok = m.Home[key]
	return home, m.Size[key], m.Cells[key], ok
}

// ChunkHash returns the pinned content hash of one chunk, when the epoch's
// catalog copy knew it. Chunks touched by the publishing commit have no
// hash (SetChunk drops it); untouched chunks keep theirs, and those are
// exactly the chunks a content-addressed cache can serve without any read.
func (s *Snapshot) ChunkHash(name string, key array.ChunkKey) (uint64, bool) {
	m, ok := s.metas[name]
	if !ok {
		return 0, false
	}
	h, ok := m.Hash[key]
	return h, ok
}

// EncodedChunk returns the canonical encoding of a chunk's content as of
// the snapshot epoch.
func (s *Snapshot) EncodedChunk(name string, key array.ChunkKey) ([]byte, error) {
	enc, live, err := s.read(name, key)
	if enc != nil || err != nil {
		return enc, err
	}
	return array.EncodeChunk(live), nil
}

// Chunk returns a chunk's content as of the snapshot epoch, as a private
// copy. A live read hands back the fabric's decoded chunk as is.
func (s *Snapshot) Chunk(name string, key array.ChunkKey) (*array.Chunk, error) {
	enc, live, err := s.read(name, key)
	if enc != nil {
		return array.DecodeChunk(enc)
	}
	return live, err
}

// read returns a chunk's content as of the snapshot epoch: either a retained
// encoding or, failing that, the live chunk. The read protocol closes the
// race against the single writer, whose order is
// retain-pre-image-then-overwrite:
//
//  1. retained lookup — a hit is definitively the epoch's content;
//  2. miss → read the live copy (snapshot home, failing over to snapshot
//     replicas);
//  3. re-check retained — a hit now means a commit overwrote the chunk
//     while step 2 ran, so the retained pre-image wins; a miss proves no
//     retention preceded our live read, hence the live read saw the
//     epoch's content.
func (s *Snapshot) read(name string, key array.ChunkKey) ([]byte, *array.Chunk, error) {
	if enc, ok := s.es.lookupRetained(name, key, s.epoch); ok {
		return enc, nil, nil
	}
	live, liveErr := s.readLive(name, key)
	if enc, ok := s.es.lookupRetained(name, key, s.epoch); ok {
		return enc, nil, nil
	}
	return nil, live, liveErr
}

// readLive fetches the live copy of a chunk using the snapshot's pinned
// home and replica set (the live catalog may have rehomed or dropped the
// chunk, and those placements mean nothing for this epoch).
func (s *Snapshot) readLive(name string, key array.ChunkKey) (*array.Chunk, error) {
	m, ok := s.metas[name]
	if !ok {
		return nil, fmt.Errorf("cluster: array %q not in snapshot %d", name, s.epoch)
	}
	home, ok := m.Home[key]
	if !ok {
		return nil, fmt.Errorf("cluster: chunk %v of %q not in snapshot %d", key, name, s.epoch)
	}
	cands := []int{home}
	for n := range m.Replicas[key] {
		if n != home {
			cands = append(cands, n)
		}
	}
	sort.Ints(cands[1:])
	rerr := &ReadError{Array: name, Key: key}
	for _, n := range cands {
		ch, err := s.es.cl.GetAt(n, name, key)
		if err == nil {
			return ch, nil
		}
		rerr.Tried = append(rerr.Tried, n)
		rerr.Err = err
	}
	return nil, rerr
}

// Gather reconstructs the full logical array as of the snapshot epoch.
func (s *Snapshot) Gather(name string) (*array.Array, error) {
	return s.GatherCached(name, nil)
}

// GatherCached is Gather through an optional content-addressed read cache:
// chunks whose pinned content hash is known are served from (or inserted
// into) the cache, and cache hits skip the cluster read entirely.
func (s *Snapshot) GatherCached(name string, rc *ReadCache) (*array.Array, error) {
	sch := s.Schema(name)
	if sch == nil {
		return nil, fmt.Errorf("cluster: array %q not in snapshot %d", name, s.epoch)
	}
	out := array.New(sch)
	for _, key := range s.Keys(name) {
		ch, err := s.CachedChunk(name, key, rc)
		if err != nil {
			return nil, err
		}
		out.PutChunk(ch)
	}
	return out, nil
}

// CachedChunk is Chunk through an optional content-addressed read cache.
// The cache key is the chunk's content hash, so a hit can never serve the
// wrong version: a different version has a different hash by construction,
// and the hash used here is pinned to the snapshot epoch.
func (s *Snapshot) CachedChunk(name string, key array.ChunkKey, rc *ReadCache) (*array.Chunk, error) {
	if rc == nil {
		return s.Chunk(name, key)
	}
	hash, hok := s.ChunkHash(name, key)
	if !hok {
		hash, hok = rc.Hint(s.epoch, name, key)
	}
	if hok {
		if enc, ok := rc.Lookup(hash); ok {
			return array.DecodeChunk(enc)
		}
	}
	enc, err := s.EncodedChunk(name, key)
	if err != nil {
		return nil, err
	}
	h := array.HashChunkBytes(enc)
	rc.Insert(h, enc)
	rc.SetHint(s.epoch, name, key, h)
	return array.DecodeChunk(enc)
}
