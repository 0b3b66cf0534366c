package storage

import (
	"container/list"
	"sync"

	"github.com/arrayview/arrayview/internal/array"
	"github.com/arrayview/arrayview/internal/obs"
)

// ContentCache is a bounded LRU of chunk encodings keyed by their FNV-1a
// content hash. Content addressing is what makes it safe to share across
// versions and readers: a hash identifies exactly one byte string, so a hit
// can never serve stale data — at worst the entry for the version a reader
// wants has been evicted and the reader falls back to a real read. Two
// consumers use it: each node Store sidelines displaced encodings here to
// back the wire dedup handshake, and the serving layer's ReadCache keeps
// hot snapshot chunks here to absorb repeated queries. It is safe for
// concurrent use.
type ContentCache struct {
	mu       sync.Mutex
	capBytes int64
	bytes    int64
	lru      *list.List // front = most recently used
	idx      map[uint64]*list.Element
	counters obs.CacheCounters
}

type contentEntry struct {
	hash uint64
	buf  []byte
}

// NewContentCache returns an empty cache bounded to capBytes (0 disables
// caching entirely).
func NewContentCache(capBytes int64) *ContentCache {
	return &ContentCache{
		capBytes: capBytes,
		lru:      list.New(),
		idx:      make(map[uint64]*list.Element),
	}
}

// Counters exposes the cache's hit/miss/bytes accounting.
func (c *ContentCache) Counters() *obs.CacheCounters { return &c.counters }

// Insert hashes the encoding and admits it, returning the content hash.
func (c *ContentCache) Insert(buf []byte) uint64 {
	h := array.HashChunkBytes(buf)
	c.InsertHashed(h, buf)
	return h
}

// InsertHashed admits an encoding under a hash the caller already computed.
// The buffer must not be mutated afterwards. Entries past the byte cap are
// evicted least-recently-used first; re-inserting a resident hash only
// refreshes its recency.
func (c *ContentCache) InsertHashed(hash uint64, buf []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capBytes <= 0 || int64(len(buf)) > c.capBytes {
		return
	}
	if el, ok := c.idx[hash]; ok {
		c.lru.MoveToFront(el)
		return
	}
	el := c.lru.PushFront(&contentEntry{hash: hash, buf: buf})
	c.idx[hash] = el
	c.bytes += int64(len(buf))
	c.counters.BytesInserted.Add(int64(len(buf)))
	c.evictLocked()
}

// evictLocked drops least-recently-used entries until the cache fits the
// cap. Caller holds c.mu.
func (c *ContentCache) evictLocked() {
	for c.bytes > c.capBytes {
		last := c.lru.Back()
		if last == nil {
			return
		}
		e := last.Value.(*contentEntry)
		c.lru.Remove(last)
		delete(c.idx, e.hash)
		c.bytes -= int64(len(e.buf))
		c.counters.Evictions.Add(1)
	}
}

// Lookup returns the cached encoding for a content hash, verifying the
// expected length when size >= 0 (the cheap insurance against an FNV
// collision), and refreshes its recency. The returned slice is the cache's
// buffer and must be treated as read-only.
func (c *ContentCache) Lookup(hash uint64, size int64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[hash]
	if !ok {
		c.counters.Misses.Add(1)
		return nil, false
	}
	e := el.Value.(*contentEntry)
	if size >= 0 && int64(len(e.buf)) != size {
		c.counters.Misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.counters.Hits.Add(1)
	c.counters.BytesServed.Add(int64(len(e.buf)))
	return e.buf, true
}

// Bytes returns the cache's current footprint.
func (c *ContentCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
