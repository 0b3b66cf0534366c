package storage

import (
	"fmt"
	"testing"
)

func TestContentCacheLRUEviction(t *testing.T) {
	c := NewContentCache(30)
	var hashes []uint64
	for i := 0; i < 3; i++ {
		hashes = append(hashes, c.Insert([]byte(fmt.Sprintf("entry-%d---", i)))) // 10B each
	}
	if c.Bytes() != 30 {
		t.Fatalf("Bytes = %d, want 30", c.Bytes())
	}
	// Touch entry 0 so entry 1 is the LRU victim of the next insert.
	if _, ok := c.Lookup(hashes[0], -1); !ok {
		t.Fatal("entry 0 missing before eviction")
	}
	c.Insert([]byte("entry-3---"))
	if _, ok := c.Lookup(hashes[1], -1); ok {
		t.Error("entry 1 should have been evicted (least recently used)")
	}
	if _, ok := c.Lookup(hashes[0], -1); !ok {
		t.Error("entry 0 was touched and must survive eviction")
	}
	if c.Counters().Evictions.Load() == 0 {
		t.Error("eviction counter did not advance")
	}
}

func TestContentCacheSizeGuardAndCaps(t *testing.T) {
	c := NewContentCache(64)
	buf := []byte("payload-bytes")
	h := c.Insert(buf)

	// The size check is the collision insurance: a mismatched expectation
	// must read as a miss, not serve wrong bytes.
	if _, ok := c.Lookup(h, int64(len(buf))+1); ok {
		t.Error("lookup with wrong expected size must miss")
	}
	if got, ok := c.Lookup(h, int64(len(buf))); !ok || string(got) != string(buf) {
		t.Errorf("lookup with right size = %q, %v", got, ok)
	}

	// Oversized entries are refused outright.
	c.InsertHashed(12345, make([]byte, 65))
	if _, ok := c.Lookup(12345, -1); ok {
		t.Error("entry larger than the cap must not be admitted")
	}

	// A zero-cap cache refuses inserts entirely.
	c = NewContentCache(0)
	c.Insert(buf)
	if c.Bytes() != 0 {
		t.Error("zero-cap cache admitted an entry")
	}
}
