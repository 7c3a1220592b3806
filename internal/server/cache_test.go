package server

import (
	"bytes"
	"fmt"
	"testing"
)

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2, 0)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	// a was just used, so inserting c evicts b.
	c.Put("c", []byte("C"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s missing", k)
		}
	}
	if c.Stats().entries != 2 {
		t.Fatalf("Len = %d, want 2", c.Stats().entries)
	}
}

func TestResultCacheOverwrite(t *testing.T) {
	c := newResultCache(2, 0)
	c.Put("a", []byte("old"))
	c.Put("a", []byte("new"))
	if c.Stats().entries != 1 {
		t.Fatalf("Len = %d, want 1", c.Stats().entries)
	}
	got, ok := c.Get("a")
	if !ok || !bytes.Equal(got, []byte("new")) {
		t.Fatalf("Get(a) = %q, %v; want \"new\"", got, ok)
	}
}

func TestResultCacheDisabled(t *testing.T) {
	c := newResultCache(-1, 0)
	c.Put("a", []byte("A"))
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if c.Stats().entries != 0 {
		t.Fatalf("Len = %d, want 0", c.Stats().entries)
	}
}

func TestResultCacheEvictionSweep(t *testing.T) {
	c := newResultCache(8, 0)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
		if c.Stats().entries > 8 {
			t.Fatalf("cache grew to %d entries", c.Stats().entries)
		}
	}
	// The last 8 inserted survive.
	for i := 92; i < 100; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d missing", i)
		}
	}
}

func TestResultCacheByteBudget(t *testing.T) {
	// Budget of 1000 bytes: admission limit 125; small bodies fill until
	// the byte budget evicts LRU-first.
	c := newResultCache(1000, 1000)
	for i := 0; i < 12; i++ {
		c.Put(fmt.Sprintf("k%d", i), make([]byte, 100))
	}
	if bytes := c.Stats().bytes; bytes > 1000 {
		t.Fatalf("cached %d bytes, budget 1000", bytes)
	}
	if c.Stats().entries != 10 {
		t.Fatalf("Len = %d, want 10 (1000/100)", c.Stats().entries)
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("oldest entry survived the byte budget")
	}
	if _, ok := c.Get("k11"); !ok {
		t.Fatal("newest entry evicted")
	}
}

// TestResultCacheOversizeAdmission pins the satellite's point: one giant
// body (an SVG render) is refused admission instead of evicting dozens
// of plain layering entries.
func TestResultCacheOversizeAdmission(t *testing.T) {
	c := newResultCache(1000, 1000)
	for i := 0; i < 8; i++ {
		c.Put(fmt.Sprintf("k%d", i), make([]byte, 50))
	}
	c.Put("svg", make([]byte, 500)) // > 1000/8 = 125: refused
	if _, ok := c.Get("svg"); ok {
		t.Fatal("oversize body admitted")
	}
	for i := 0; i < 8; i++ {
		if _, ok := c.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("k%d evicted by a refused oversize body", i)
		}
	}
	if oversize := c.Stats().oversize; oversize != 1 {
		t.Fatalf("oversize rejects = %d, want 1", oversize)
	}
}

func TestResultCacheOversizeReplacesStaleEntry(t *testing.T) {
	c := newResultCache(1000, 1000)
	c.Put("a", make([]byte, 100))
	c.maxBytes = 400 // budget shrank; the same key now exceeds admission
	c.Put("a", make([]byte, 100))
	if _, ok := c.Get("a"); ok {
		t.Fatal("stale entry survived an oversize re-put")
	}
	if bytes := c.Stats().bytes; bytes != 0 {
		t.Fatalf("bytes = %d after removal, want 0", bytes)
	}
}

func TestResultCacheNoByteBound(t *testing.T) {
	c := newResultCache(4, -1)
	c.Put("big", make([]byte, 1<<20))
	if _, ok := c.Get("big"); !ok {
		t.Fatal("unbounded-bytes cache refused a body")
	}
}
