package server

import (
	"container/list"
	"sync"
)

// lru is the one byte-weighted LRU behind both of the daemon's caches:
// the result cache (finished bodies, see newResultCache) and the warm
// cache (colony states, see warmCache). Values vary by orders of
// magnitude — a plain layering body is a few KiB, an SVG render can run
// to megabytes, a pheromone matrix to tens of MiB — so a purely
// entry-counted LRU would let one burst of big values evict hundreds of
// cheap ones. Entries are evicted least-recently-used until both the
// entry cap (0 = none) and the byte budget (<= 0 = none) hold, and a
// value heavier than maxBytes/admitDiv is never cached at all — it would
// purge a disproportionate slice of the working set for one entry of
// dubious reuse. Rejections are counted for /metrics.
//
// Safe for concurrent use; a nil *lru is a disabled cache (Get always
// misses, Put is a no-op).
type lru[V any] struct {
	mu       sync.Mutex
	cap      int
	maxBytes int64
	admitDiv int64
	weigh    func(V) int64
	// onRemove, when set, is called with mu held for every value that
	// leaves the cache: evicted, replaced, or dropped as stale.
	onRemove func(V)
	bytes    int64
	oversize int64      // values refused admission for weight
	ll       *list.List // of *lruEntry[V]; front = most recently used
	m        map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	v   V
}

// lruStats is what /metrics reports of a cache.
type lruStats struct {
	entries         int
	bytes, oversize int64
}

func newLRU[V any](capacity int, maxBytes, admitDiv int64, weigh func(V) int64, onRemove func(V)) *lru[V] {
	return &lru[V]{cap: capacity, maxBytes: maxBytes, admitDiv: admitDiv, weigh: weigh, onRemove: onRemove,
		ll: list.New(), m: make(map[string]*list.Element)}
}

// newResultCache is the cache of finished response bodies, keyed by the
// canonical (graph, params) hash (see requestKey). Because a colony run
// is a bitwise-deterministic function of the graph and the parameters,
// a cached body is exactly the body a recomputation would produce — the
// cache trades CPU for memory with no approximation. Bodies above an
// eighth of the byte budget are not admitted. A capacity <= 0 disables
// the cache (nil).
func newResultCache(capacity int, maxBytes int64) *lru[[]byte] {
	if capacity <= 0 {
		return nil
	}
	return newLRU(capacity, maxBytes, 8, func(b []byte) int64 { return int64(len(b)) }, nil)
}

// Get returns the value cached under key and marks it most recently
// used. Values are shared: callers must not modify them.
func (c *lru[V]) Get(key string) (v V, ok bool) {
	if c != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
		v, ok = c.get(key)
	}
	return v, ok
}

// get is Get with c.mu held.
func (c *lru[V]) get(key string) (v V, ok bool) {
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry[V]).v, true
	}
	return v, false
}

// Put stores v under key, replacing any entry there, and evicts
// least-recently-used entries until the entry cap and the byte budget
// hold. A value above the admission threshold is refused, and any stale
// entry for key dropped. Put reports whether v was admitted.
func (c *lru[V]) Put(key string, v V) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.put(key, v)
}

// put is Put with c.mu held.
func (c *lru[V]) put(key string, v V) bool {
	el, ok := c.m[key]
	if ok {
		c.remove(el)
	}
	w := c.weigh(v)
	if c.maxBytes > 0 && w > c.maxBytes/c.admitDiv {
		c.oversize++
		return false
	}
	c.m[key] = c.ll.PushFront(&lruEntry[V]{key, v})
	c.bytes += w
	for c.ll.Len() > 1 && (c.cap > 0 && c.ll.Len() > c.cap || c.maxBytes > 0 && c.bytes > c.maxBytes) {
		c.remove(c.ll.Back())
	}
	return true
}

// remove drops an element; the caller holds c.mu.
func (c *lru[V]) remove(el *list.Element) {
	e := c.ll.Remove(el).(*lruEntry[V])
	delete(c.m, e.key)
	c.bytes -= c.weigh(e.v)
	if c.onRemove != nil {
		c.onRemove(e.v)
	}
}

// Stats returns the entry count, the cached bytes and the number of
// values refused admission.
func (c *lru[V]) Stats() lruStats {
	if c == nil {
		return lruStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return lruStats{c.ll.Len(), c.bytes, c.oversize}
}
