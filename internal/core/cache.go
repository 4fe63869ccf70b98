package core

// The cross-materialize sub-DAG result cache. Keys are the structural
// signatures of hashcons.go; values are either a shared tall store (refStore)
// or a sink partial. Entries are inserted only after a pass runs to
// completion — a cancelled or failed pass inserts nothing — and are evicted
// LRU under a byte budget, or explicitly when a dependency (a leaf at a
// recorded content version) is mutated.
//
// Soundness does not rest on explicit invalidation alone: leaf versions are
// embedded in the signatures themselves, so a mutated operand changes every
// key built over it and a stale entry can never match again. Explicit
// invalidation reclaims the memory immediately.

import (
	"container/list"
	"sync"
)

// DefaultResultCacheBytes is the result-cache budget when
// Config.ResultCacheBytes is zero.
const DefaultResultCacheBytes int64 = 256 << 20

type cacheEntry struct {
	key   string
	epoch uint64
	// Tall results hold a retained reference on a shared store; sink results
	// hold a clone of the sink's partial. Exactly one is set.
	store *refStore
	nrow  int64
	ncol  int
	sink  *SinkPartial
	deps  []uint64
	bytes int64
	elem  *list.Element
}

// resultCache is the byte-budgeted LRU over cached sub-DAG results.
type resultCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[string]*cacheEntry
	lru      *list.List // front = most recently used
	byDep    map[uint64]map[string]*cacheEntry
}

func newResultCache(maxBytes int64) *resultCache {
	return &resultCache{
		maxBytes: maxBytes,
		entries:  make(map[string]*cacheEntry),
		lru:      list.New(),
		byDep:    make(map[uint64]map[string]*cacheEntry),
	}
}

// hitLocked returns key's entry if it is of this epoch, marking it used.
func (c *resultCache) hitLocked(epoch uint64, key string) *cacheEntry {
	e := c.entries[key]
	if e == nil || e.epoch != epoch {
		return nil
	}
	c.lru.MoveToFront(e.elem)
	return e
}

// lookupTall returns a retained shared store for key, or ok=false. The shape
// check is defensive: signatures encode shape, so a mismatch means a key bug
// and must read as a miss, never as wrong data.
func (c *resultCache) lookupTall(epoch uint64, key string, nrow int64, ncol int) (*refStore, int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.hitLocked(epoch, key)
	if e == nil || e.store == nil || e.nrow != nrow || e.ncol != ncol {
		return nil, 0, false
	}
	e.store.retain()
	return e.store, e.bytes, true
}

// lookupSink returns a clone of the cached sink partial for key.
func (c *resultCache) lookupSink(epoch uint64, key string) (*SinkPartial, int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.hitLocked(epoch, key)
	if e == nil || e.sink == nil {
		return nil, 0, false
	}
	return e.sink.clone(), e.bytes, true
}

// insertTall caches a materialized tall result, retaining one reference on
// its store.
func (c *resultCache) insertTall(epoch uint64, key string, st *refStore, nrow int64, ncol int, deps []uint64) int {
	return c.insert(&cacheEntry{key: key, epoch: epoch, store: st, nrow: nrow, ncol: ncol, deps: deps, bytes: nrow * int64(ncol) * 8})
}

// insertSink caches a sink partial (ownership of p transfers to the cache;
// callers pass a clone).
func (c *resultCache) insertSink(epoch uint64, key string, p *SinkPartial, deps []uint64) int {
	if p == nil {
		return 0
	}
	return c.insert(&cacheEntry{key: key, epoch: epoch, sink: p, deps: deps, bytes: p.sizeBytes()})
}

// insert adds e, unless it exceeds the whole budget or its key holds an
// entry of this epoch, and returns the number of LRU evictions it forced.
func (c *resultCache) insert(e *cacheEntry) int {
	if e.bytes > c.maxBytes {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hitLocked(e.epoch, e.key) != nil {
		return 0
	}
	if e.store != nil {
		e.store.retain()
	}
	c.addLocked(e)
	return c.evictOverLocked()
}

func (c *resultCache) addLocked(e *cacheEntry) {
	if old := c.entries[e.key]; old != nil {
		c.removeLocked(old) // stale epoch under the same key
	}
	c.entries[e.key] = e
	e.elem = c.lru.PushFront(e)
	c.bytes += e.bytes
	for _, id := range e.deps {
		m := c.byDep[id]
		if m == nil {
			m = make(map[string]*cacheEntry)
			c.byDep[id] = m
		}
		m[e.key] = e
	}
}

func (c *resultCache) evictOverLocked() int {
	n := 0
	for c.bytes > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeLocked(back.Value.(*cacheEntry))
		n++
	}
	return n
}

func (c *resultCache) removeLocked(e *cacheEntry) {
	if c.entries[e.key] != e {
		return
	}
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	c.bytes -= e.bytes
	for _, id := range e.deps {
		if m := c.byDep[id]; m != nil {
			delete(m, e.key)
			if len(m) == 0 {
				delete(c.byDep, id)
			}
		}
	}
	if e.store != nil {
		e.store.Free() // release the cache's reference
	}
}

// invalidateDep drops every entry whose recorded dependencies include the
// given node id (called on []<- mutation and SetNamed overwrite).
func (c *resultCache) invalidateDep(id uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.byDep[id]
	n := 0
	for _, e := range m {
		c.removeLocked(e)
		n++
	}
	return n
}

// flush drops every entry (session close, intern-table epoch reset).
func (c *resultCache) flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		c.removeLocked(e)
	}
}

func (c *resultCache) stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.bytes
}
