package core

// The cross-materialize sub-DAG result cache. Keys are the structural
// signatures of hashcons.go; values are either a shared tall store (refStore)
// or a sink payload. Entries are inserted only after a pass runs to
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

	"repro/internal/dense"
)

// DefaultResultCacheBytes is the result-cache budget when
// Config.ResultCacheBytes is zero.
const DefaultResultCacheBytes int64 = 256 << 20

// sinkPayload snapshots a sink's published result for caching. Payloads are
// cloned on insert and on hit so user code mutating a returned dense can
// never corrupt the cached copy.
type sinkPayload struct {
	result *dense.Dense
	keys   []float64
	counts []int64
	folds  []float64
}

func (p *sinkPayload) clone() *sinkPayload {
	if p == nil {
		return nil
	}
	q := &sinkPayload{}
	if p.result != nil {
		q.result = p.result.Clone()
	}
	q.keys = append([]float64(nil), p.keys...)
	q.counts = append([]int64(nil), p.counts...)
	q.folds = append([]float64(nil), p.folds...)
	return q
}

func (p *sinkPayload) sizeBytes() int64 {
	var n int64
	if p.result != nil {
		n += int64(len(p.result.Data)) * 8
	}
	n += int64(len(p.keys))*8 + int64(len(p.counts))*8 + int64(len(p.folds))*8
	if n == 0 {
		n = 8
	}
	return n
}

type cacheEntry struct {
	key   string
	epoch uint64
	// Tall results hold a retained reference on a shared store; sink results
	// hold a payload snapshot. Exactly one is set.
	store *refStore
	nrow  int64
	ncol  int
	sink  *sinkPayload
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

// lookupTall returns a retained shared store for key, or ok=false. The shape
// check is defensive: signatures encode shape, so a mismatch means a key bug
// and must read as a miss, never as wrong data.
func (c *resultCache) lookupTall(epoch uint64, key string, nrow int64, ncol int) (*refStore, int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || e.epoch != epoch || e.store == nil || e.nrow != nrow || e.ncol != ncol {
		return nil, 0, false
	}
	c.lru.MoveToFront(e.elem)
	e.store.retain()
	return e.store, e.bytes, true
}

// lookupSink returns a clone of the cached sink payload for key.
func (c *resultCache) lookupSink(epoch uint64, key string) (*sinkPayload, int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || e.epoch != epoch || e.sink == nil {
		return nil, 0, false
	}
	c.lru.MoveToFront(e.elem)
	return e.sink.clone(), e.bytes, true
}

// insertTall caches a materialized tall result, retaining one reference on
// its store. Returns the number of LRU evictions the insert forced.
func (c *resultCache) insertTall(epoch uint64, key string, st *refStore, nrow int64, ncol int, deps []uint64) int {
	bytes := nrow * int64(ncol) * 8
	if bytes > c.maxBytes {
		return 0 // larger than the whole budget: never cacheable
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil && e.epoch == epoch {
		c.lru.MoveToFront(e.elem)
		return 0
	}
	st.retain()
	e := &cacheEntry{key: key, epoch: epoch, store: st, nrow: nrow, ncol: ncol, deps: deps, bytes: bytes}
	c.addLocked(e)
	return c.evictOverLocked()
}

// insertSink caches a sink payload snapshot (ownership of pl transfers to
// the cache; callers pass a clone).
func (c *resultCache) insertSink(epoch uint64, key string, pl *sinkPayload, deps []uint64) int {
	if pl == nil {
		return 0
	}
	bytes := pl.sizeBytes()
	if bytes > c.maxBytes {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entries[key]; e != nil && e.epoch == epoch {
		c.lru.MoveToFront(e.elem)
		return 0
	}
	e := &cacheEntry{key: key, epoch: epoch, sink: pl, deps: deps, bytes: bytes}
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
