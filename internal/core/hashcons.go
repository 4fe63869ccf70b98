package core

// Structural hash-consing for DAG nodes. Every lazy node gets a canonical
// content signature — op kind, scalar arguments (by float bit pattern),
// function identities, shape metadata, and the interned signatures of its
// children — so that structurally identical sub-expressions can be detected
// in O(1) per node. Two uses:
//
//   - common-subexpression elimination at DAG-build time: equal-signature
//     nodes within one pass share a single execution slot (§3.4's DAG
//     growing, extended with deduplication);
//   - the cross-materialize result cache (cache.go): signatures key cached
//     sub-DAG results so iterative algorithms rebuild structurally identical
//     subtrees for free.
//
// The 64-bit hash only selects the intern-table bucket; equality is always
// decided by full key comparison inside the bucket's collision chain, so a
// hash collision can never unify distinct structures.

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/matrix"
)

// funcIDs assigns stable process-lifetime identifiers to the Unary/Binary/
// AggFunc objects signatures reference. Identity is pointer identity — two
// functions with the same R name but different code must never unify — and
// the map retains its keys, so a function's address can never be reused for
// a different function while its id is live in a signature.
var funcIDs struct {
	mu   sync.Mutex
	next uint64
	ids  map[any]uint64
}

func funcID(f any) uint64 {
	switch v := f.(type) {
	case *Unary:
		if v == nil {
			return 0
		}
	case *Binary:
		if v == nil {
			return 0
		}
	case *AggFunc:
		if v == nil {
			return 0
		}
	case nil:
		return 0
	}
	funcIDs.mu.Lock()
	defer funcIDs.mu.Unlock()
	if funcIDs.ids == nil {
		funcIDs.ids = make(map[any]uint64)
	}
	if id, ok := funcIDs.ids[f]; ok {
		return id
	}
	funcIDs.next++
	funcIDs.ids[f] = funcIDs.next
	return funcIDs.next
}

// DefaultConsTableBytes bounds the intern table's retained key bytes before
// it resets (resetting also flushes the result cache, whose keys embed
// interned child ids of the retiring epoch).
const DefaultConsTableBytes = 64 << 20

type consEntry struct {
	key string
	id  uint64
}

// consTable interns structural keys: equal keys get equal ids, distinct keys
// distinct ids. Buckets are keyed by a 64-bit FNV hash; membership within a
// bucket is decided by comparing the full key strings.
type consTable struct {
	mu       sync.Mutex
	byHash   map[uint64][]consEntry
	nextID   uint64
	bytes    int64
	maxBytes int64
	epoch    uint64
	// testHash, when set by tests, replaces the bucket hash — forcing every
	// key into one bucket proves unification never trusts the hash alone.
	testHash func(string) uint64
}

func newConsTable(maxBytes int64) *consTable {
	if maxBytes <= 0 {
		maxBytes = DefaultConsTableBytes
	}
	return &consTable{byHash: make(map[uint64][]consEntry), maxBytes: maxBytes}
}

func (t *consTable) hash(key string) uint64 {
	if t.testHash != nil {
		return t.testHash(key)
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// intern returns the canonical id of key: equal keys map to equal ids.
func (t *consTable) intern(key string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.hash(key)
	for _, e := range t.byHash[h] {
		if e.key == key {
			return e.id
		}
	}
	t.nextID++
	t.byHash[h] = append(t.byHash[h], consEntry{key: key, id: t.nextID})
	t.bytes += int64(len(key)) + 48
	return t.nextID
}

func (t *consTable) overLimit() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes > t.maxBytes
}

// reset drops every interned key and advances the epoch. Ids interned before
// a reset are not comparable with ids interned after, so the caller flushes
// any cache keyed on them. Only called between passes.
func (t *consTable) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byHash = make(map[uint64][]consEntry)
	t.bytes = 0
	t.epoch++
}

func (t *consTable) epochNow() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// sigCtx computes canonical signatures for the nodes of one materialization
// call. Signatures are memoized per node pointer; because a node's contents
// cannot change during the pass (mutation APIs run between passes), the memo
// is a consistent snapshot even for nodes that become materialized mid-call.
type sigCtx struct {
	t        *consTable
	epoch    uint64
	ids      map[*Mat]uint64
	keys     map[*Mat]string
	sinkKeys map[*Sink]string
	// leafForm records nodes whose signature took identity form (leaf,
	// materialized, or mutated): the version-carrying dependencies of every
	// signature built above them.
	leafForm map[*Mat]bool
}

func newSigCtx(t *consTable) *sigCtx {
	return &sigCtx{
		t:        t,
		epoch:    t.epochNow(),
		ids:      make(map[*Mat]uint64),
		keys:     make(map[*Mat]string),
		sinkKeys: make(map[*Sink]string),
		leafForm: make(map[*Mat]bool),
	}
}

// idOf interns m's signature and returns the canonical id: nodes with equal
// ids are structurally identical (same ops, same parameters, same leaves at
// the same content versions).
func (c *sigCtx) idOf(m *Mat) uint64 {
	if id, ok := c.ids[m]; ok {
		return id
	}
	id := c.t.intern(c.keyOf(m))
	c.ids[m] = id
	return id
}

// keyOf builds m's structural key. Interior nodes encode their op and
// parameters plus the interned ids of their children (keeping keys O(node),
// not O(subtree), even for diamond-shaped DAGs); leaves, materialized nodes
// and mutated nodes take identity form keyed by (node id, content version).
func (c *sigCtx) keyOf(m *Mat) string {
	if k, ok := c.keys[m]; ok {
		return k
	}
	var b strings.Builder
	switch {
	case m.kind == opConst:
		fmt.Fprintf(&b, "C:%d:%d:%016x", m.nrow, m.ncol, math.Float64bits(m.vec[0]))
	case m.kind == opLeaf || m.Materialized() || m.isMutated():
		c.leafForm[m] = true
		fmt.Fprintf(&b, "L:%d@%d", m.id, m.contentVer())
	default:
		var aid, bid uint64
		if m.a != nil {
			aid = c.idOf(m.a)
		}
		if m.b != nil {
			bid = c.idOf(m.b)
		}
		fmt.Fprintf(&b, "%d:%d:%d|%d,%d", int(m.kind), m.ncol, int(m.dt), aid, bid)
		switch m.kind {
		case opSapply:
			fmt.Fprintf(&b, "|u=%d", funcID(m.un))
		case opMapplyMM:
			fmt.Fprintf(&b, "|f=%d", funcID(m.bin))
		case opMapplyScalar:
			fmt.Fprintf(&b, "|f=%d:s=%016x:l=%t", funcID(m.bin), math.Float64bits(m.scalar), m.scalarLeft)
		case opMapplyRowVec:
			fmt.Fprintf(&b, "|f=%d:l=%t:v=", funcID(m.bin), m.vecLeft)
			writeFloatBits(&b, m.vec)
		case opMapplyColVec:
			fmt.Fprintf(&b, "|f=%d:l=%t", funcID(m.bin), m.vecLeft)
		case opInnerProd:
			// The small operand is keyed by full contents (bit patterns):
			// in-place edits to the dense between materializations change
			// the key, so stale matches are structurally impossible.
			fmt.Fprintf(&b, "|f1=%d:f2=%d:B=%dx%d:", funcID(m.f1), funcID(m.f2), m.small.R, m.small.C)
			writeFloatBits(&b, m.small.Data)
		case opAggRow:
			fmt.Fprintf(&b, "|g=%d:arg=%d", funcID(m.agg), int(m.arg))
		case opGroupByCol:
			fmt.Fprintf(&b, "|g=%d:k=%d:lab=%v", funcID(m.agg), m.groupK, m.colLabels)
		case opCumRow, opCumCol:
			fmt.Fprintf(&b, "|g=%d", funcID(m.agg))
		case opCols, opSetCols:
			fmt.Fprintf(&b, "|c=%v", m.cols)
		}
	}
	k := b.String()
	c.keys[m] = k
	return k
}

// sinkID interns the signature of a sink GenOp.
func (c *sigCtx) sinkID(s *Sink) uint64 {
	return c.t.intern(c.sinkKey(s))
}

// sinkKey builds a sink's structural key. The crossprod kernel choice
// depends on operand object identity (Syrk for t(A)%*%A, GemmTA otherwise),
// so that identity bit is part of the key: a cached Syrk result is never
// served where the GemmTA path would have run, keeping results bit-identical
// to recomputation.
func (c *sigCtx) sinkKey(s *Sink) string {
	if k, ok := c.sinkKeys[s]; ok {
		return k
	}
	aid := c.idOf(s.a)
	var bid uint64
	self := 0
	if s.b != nil {
		bid = c.idOf(s.b)
		if s.a == s.b {
			self = 1
		}
	}
	k := fmt.Sprintf("S:%d:g=%d:f1=%d:f2=%d:k=%d:self=%d|%d,%d",
		int(s.kind), funcID(s.agg), funcID(s.f1), funcID(s.f2), s.k, self, aid, bid)
	c.sinkKeys[s] = k
	return k
}

func writeFloatBits(b *strings.Builder, xs []float64) {
	for _, v := range xs {
		fmt.Fprintf(b, "%016x,", math.Float64bits(v))
	}
}

// depsOf collects the ids of the identity-form nodes m's signature was built
// over — the version-carrying leaves a cached result depends on, indexed for
// explicit invalidation on mutation.
func (c *sigCtx) depsOf(m *Mat) []uint64 {
	var deps []uint64
	seen := make(map[uint64]bool)
	var walk func(*Mat)
	walk = func(m *Mat) {
		if m == nil || seen[m.id] {
			return
		}
		seen[m.id] = true
		if c.leafForm[m] {
			deps = append(deps, m.id)
			return
		}
		if m.kind == opConst {
			return
		}
		walk(m.a)
		walk(m.b)
	}
	walk(m)
	return deps
}

// sinkDepsOf is depsOf over a sink's inputs.
func (c *sigCtx) sinkDepsOf(s *Sink) []uint64 {
	deps := c.depsOf(s.a)
	if s.b != nil && s.b != s.a {
		for _, id := range c.depsOf(s.b) {
			dup := false
			for _, d := range deps {
				if d == id {
					dup = true
					break
				}
			}
			if !dup {
				deps = append(deps, id)
			}
		}
	}
	return deps
}

// refStore shares one materialized store between the result cache and any
// number of Mats (cache hits attach the same physical store to fresh nodes).
// Free releases one reference; the wrapped store is freed when the last
// reference goes, so neither side can pull the data out from under the
// other.
type refStore struct {
	matrix.Store
	refs atomic.Int32
}

func newRefStore(st matrix.Store) *refStore {
	r := &refStore{Store: st}
	r.refs.Store(1)
	return r
}

func (r *refStore) retain() { r.refs.Add(1) }

func (r *refStore) Free() error {
	if r.refs.Add(-1) > 0 {
		return nil
	}
	return r.Store.Free()
}

// unwrapStore strips the sharing wrapper for backend-specific fast paths
// (SAFS async prefetch, MemStore zero-copy partition references).
func unwrapStore(st matrix.Store) matrix.Store {
	if r, ok := st.(*refStore); ok {
		return r.Store
	}
	return st
}
