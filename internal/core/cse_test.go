package core

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/dense"
	"repro/internal/numa"
)

// newCSEEngine builds a small in-memory engine with hash-consing on and a
// result cache sized for tests.
func newCSEEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.PartRows == 0 {
		cfg.PartRows = 256
	}
	if cfg.Topo == nil {
		cfg.Topo = numa.NewTopology(2, 1<<15)
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func cseDense(r, c int, seed int64) *dense.Dense {
	rng := rand.New(rand.NewSource(seed))
	d := dense.New(r, c)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

func bitsEqual(t *testing.T, name string, got, want *dense.Dense) {
	t.Helper()
	if got.R != want.R || got.C != want.C {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.R, got.C, want.R, want.C)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v (bits %016x), want %v (bits %016x)",
				name, i, got.Data[i], math.Float64bits(got.Data[i]),
				want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// TestCSEUnifiesDuplicateSubtrees: two structurally identical tall targets in
// one pass must execute once, and both must still materialize with the exact
// same bits a CSE-free engine computes.
func TestCSEUnifiesDuplicateSubtrees(t *testing.T) {
	ad := cseDense(1500, 3, 1)
	build := func(a *Mat) *Mat { return Sapply(Sapply(a, UnaryAbs), UnarySqrt) }

	ref := newCSEEngine(t, Config{DisableCSE: true})
	ra, err := ref.FromDense(ad)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.ToDense(build(ra))
	if err != nil {
		t.Fatal(err)
	}

	e := newCSEEngine(t, Config{})
	a, err := e.FromDense(ad)
	if err != nil {
		t.Fatal(err)
	}
	x1, x2 := build(a), build(a)
	if err := e.Materialize([]*Mat{x1, x2}, nil); err != nil {
		t.Fatal(err)
	}
	ms := e.LastMaterializeStats()
	// x2's inner and outer Sapply both unify onto x1's slots.
	if ms.CSEUnifications != 2 {
		t.Fatalf("CSEUnifications = %d, want 2 (stats: %s)", ms.CSEUnifications, ms)
	}
	// Only x1's two virtual nodes execute; x2 contributes none.
	if ms.NodesExecuted != 2 {
		t.Fatalf("NodesExecuted = %d, want 2 (stats: %s)", ms.NodesExecuted, ms)
	}
	for i, x := range []*Mat{x1, x2} {
		if !x.Materialized() {
			t.Fatalf("target %d not materialized", i)
		}
		got, err := e.ToDense(x)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "unified target", got, want)
	}
}

// TestResultCacheCrossMaterialize: rebuilding a structurally identical DAG in
// a later pass must be served whole from the result cache — zero nodes
// executed — with bit-identical contents.
func TestResultCacheCrossMaterialize(t *testing.T) {
	ad := cseDense(2000, 4, 2)
	e := newCSEEngine(t, Config{})
	a, err := e.FromDense(ad)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Mat { return MapplyScalar(Sapply(a, UnarySquare), 0.25, BinMul, false) }

	y1 := build()
	if err := e.Materialize([]*Mat{y1}, nil); err != nil {
		t.Fatal(err)
	}
	if ms := e.LastMaterializeStats(); ms.CacheHits != 0 || ms.CacheMisses == 0 {
		t.Fatalf("cold pass: hits=%d misses=%d, want 0 and >0", ms.CacheHits, ms.CacheMisses)
	}
	want, err := e.ToDense(y1)
	if err != nil {
		t.Fatal(err)
	}

	y2 := build()
	if err := e.Materialize([]*Mat{y2}, nil); err != nil {
		t.Fatal(err)
	}
	ms := e.LastMaterializeStats()
	if ms.CacheHits != 1 {
		t.Fatalf("warm pass CacheHits = %d, want 1 (stats: %s)", ms.CacheHits, ms)
	}
	if ms.NodesExecuted != 0 || ms.Passes != 0 {
		t.Fatalf("warm pass executed nodes=%d passes=%d, want 0/0 (stats: %s)",
			ms.NodesExecuted, ms.Passes, ms)
	}
	if ms.CacheHitBytes != int64(want.R*want.C*8) {
		t.Fatalf("CacheHitBytes = %d, want %d", ms.CacheHitBytes, want.R*want.C*8)
	}
	got, err := e.ToDense(y2)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "cache-served target", got, want)
}

// TestSinkCacheAndUnification: duplicate sinks unify within a pass, and a
// structurally identical sink built later is served from the cache without a
// pass.
func TestSinkCacheAndUnification(t *testing.T) {
	ad := cseDense(1200, 2, 3)
	e := newCSEEngine(t, Config{})
	a, err := e.FromDense(ad)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Sink { return Agg(Sapply(a, UnaryAbs), AggSum) }

	s1, s2 := mk(), mk()
	if err := e.Materialize(nil, []*Sink{s1, s2}); err != nil {
		t.Fatal(err)
	}
	if ms := e.LastMaterializeStats(); ms.CSEUnifications < 1 {
		t.Fatalf("duplicate sinks: CSEUnifications = %d, want >= 1 (stats: %s)", ms.CSEUnifications, ms)
	}
	if !s1.Done() || !s2.Done() {
		t.Fatal("unified sinks not both done")
	}
	v1, v2 := s1.Result().Data[0], s2.Result().Data[0]
	if math.Float64bits(v1) != math.Float64bits(v2) {
		t.Fatalf("unified sink results differ: %v vs %v", v1, v2)
	}

	s3 := mk()
	if err := e.Materialize(nil, []*Sink{s3}); err != nil {
		t.Fatal(err)
	}
	ms := e.LastMaterializeStats()
	if ms.CacheHits != 1 || ms.Passes != 0 {
		t.Fatalf("warm sink: hits=%d passes=%d, want 1/0 (stats: %s)", ms.CacheHits, ms.Passes, ms)
	}
	if got := s3.Result().Data[0]; math.Float64bits(got) != math.Float64bits(v1) {
		t.Fatalf("cache-served sink = %v, want %v", got, v1)
	}
}

// TestHashCollisionNeverUnifies forces every structural key into a single
// intern bucket and checks that structurally distinct DAGs — permuted
// children, different scalars, different scalar side, different functions,
// different op kinds — never unify and never poison the result cache, while a
// genuine duplicate still unifies through the collision chain.
func TestHashCollisionNeverUnifies(t *testing.T) {
	ad := cseDense(900, 3, 4)
	bd := cseDense(900, 3, 5)

	e := newCSEEngine(t, Config{})
	e.cons.testHash = func(string) uint64 { return 42 }
	a, err := e.FromDense(ad)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.FromDense(bd)
	if err != nil {
		t.Fatal(err)
	}

	// Each pair is structurally distinct in exactly one aspect.
	pairs := [][2]*Mat{
		{Mapply(a, b, BinSub), Mapply(b, a, BinSub)},                                // permuted children
		{MapplyScalar(a, 0.5, BinMul, false), MapplyScalar(a, 0.25, BinMul, false)}, // scalar value
		{MapplyScalar(a, 1.5, BinSub, false), MapplyScalar(a, 1.5, BinSub, true)},   // scalar side
		{Sapply(a, UnaryNeg), Sapply(a, UnaryFloor)},                                // function identity
		{CumRow(a, AggSum), CumCol(a, AggSum)},                                      // op kind
	}
	var talls []*Mat
	for _, p := range pairs {
		talls = append(talls, p[0], p[1])
	}
	if err := e.Materialize(talls, nil); err != nil {
		t.Fatal(err)
	}
	if ms := e.LastMaterializeStats(); ms.CSEUnifications != 0 {
		t.Fatalf("distinct structures unified under full hash collision: cse=%d (stats: %s)",
			ms.CSEUnifications, ms)
	}

	// Bit-compare every output against a CSE-free engine over the same data.
	ref := newCSEEngine(t, Config{DisableCSE: true})
	ra, err := ref.FromDense(ad)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := ref.FromDense(bd)
	if err != nil {
		t.Fatal(err)
	}
	refPairs := [][2]*Mat{
		{Mapply(ra, rb, BinSub), Mapply(rb, ra, BinSub)},
		{MapplyScalar(ra, 0.5, BinMul, false), MapplyScalar(ra, 0.25, BinMul, false)},
		{MapplyScalar(ra, 1.5, BinSub, false), MapplyScalar(ra, 1.5, BinSub, true)},
		{Sapply(ra, UnaryNeg), Sapply(ra, UnaryFloor)},
		{CumRow(ra, AggSum), CumCol(ra, AggSum)},
	}
	for i := range pairs {
		for side := 0; side < 2; side++ {
			got, err := e.ToDense(pairs[i][side])
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.ToDense(refPairs[i][side])
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, pairs[i][side].OpName(), got, want)
		}
	}

	// Positive control: a true duplicate still unifies inside the single
	// collided bucket (the chain compares full keys, not hashes).
	d1, d2 := Sapply(a, UnaryExp), Sapply(a, UnaryExp)
	if err := e.Materialize([]*Mat{d1, d2}, nil); err != nil {
		t.Fatal(err)
	}
	if ms := e.LastMaterializeStats(); ms.CSEUnifications != 1 {
		t.Fatalf("true duplicate did not unify under collision: cse=%d", ms.CSEUnifications)
	}
}

// TestHashCollisionProperty is the randomized flavor: with every key forced
// into one bucket, random pairs of same-shape expressions differing only in a
// scalar must keep distinct values.
func TestHashCollisionProperty(t *testing.T) {
	ad := cseDense(600, 2, 6)
	e := newCSEEngine(t, Config{})
	e.cons.testHash = func(string) uint64 { return 0 }
	a, err := e.FromDense(ad)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		s1 := rng.NormFloat64()
		s2 := s1 + 1 + rng.Float64() // always distinct
		x1 := MapplyScalar(a, s1, BinAdd, false)
		x2 := MapplyScalar(a, s2, BinAdd, false)
		before := e.TotalMaterializeStats()
		if err := e.Materialize([]*Mat{x1, x2}, nil); err != nil {
			t.Fatal(err)
		}
		if d := e.TotalMaterializeStats().Sub(before); d.CSEUnifications != 0 {
			t.Fatalf("trial %d: scalars %v vs %v unified", trial, s1, s2)
		}
		g1, err := e.ToDense(x1)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := e.ToDense(x2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range g1.Data {
			if math.Float64bits(g1.Data[i]) != math.Float64bits(ad.Data[i]+s1) {
				t.Fatalf("trial %d: x1[%d] = %v, want %v", trial, i, g1.Data[i], ad.Data[i]+s1)
			}
			if math.Float64bits(g2.Data[i]) != math.Float64bits(ad.Data[i]+s2) {
				t.Fatalf("trial %d: x2[%d] = %v, want %v", trial, i, g2.Data[i], ad.Data[i]+s2)
			}
		}
	}
}

// TestCancelledPassInsertsNothing: a pass aborted by context cancellation must
// leave the result cache exactly as it was — no partial entries — and the
// same DAG must still materialize cleanly afterwards.
func TestCancelledPassLeavesCacheEmpty(t *testing.T) {
	ad := cseDense(8192, 4, 8)
	e := newCSEEngine(t, Config{Workers: 1})
	a, err := e.FromDense(ad)
	if err != nil {
		t.Fatal(err)
	}
	y := Sapply(Mapply(a, a, BinMul), UnarySqrt)
	k := Agg(a, AggSum)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	e.testSchedEvent = func(kind string, p int) {
		if kind != "process" {
			return
		}
		// Cancel at the first partition and stall the worker long enough for
		// the watcher to flag the failure before the next partition starts.
		once.Do(func() {
			cancel()
			time.Sleep(100 * time.Millisecond)
		})
	}
	err = e.MaterializeCtx(ctx, []*Mat{y}, []*Sink{k})
	e.testSchedEvent = nil
	if err == nil {
		t.Fatal("cancelled materialization returned nil error")
	}
	if entries, bytes := e.ResultCacheStats(); entries != 0 || bytes != 0 {
		t.Fatalf("cache holds %d entries / %d bytes after cancelled pass, want empty", entries, bytes)
	}
	if y.Materialized() || k.Done() {
		t.Fatal("targets published despite cancellation")
	}

	// The same nodes must run cleanly on retry, and only then populate the
	// cache.
	if err := e.Materialize([]*Mat{y}, []*Sink{k}); err != nil {
		t.Fatal(err)
	}
	if entries, _ := e.ResultCacheStats(); entries != 2 {
		t.Fatalf("cache entries after clean retry = %d, want 2", entries)
	}
	ref := newCSEEngine(t, Config{DisableCSE: true})
	ra, err := ref.FromDense(ad)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.ToDense(Sapply(Mapply(ra, ra, BinMul), UnarySqrt))
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.ToDense(y)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "retried target", got, want)
}

// TestLeafMutationInvalidatesCache: an in-place write to a leaf must drop
// every cached result built over it, and rebuilding the expression must
// recompute against the new contents.
func TestLeafMutationInvalidatesCache(t *testing.T) {
	ad := cseDense(700, 2, 9)
	e := newCSEEngine(t, Config{})
	a, err := e.FromDense(ad)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Mat { return MapplyScalar(a, 3, BinMul, false) }
	if err := e.Materialize([]*Mat{build()}, nil); err != nil {
		t.Fatal(err)
	}
	if entries, _ := e.ResultCacheStats(); entries == 0 {
		t.Fatal("no cache entry after cold pass")
	}

	if err := e.SetElement(a, 0, 0, 1234.5); err != nil {
		t.Fatal(err)
	}
	if entries, _ := e.ResultCacheStats(); entries != 0 {
		t.Fatalf("cache holds %d entries after leaf mutation, want 0", entries)
	}

	y := build()
	if err := e.Materialize([]*Mat{y}, nil); err != nil {
		t.Fatal(err)
	}
	if ms := e.LastMaterializeStats(); ms.CacheHits != 0 {
		t.Fatalf("post-mutation pass served %d stale cache hits", ms.CacheHits)
	}
	got, err := e.ToDense(y)
	if err != nil {
		t.Fatal(err)
	}
	if got.At(0, 0) != 1234.5*3 {
		t.Fatalf("post-mutation result[0,0] = %v, want %v", got.At(0, 0), 1234.5*3)
	}
}

// TestMutationInvalidatesTwoLeafSink: a cached sink whose key covers two
// leaves (a column selection over their cbind) must not be served after one
// of them is mutated; the rebuilt sink must match a cold engine that only
// ever saw the mutated data.
func TestMutationInvalidatesTwoLeafSink(t *testing.T) {
	ad, bd := cseDense(600, 3, 28), cseDense(600, 2, 29)
	build := func(a, b *Mat) *Sink {
		return Agg(MapplyScalar(Cols(Cbind2(a, b), []int{3, 0}), 2, BinMul, false), AggSum)
	}
	e := newCSEEngine(t, Config{})
	a, _ := e.FromDense(ad)
	b, _ := e.FromDense(bd)
	if err := e.Materialize(nil, []*Sink{build(a, b)}); err != nil {
		t.Fatal(err)
	}
	if entries, _ := e.ResultCacheStats(); entries == 0 {
		t.Fatal("no cache entries after cold pass")
	}

	if err := e.SetElement(a, 0, 0, 1e6); err != nil {
		t.Fatal(err)
	}
	s := build(a, b)
	if err := e.Materialize(nil, []*Sink{s}); err != nil {
		t.Fatal(err)
	}
	if ms := e.LastMaterializeStats(); ms.CacheHits != 0 {
		t.Fatalf("post-mutation pass served %d stale cache hits", ms.CacheHits)
	}

	ad.Set(0, 0, 1e6)
	cold := newCSEEngine(t, Config{})
	ca, _ := cold.FromDense(ad)
	cb, _ := cold.FromDense(bd)
	want := build(ca, cb)
	if err := cold.Materialize(nil, []*Sink{want}); err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "post-mutation sum", s.Result(), want.Result())
}

// TestCSEDiamondSharedSubtree: two consumers of one shared subtree, each a
// column selection of it, unify into one chain, and both sums match a
// CSE-free engine bit for bit.
func TestCSEDiamondSharedSubtree(t *testing.T) {
	ad := cseDense(900, 6, 30)
	build := func(a *Mat) (*Sink, *Sink) {
		shared := MapplyScalar(Sapply(a, UnaryAbs), 2, BinMul, false)
		return Agg(Cols(shared, []int{0, 1}), AggSum), Agg(Cols(shared, []int{0, 1}), AggSum)
	}
	e := newCSEEngine(t, Config{})
	a, _ := e.FromDense(ad)
	s1, s2 := build(a)
	if err := e.Materialize(nil, []*Sink{s1, s2}); err != nil {
		t.Fatal(err)
	}
	if ms := e.LastMaterializeStats(); ms.CSEUnifications == 0 {
		t.Fatalf("diamond: no CSE unification (stats: %s)", ms)
	}

	ref := newCSEEngine(t, Config{DisableCSE: true})
	ra, _ := ref.FromDense(ad)
	r1, r2 := build(ra)
	if err := ref.Materialize(nil, []*Sink{r1, r2}); err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "diamond left", s1.Result(), r1.Result())
	bitsEqual(t, "diamond right", s2.Result(), r2.Result())
}

// TestMutationPrivatizesCachedStore: writing into a matrix whose store is
// shared with the result cache must copy-on-write, so cached bits stay exact
// and a later structurally identical expression is correctly served the
// pre-mutation value.
func TestMutationPrivatizesCachedStore(t *testing.T) {
	ad := cseDense(500, 2, 10)
	e := newCSEEngine(t, Config{})
	a, err := e.FromDense(ad)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *Mat { return Sapply(a, UnarySquare) }
	y := build()
	if err := e.Materialize([]*Mat{y}, nil); err != nil {
		t.Fatal(err)
	}
	want, err := e.ToDense(y)
	if err != nil {
		t.Fatal(err)
	}

	// Mutate y itself. The leaf a is untouched, so square(a) stays cached —
	// and must still hold the pre-mutation bits.
	if err := e.SetElement(y, 0, 0, -1); err != nil {
		t.Fatal(err)
	}
	yd, err := e.ToDense(y)
	if err != nil {
		t.Fatal(err)
	}
	if yd.At(0, 0) != -1 {
		t.Fatalf("mutated y[0,0] = %v, want -1", yd.At(0, 0))
	}

	y2 := build()
	if err := e.Materialize([]*Mat{y2}, nil); err != nil {
		t.Fatal(err)
	}
	if ms := e.LastMaterializeStats(); ms.CacheHits != 1 {
		t.Fatalf("square(a) not cache-served after unrelated mutation: hits=%d", ms.CacheHits)
	}
	got, err := e.ToDense(y2)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "privatized cache entry", got, want)
}

// TestResultCacheEviction: a byte-budgeted cache must evict LRU entries
// instead of growing without bound.
func TestResultCacheEviction(t *testing.T) {
	// Each result is 512×4×8 = 16 KiB; budget fits at most four.
	e := newCSEEngine(t, Config{ResultCacheBytes: 64 << 10})
	ad := cseDense(512, 4, 11)
	a, err := e.FromDense(ad)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		y := MapplyScalar(a, float64(i), BinAdd, false)
		if err := e.Materialize([]*Mat{y}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if total := e.TotalMaterializeStats(); total.CacheEvictions == 0 {
		t.Fatal("no evictions under a 64 KiB budget after 128 KiB of inserts")
	}
	entries, bytes := e.ResultCacheStats()
	if bytes > 64<<10 {
		t.Fatalf("cache resident bytes %d exceed the 64 KiB budget", bytes)
	}
	if entries == 0 || entries > 4 {
		t.Fatalf("cache entries = %d, want 1..4", entries)
	}
}

// TestConsTableResetFlushesCache: an intern-table reset advances the epoch
// and must flush the result cache (its keys embed ids of the retiring epoch),
// after which passes repopulate it normally.
func TestConsTableResetFlushesCache(t *testing.T) {
	e := newCSEEngine(t, Config{})
	// Shrink the intern budget so the second materialize trips the reset.
	e.cons.maxBytes = 1
	ad := cseDense(400, 2, 12)
	a, err := e.FromDense(ad)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Materialize([]*Mat{Sapply(a, UnaryAbs)}, nil); err != nil {
		t.Fatal(err)
	}
	if entries, _ := e.ResultCacheStats(); entries != 1 {
		t.Fatalf("entries after first pass = %d, want 1", entries)
	}
	epoch0 := e.cons.epochNow()
	if err := e.Materialize([]*Mat{Sapply(a, UnaryNeg)}, nil); err != nil {
		t.Fatal(err)
	}
	if e.cons.epochNow() != epoch0+1 {
		t.Fatalf("intern table did not reset: epoch %d, want %d", e.cons.epochNow(), epoch0+1)
	}
	// The flush dropped the first entry; the second pass inserted its own.
	if entries, _ := e.ResultCacheStats(); entries != 1 {
		t.Fatalf("entries after reset pass = %d, want 1 (fresh epoch only)", entries)
	}
}
