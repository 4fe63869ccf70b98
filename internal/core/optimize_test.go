package core

import (
	"math"
	"testing"

	"repro/internal/dense"
)

// intDense builds a matrix of small integers so that sums and scalar folds
// are exact in float64 — fold tests can then assert bit-identity instead of
// a tolerance.
func intDense(r, c int, seed int64) *dense.Dense {
	d := dense.New(r, c)
	v := seed
	for i := range d.Data {
		v = (v*1103515245 + 12345) % 97
		d.Data[i] = float64(v - 48)
	}
	return d
}

// refValue materializes the same graph on a rewrite-free, CSE-free engine
// and returns the dense result — the ground truth every rewrite must match.
func refValue(t *testing.T, ad *dense.Dense, build func(*Mat) *Mat) *dense.Dense {
	t.Helper()
	ref := newCSEEngine(t, Config{DisableCSE: true})
	ra, err := ref.FromDense(ad)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.ToDense(build(ra))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestRewriteIdentityColsEliminated: selecting every column in order is a
// no-op view; the rewriter must drop it and the result must be bit-identical.
func TestRewriteIdentityColsEliminated(t *testing.T) {
	ad := cseDense(900, 4, 11)
	build := func(a *Mat) *Mat { return Cols(Sapply(a, UnaryAbs), []int{0, 1, 2, 3}) }
	want := refValue(t, ad, build)

	e := newCSEEngine(t, Config{})
	a, err := e.FromDense(ad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.ToDense(build(a))
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "identity cols", got, want)
	if ms := e.LastMaterializeStats(); ms.RewriteViews == 0 {
		t.Fatalf("identity selection not eliminated: %+v", ms)
	}
}

// TestRewriteColsPushdown: a column selection above an elementwise chain is
// pushed below it, so the narrowed subtree computes (and reads) only the
// selected columns. Results stay bit-identical. (The bytes-read reduction is
// gated end-to-end on the external-memory path by the root package's
// TestRewriteAblationEM; in-memory leaves report no read bytes.)
func TestRewriteColsPushdown(t *testing.T) {
	ad := cseDense(1200, 8, 12)
	sel := []int{1, 5}
	build := func(a *Mat) *Mat {
		return Cols(MapplyScalar(Sapply(a, UnaryAbs), 2, BinMul, false), sel)
	}
	want := refValue(t, ad, build)

	e := newCSEEngine(t, Config{})
	a, err := e.FromDense(ad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.ToDense(build(a))
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "cols pushdown", got, want)
	ms := e.LastMaterializeStats()
	if ms.RewriteViews < 2 {
		t.Fatalf("pushdown applied %d view rewrites, want >= 2", ms.RewriteViews)
	}
}

// TestRewriteColsComposition: Cols∘Cols composes into one selection over the
// base, and a row-vector operand is sliced to match the pushed selection.
func TestRewriteColsComposition(t *testing.T) {
	ad := cseDense(800, 6, 13)
	build := func(a *Mat) *Mat {
		inner := Cols(MapplyRowVec(a, []float64{1, 2, 3, 4, 5, 6}, BinAdd, false), []int{5, 3, 1, 0})
		return Cols(inner, []int{2, 0})
	}
	want := refValue(t, ad, build)

	e := newCSEEngine(t, Config{})
	a, err := e.FromDense(ad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.ToDense(build(a))
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "cols composition", got, want)
	if ms := e.LastMaterializeStats(); ms.RewriteViews < 2 {
		t.Fatalf("composition applied %d view rewrites, want >= 2", ms.RewriteViews)
	}
}

// TestRewriteDCECbind: selecting only left-input columns from a cbind must
// disconnect the right input entirely — it is never read.
func TestRewriteDCECbind(t *testing.T) {
	ad, bd := cseDense(1000, 3, 14), cseDense(1000, 5, 15)
	build := func(a, b *Mat) *Mat {
		return Cols(Cbind2(a, Sapply(b, UnaryAbs)), []int{2, 0})
	}

	ref := newCSEEngine(t, Config{DisableCSE: true})
	ra, _ := ref.FromDense(ad)
	rb, _ := ref.FromDense(bd)
	want, err := ref.ToDense(build(ra, rb))
	if err != nil {
		t.Fatal(err)
	}

	off := newCSEEngine(t, Config{DisableRewrites: true})
	offa, _ := off.FromDense(ad)
	offb, _ := off.FromDense(bd)
	if _, err := off.ToDense(build(offa, offb)); err != nil {
		t.Fatal(err)
	}
	offNodes := off.LastMaterializeStats().NodesExecuted

	e := newCSEEngine(t, Config{})
	a, _ := e.FromDense(ad)
	b, _ := e.FromDense(bd)
	got, err := e.ToDense(build(a, b))
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "cbind dce", got, want)
	ms := e.LastMaterializeStats()
	if ms.RewriteDCE == 0 || ms.RewriteDeadNodes == 0 {
		t.Fatalf("cbind dead input not eliminated: %+v", ms)
	}
	if ms.NodesExecuted >= offNodes {
		t.Fatalf("dce executed %d nodes, rewrites-off executed %d — want strictly fewer", ms.NodesExecuted, offNodes)
	}

	// The mirror case: only right-input columns, shifted into b's frame.
	buildB := func(a, b *Mat) *Mat {
		return Cols(Cbind2(a, b), []int{3, 5, 4})
	}
	wantB := refValue(t, bd, func(m *Mat) *Mat { return Cols(m, []int{0, 2, 1}) })
	gotB, err := e.ToDense(buildB(a, b))
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "cbind dce right", gotB, wantB)
	if ms := e.LastMaterializeStats(); ms.RewriteDCE == 0 {
		t.Fatalf("cbind left input not eliminated: %+v", ms)
	}
}

// TestRewriteDCESetCols covers all three setcols eliminations: a selection
// touching only untouched base columns drops the overlay, a selection of only
// overwritten columns drops the base, and an identity overlay covering every
// column shadows the base entirely.
func TestRewriteDCESetCols(t *testing.T) {
	ad, bd := cseDense(700, 5, 16), cseDense(700, 2, 17)
	e := newCSEEngine(t, Config{})
	a, _ := e.FromDense(ad)
	b, _ := e.FromDense(bd)

	// set(a)[, {1,3}] <- b; select {0, 4}: base only.
	base := func(a, b *Mat) *Mat { return Cols(SetCols(a, b, []int{1, 3}), []int{4, 0}) }
	want := refValue(t, ad, func(m *Mat) *Mat { return Cols(m, []int{4, 0}) })
	got, err := e.ToDense(base(a, b))
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "setcols base-only", got, want)
	if ms := e.LastMaterializeStats(); ms.RewriteDCE == 0 {
		t.Fatalf("setcols overlay not eliminated: %+v", ms)
	}

	// Select {3, 1}: overwritten only — positions into b.
	over := func(a, b *Mat) *Mat { return Cols(SetCols(a, b, []int{1, 3}), []int{3, 1}) }
	wantO := refValue(t, bd, func(m *Mat) *Mat { return Cols(m, []int{1, 0}) })
	gotO, err := e.ToDense(over(a, b))
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "setcols overlay-only", gotO, wantO)
	if ms := e.LastMaterializeStats(); ms.RewriteDCE == 0 {
		t.Fatalf("setcols base not eliminated: %+v", ms)
	}

	// Full shadow: every column overwritten in order — the result is the
	// overlay exactly and the base is never observed.
	bd5 := cseDense(700, 5, 18)
	b5, _ := e.FromDense(bd5)
	shadow := Sapply(SetCols(a, b5, []int{0, 1, 2, 3, 4}), UnaryAbs)
	wantS := refValue(t, bd5, func(m *Mat) *Mat { return Sapply(m, UnaryAbs) })
	gotS, err := e.ToDense(shadow)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "setcols full shadow", gotS, wantS)
	if ms := e.LastMaterializeStats(); ms.RewriteDCE == 0 {
		t.Fatalf("full-shadow base not eliminated: %+v", ms)
	}
}

// TestRewriteCrossProdSelf: t(A)%*%B with structurally identical but distinct
// inputs is rewritten to the symmetric self form (Syrk kernel) and must stay
// bit-identical to the general GemmTA path.
func TestRewriteCrossProdSelf(t *testing.T) {
	ad := cseDense(1100, 4, 19)
	mk := func(a *Mat) *Mat { return MapplyScalar(a, 3, BinMul, false) }

	ref := newCSEEngine(t, Config{DisableRewrites: true})
	ra, _ := ref.FromDense(ad)
	rs := CrossProd(mk(ra), mk(ra), nil, nil)
	if err := ref.Materialize(nil, []*Sink{rs}); err != nil {
		t.Fatal(err)
	}

	e := newCSEEngine(t, Config{})
	a, _ := e.FromDense(ad)
	s := CrossProd(mk(a), mk(a), nil, nil)
	if err := e.Materialize(nil, []*Sink{s}); err != nil {
		t.Fatal(err)
	}
	if ms := e.LastMaterializeStats(); ms.RewriteCrossProds != 1 {
		t.Fatalf("crossprod self form applied %d times, want 1: %+v", ms.RewriteCrossProds, ms)
	}
	bitsEqual(t, "crossprod syrk vs gemm", s.Result(), rs.Result())

	// Mismatched inputs must NOT be rewritten.
	s2 := CrossProd(mk(a), MapplyScalar(a, 4, BinMul, false), nil, nil)
	if err := e.Materialize(nil, []*Sink{s2}); err != nil {
		t.Fatal(err)
	}
	if ms := e.LastMaterializeStats(); ms.RewriteCrossProds != 0 {
		t.Fatalf("distinct crossprod inputs wrongly unified: %+v", ms)
	}
}

// TestRewriteAggFold: sum sinks over scalar-broadcast chains fold the linear
// layers into the sink's affine publish transform. Integer data keeps the
// folded and unfolded reductions exact, so the check is equality.
func TestRewriteAggFold(t *testing.T) {
	ad := intDense(900, 3, 20)
	sumRef := func(build func(*Mat) *Mat) float64 {
		ref := newCSEEngine(t, Config{DisableRewrites: true})
		ra, _ := ref.FromDense(ad)
		s := Agg(build(ra), AggSum)
		if err := ref.Materialize(nil, []*Sink{s}); err != nil {
			t.Fatal(err)
		}
		return s.Result().Data[0]
	}

	cases := []struct {
		name  string
		folds int64
		build func(a *Mat) *Mat
	}{
		{"scalar add", 1, func(a *Mat) *Mat { return MapplyScalar(a, 2, BinAdd, false) }},
		{"scalar mul chain", 2, func(a *Mat) *Mat {
			return MapplyScalar(MapplyScalar(a, 3, BinMul, false), 5, BinAdd, false)
		}},
		{"scalar-left sub", 1, func(a *Mat) *Mat { return MapplyScalar(a, 7, BinSub, true) }},
		{"neg", 1, func(a *Mat) *Mat { return Sapply(a, UnaryNeg) }},
		{"const matrix add", 1, func(a *Mat) *Mat { return Mapply(a, NewConst(900, 3, 4), BinAdd) }},
		{"self add", 1, func(a *Mat) *Mat { return Mapply(a, Sapply(Sapply(a, UnaryNeg), UnaryNeg), BinMul) }},
		{"row vec add", 1, func(a *Mat) *Mat { return MapplyRowVec(a, []float64{1, 2, 3}, BinAdd, false) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := sumRef(tc.build)
			e := newCSEEngine(t, Config{})
			a, _ := e.FromDense(ad)
			s := Agg(tc.build(a), AggSum)
			if err := e.Materialize(nil, []*Sink{s}); err != nil {
				t.Fatal(err)
			}
			// "self add" multiplies structurally identical operands — a shape
			// the folder must leave alone (it is not linear); everything else
			// folds at least tc.folds layers.
			ms := e.LastMaterializeStats()
			if tc.name == "self add" {
				// Mul of identical operands is X², not linear: no fold.
				if ms.RewriteAggFolds != 0 {
					t.Fatalf("squared operand wrongly folded: %+v", ms)
				}
			} else if ms.RewriteAggFolds < tc.folds {
				t.Fatalf("folded %d layers, want >= %d: %+v", ms.RewriteAggFolds, tc.folds, ms)
			}
			got := s.Result().Data[0]
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("folded sum = %v, reference = %v", got, want)
			}
		})
	}
}

// TestRewriteAggFoldSelfLinear: X + X and X - X with structurally identical
// operands fold to 2·sum(X) and exactly 0.
func TestRewriteAggFoldSelfLinear(t *testing.T) {
	ad := intDense(600, 2, 21)
	e := newCSEEngine(t, Config{})
	a, _ := e.FromDense(ad)
	mk := func() *Mat { return MapplyScalar(a, 2, BinMul, false) }

	plain := Agg(a, AggSum)
	double := Agg(Mapply(mk(), mk(), BinAdd), AggSum)
	zero := Agg(Mapply(mk(), mk(), BinSub), AggSum)
	if err := e.Materialize(nil, []*Sink{plain, double, zero}); err != nil {
		t.Fatal(err)
	}
	base := plain.Result().Data[0]
	if got := double.Result().Data[0]; got != 4*base {
		t.Fatalf("sum(2x + 2x) = %v, want %v", got, 4*base)
	}
	if got := zero.Result().Data[0]; got != 0 {
		t.Fatalf("sum(2x - 2x) = %v, want 0", got)
	}
	if ms := e.LastMaterializeStats(); ms.RewriteAggFolds < 2 {
		t.Fatalf("self-linear folds = %d, want >= 2: %+v", ms.RewriteAggFolds, ms)
	}
}

// TestRewriteAggFoldAggCol: per-column sums fold too, with perCell = nrow.
func TestRewriteAggFoldAggCol(t *testing.T) {
	ad := intDense(500, 4, 22)
	ref := newCSEEngine(t, Config{DisableRewrites: true})
	ra, _ := ref.FromDense(ad)
	rs := AggCol(MapplyScalar(MapplyScalar(ra, 2, BinMul, false), 3, BinAdd, false), AggSum)
	if err := ref.Materialize(nil, []*Sink{rs}); err != nil {
		t.Fatal(err)
	}

	e := newCSEEngine(t, Config{})
	a, _ := e.FromDense(ad)
	s := AggCol(MapplyScalar(MapplyScalar(a, 2, BinMul, false), 3, BinAdd, false), AggSum)
	if err := e.Materialize(nil, []*Sink{s}); err != nil {
		t.Fatal(err)
	}
	if ms := e.LastMaterializeStats(); ms.RewriteAggFolds < 2 {
		t.Fatalf("agg.col folds = %d, want >= 2: %+v", ms.RewriteAggFolds, ms)
	}
	bitsEqual(t, "agg.col fold", s.Result(), rs.Result())
}

// TestRewriteAggFoldCacheSharing is the payoff property: the folded sink's
// cache key excludes the affine coefficients, so sum(c·X) hits the cached
// sum(X) reduction for every new c — the reduction executes once across
// "iterations" with different scalars.
func TestRewriteAggFoldCacheSharing(t *testing.T) {
	ad := intDense(800, 3, 23)
	e := newCSEEngine(t, Config{})
	a, _ := e.FromDense(ad)

	s1 := Agg(MapplyScalar(Sapply(a, UnaryAbs), 2, BinMul, false), AggSum)
	if err := e.Materialize(nil, []*Sink{s1}); err != nil {
		t.Fatal(err)
	}
	if ms := e.LastMaterializeStats(); ms.CacheHits != 0 {
		t.Fatalf("cold pass had %d cache hits", ms.CacheHits)
	}

	s2 := Agg(MapplyScalar(Sapply(a, UnaryAbs), 5, BinMul, false), AggSum)
	if err := e.Materialize(nil, []*Sink{s2}); err != nil {
		t.Fatal(err)
	}
	ms := e.LastMaterializeStats()
	if ms.CacheHits == 0 {
		t.Fatalf("iteration-varying scalar defeated the fold cache: %+v", ms)
	}
	if got, want := s2.Result().Data[0], s1.Result().Data[0]/2*5; got != want {
		t.Fatalf("cached folded sum = %v, want %v", got, want)
	}
}

// TestRewriteAggFoldDupSinks: two sinks in one batch that fold to the same
// raw reduction with different coefficients must dedup to one execution and
// each publish through its own affine transform.
func TestRewriteAggFoldDupSinks(t *testing.T) {
	ad := intDense(700, 2, 24)
	e := newCSEEngine(t, Config{})
	a, _ := e.FromDense(ad)

	base := Agg(Sapply(a, UnaryAbs), AggSum)
	s2 := Agg(MapplyScalar(Sapply(a, UnaryAbs), 2, BinMul, false), AggSum)
	s7 := Agg(MapplyScalar(Sapply(a, UnaryAbs), 7, BinAdd, false), AggSum)
	if err := e.Materialize(nil, []*Sink{base, s2, s7}); err != nil {
		t.Fatal(err)
	}
	raw := base.Result().Data[0]
	if got := s2.Result().Data[0]; got != 2*raw {
		t.Fatalf("dup sink ×2 = %v, want %v", got, 2*raw)
	}
	if got, want := s7.Result().Data[0], raw+7*700*2; got != want {
		t.Fatalf("dup sink +7 = %v, want %v", got, want)
	}
}

// TestRewriteDisableFlags: each per-rule toggle silences exactly its own
// counter while the engine still produces correct results.
func TestRewriteDisableFlags(t *testing.T) {
	ad := intDense(600, 4, 25)
	bd := intDense(600, 2, 26)
	run := func(cfg Config) MaterializeStats {
		e := newCSEEngine(t, cfg)
		a, _ := e.FromDense(ad)
		b, _ := e.FromDense(bd)
		x := Cols(Cbind2(MapplyScalar(a, 2, BinMul, false), b), []int{1, 3})
		sum := Agg(MapplyScalar(x, 3, BinAdd, false), AggSum)
		mk := func() *Mat { return Sapply(a, UnaryAbs) }
		xp := CrossProd(mk(), mk(), nil, nil)
		if err := e.Materialize(nil, []*Sink{sum, xp}); err != nil {
			t.Fatal(err)
		}
		return e.LastMaterializeStats()
	}

	all := run(Config{})
	if all.RewriteViews == 0 || all.RewriteCrossProds == 0 || all.RewriteAggFolds == 0 || all.RewriteDCE == 0 {
		t.Fatalf("baseline pass missing rule applications: %+v", all)
	}
	if ms := run(Config{DisableRewrites: true}); ms.Rewrites != 0 {
		t.Fatalf("DisableRewrites left %d rewrites: %+v", ms.Rewrites, ms)
	}
	if ms := run(Config{DisableRewriteView: true}); ms.RewriteViews != 0 {
		t.Fatalf("DisableRewriteView left %d view rewrites", ms.RewriteViews)
	}
	if ms := run(Config{DisableRewriteCrossProd: true}); ms.RewriteCrossProds != 0 {
		t.Fatalf("DisableRewriteCrossProd left %d crossprod rewrites", ms.RewriteCrossProds)
	}
	if ms := run(Config{DisableRewriteAggFold: true}); ms.RewriteAggFolds != 0 {
		t.Fatalf("DisableRewriteAggFold left %d folds", ms.RewriteAggFolds)
	}
	if ms := run(Config{DisableRewriteDCE: true}); ms.RewriteDCE != 0 || ms.RewriteDeadNodes != 0 {
		t.Fatalf("DisableRewriteDCE left %d eliminations", ms.RewriteDCE)
	}
	// Hash-consing off means no signature context, hence no rewriting at all.
	if ms := run(Config{DisableCSE: true}); ms.Rewrites != 0 {
		t.Fatalf("DisableCSE left %d rewrites: %+v", ms.Rewrites, ms)
	}
}

// TestRewriteFixedPoints: materialized, mutated, and cache-flagged nodes are
// identity boundaries — the rewriter must not push views through them or
// fold them away.
func TestRewriteFixedPoints(t *testing.T) {
	ad := cseDense(800, 4, 27)

	// Materialized interior node: pushing Cols below it would discard the
	// store the first pass produced.
	e := newCSEEngine(t, Config{})
	a, _ := e.FromDense(ad)
	mid := Sapply(a, UnaryAbs)
	if err := e.Materialize([]*Mat{mid}, nil); err != nil {
		t.Fatal(err)
	}
	want := refValue(t, ad, func(m *Mat) *Mat { return Cols(Sapply(m, UnaryAbs), []int{2, 0}) })
	got, err := e.ToDense(Cols(mid, []int{2, 0}))
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, "cols over materialized", got, want)
	if ms := e.LastMaterializeStats(); ms.RewriteViews != 0 {
		t.Fatalf("rewriter pushed through a materialized node: %+v", ms)
	}

	// Cache-flagged node: the user asked for this exact node's store.
	e2 := newCSEEngine(t, Config{})
	a2, _ := e2.FromDense(ad)
	pinned := MapplyScalar(a2, 2, BinMul, false)
	pinned.SetCache(false)
	got2, err := e2.ToDense(Cols(pinned, []int{1}))
	if err != nil {
		t.Fatal(err)
	}
	want2 := refValue(t, ad, func(m *Mat) *Mat { return Cols(MapplyScalar(m, 2, BinMul, false), []int{1}) })
	bitsEqual(t, "cols over pinned", got2, want2)
	if ms := e2.LastMaterializeStats(); ms.RewriteViews != 0 {
		t.Fatalf("rewriter pushed through a cache-flagged node: %+v", ms)
	}
}

// TestRewriteCacheMutationRegression is the cache/rewrite interaction
// regression: materialize a rewrite-eligible DAG (so the cache holds entries
// under post-rewrite keys), mutate a live leaf via []<-, and re-materialize
// the same expression. The pass must recompute from the mutated data — a
// pre-mutation result served under either a pre- or post-rewrite signature
// would be stale.
func TestRewriteCacheMutationRegression(t *testing.T) {
	ad, bd := intDense(600, 3, 28), intDense(600, 2, 29)
	e := newCSEEngine(t, Config{})
	a, _ := e.FromDense(ad)
	b, _ := e.FromDense(bd)

	// Cols-over-Cbind DCE plus an agg fold: both rewrite families produce
	// post-rewrite cache keys that mention only leaf a.
	build := func() *Sink {
		x := Cols(Cbind2(a, b), []int{2, 0})
		return Agg(MapplyScalar(x, 2, BinMul, false), AggSum)
	}
	s1 := build()
	if err := e.Materialize(nil, []*Sink{s1}); err != nil {
		t.Fatal(err)
	}
	ms := e.LastMaterializeStats()
	if ms.RewriteDCE == 0 || ms.RewriteAggFolds == 0 {
		t.Fatalf("expression not rewritten as expected: %+v", ms)
	}
	if entries, _ := e.ResultCacheStats(); entries == 0 {
		t.Fatal("no cache entries after cold pass")
	}

	// Mutate the live leaf in a selected column (column 0 survives the DCE).
	if err := e.SetElement(a, 0, 0, 1e6); err != nil {
		t.Fatal(err)
	}
	s2 := build()
	if err := e.Materialize(nil, []*Sink{s2}); err != nil {
		t.Fatal(err)
	}
	if ms := e.LastMaterializeStats(); ms.CacheHits != 0 {
		t.Fatalf("post-mutation pass served %d stale cache hits", ms.CacheHits)
	}
	want := s1.Result().Data[0] + 2*(1e6-ad.At(0, 0))
	if got := s2.Result().Data[0]; got != want {
		t.Fatalf("post-mutation folded sum = %v, want %v", got, want)
	}
}

// TestRewriteSharedSubtreeStaysShared: a diamond — two consumers of one
// subtree, each selecting different columns — must not duplicate the shared
// node per selection beyond what the memo admits, and both results must be
// exact.
func TestRewriteSharedSubtreeStaysShared(t *testing.T) {
	ad := cseDense(900, 6, 30)
	e := newCSEEngine(t, Config{})
	a, _ := e.FromDense(ad)
	shared := MapplyScalar(Sapply(a, UnaryAbs), 2, BinMul, false)
	left := Cols(shared, []int{0, 1})
	right := Cols(shared, []int{0, 1})
	s1, s2 := Agg(left, AggSum), Agg(right, AggSum)
	if err := e.Materialize(nil, []*Sink{s1, s2}); err != nil {
		t.Fatal(err)
	}
	// Identical selections over the same node memoize to one rewritten
	// subtree, which then CSE-unifies: the whole pass executes one narrow
	// chain and the duplicate sink is served from its twin.
	if got1, got2 := s1.Result().Data[0], s2.Result().Data[0]; math.Float64bits(got1) != math.Float64bits(got2) {
		t.Fatalf("diamond results diverge: %v vs %v", got1, got2)
	}
	rd := refValue(t, ad, func(m *Mat) *Mat {
		return Cols(MapplyScalar(Sapply(m, UnaryAbs), 2, BinMul, false), []int{0, 1})
	})
	ref := newCSEEngine(t, Config{DisableCSE: true})
	rm, err := ref.FromDense(rd)
	if err != nil {
		t.Fatal(err)
	}
	rs := Agg(rm, AggSum)
	if err := ref.Materialize(nil, []*Sink{rs}); err != nil {
		t.Fatal(err)
	}
	if got, want := s1.Result().Data[0], rs.Result().Data[0]; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("diamond sum = %v, reference = %v", got, want)
	}
}
