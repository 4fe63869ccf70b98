package eager

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dense"
)

func randDense(rng *rand.Rand, r, c int) *dense.Dense {
	d := dense.New(r, c)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

// TestOpsAgreeAcrossStyles: all three styles must produce identical math —
// they differ only in execution strategy.
func TestOpsAgreeAcrossStyles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randDense(rng, 500, 6)
	b := randDense(rng, 500, 6)
	engines := []*Engine{New(StyleMLlib, 3), New(StyleH2O, 3), New(StyleROpen, 3)}
	var refSum float64
	var refCross *dense.Dense
	for i, e := range engines {
		m := e.Map(a, math.Abs)
		z := e.Zip(m, b, func(x, y float64) float64 { return x + y })
		sum := e.Sum(z)
		cross := e.CrossProd(a, b)
		if i == 0 {
			refSum, refCross = sum, cross
			continue
		}
		if math.Abs(sum-refSum) > 1e-9 {
			t.Fatalf("style %v sum %g != %g", e.Style, sum, refSum)
		}
		if !dense.Equalish(cross, refCross, 1e-9) {
			t.Fatalf("style %v crossprod differs", e.Style)
		}
	}
}

func TestReduceCountsAndSerialization(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randDense(rng, 400, 3)
	spark := New(StyleMLlib, 4)
	_ = spark.ColSums(a)
	if spark.Stats.ReduceOps.Load() != 1 {
		t.Fatalf("reduce ops %d", spark.Stats.ReduceOps.Load())
	}
	if spark.Stats.ShuffleBytes.Load() == 0 {
		t.Fatal("MLlib style recorded no shuffle bytes")
	}
	h2o := New(StyleH2O, 4)
	_ = h2o.ColSums(a)
	if h2o.Stats.ShuffleBytes.Load() != 0 {
		t.Fatal("H2O style should not serialize partials")
	}
}

func TestEagerMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randDense(rng, 300, 4)
	e := New(StyleH2O, 2)
	cs := e.ColSums(a)
	want := a.ColSums()
	for j := range cs {
		if math.Abs(cs[j]-want[j]) > 1e-9 {
			t.Fatalf("colsums[%d]", j)
		}
	}
	rs := e.RowSums(a)
	wantR := a.RowSums()
	for i := range wantR {
		if math.Abs(rs.Data[i]-wantR[i]) > 1e-9 {
			t.Fatalf("rowsums[%d]", i)
		}
	}
	d := e.EuclidDist(a, dense.FromRows([][]float64{{0, 0, 0, 0}}))
	for i := 0; i < a.R; i++ {
		var s float64
		for _, v := range a.Row(i) {
			s += v * v
		}
		if math.Abs(d.At(i, 0)-s) > 1e-9 {
			t.Fatalf("euclid[%d]", i)
		}
	}
	am := e.ArgMinRow(a)
	for i := 0; i < a.R; i++ {
		row := a.Row(i)
		bi, bv := 0, row[0]
		for j, v := range row {
			if v < bv {
				bv, bi = v, j
			}
		}
		if int(am.Data[i]) != bi {
			t.Fatalf("arg rows at %d", i)
		}
	}
}

func TestEagerKMeansConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := dense.New(600, 2)
	for i := 0; i < 600; i++ {
		off := float64(i%2) * 10
		x.Set(i, 0, rng.NormFloat64()+off)
		x.Set(i, 1, rng.NormFloat64()+off)
	}
	init := dense.FromRows([][]float64{{1, 1}, {9, 9}})
	e := New(StyleH2O, 2)
	centers, iters := e.KMeans(x, init, 50)
	if iters >= 50 {
		t.Fatal("did not converge")
	}
	if math.Abs(centers.At(0, 0)) > 0.5 || math.Abs(centers.At(1, 0)-10) > 0.5 {
		t.Fatalf("centers %v", centers.Data)
	}
}

func TestEagerLogisticLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 800
	x := dense.New(n, 3)
	y := dense.New(n, 1)
	for i := 0; i < n; i++ {
		c := float64(i % 2)
		y.Data[i] = c
		x.Set(i, 0, rng.NormFloat64()+(c*2-1)*2)
		x.Set(i, 1, rng.NormFloat64())
		x.Set(i, 2, 1)
	}
	e := New(StyleMLlib, 2)
	w, iters := e.Logistic(x, y, 50, 1e-9)
	if iters == 0 {
		t.Fatal("no iterations")
	}
	if w[0] < 0.5 {
		t.Fatalf("weight on informative feature %g", w[0])
	}
}

func TestEagerGMMAndNB(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n = 600
	x := dense.New(n, 2)
	y := dense.New(n, 1)
	for i := 0; i < n; i++ {
		c := i % 2
		y.Data[i] = float64(c)
		x.Set(i, 0, rng.NormFloat64()+float64(c)*6)
		x.Set(i, 1, rng.NormFloat64())
	}
	e := New(StyleH2O, 2)
	priors, mean, variance := e.NaiveBayes(x, y, 2)
	if math.Abs(priors[0]-0.5) > 0.05 {
		t.Fatalf("priors %v", priors)
	}
	if math.Abs(mean.At(1, 0)-6) > 0.3 || variance.At(0, 0) < 0.5 {
		t.Fatalf("NB params mean=%v var=%v", mean.Data, variance.Data)
	}
	weights, means, iters, ll := e.GMM(x, dense.FromRows([][]float64{{1, 0}, {5, 0}}), 30, 1e-6)
	if iters == 0 || math.IsNaN(ll) {
		t.Fatalf("GMM iters=%d ll=%g", iters, ll)
	}
	lo := math.Min(means.At(0, 0), means.At(1, 0))
	hi := math.Max(means.At(0, 0), means.At(1, 0))
	if math.Abs(lo) > 0.5 || math.Abs(hi-6) > 0.5 {
		t.Fatalf("GMM means %v (weights %v)", means.Data, weights)
	}
}

func TestEagerLDAAndMvrnorm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 500
	x := dense.New(n, 2)
	y := dense.New(n, 1)
	for i := 0; i < n; i++ {
		c := i % 2
		y.Data[i] = float64(c)
		x.Set(i, 0, rng.NormFloat64()+float64(c)*5)
		x.Set(i, 1, rng.NormFloat64())
	}
	e := New(StyleROpen, 1)
	w, bias := e.LDA(x, y, 2)
	if w.R != 2 || w.C != 2 || len(bias) != 2 {
		t.Fatal("LDA shapes")
	}
	// Discriminant for class 1 must dominate on a far-right point.
	s0 := 10*w.At(0, 0) + 0*w.At(1, 0) + bias[0]
	s1 := 10*w.At(0, 1) + 0*w.At(1, 1) + bias[1]
	if s1 <= s0 {
		t.Fatalf("LDA discriminants s0=%g s1=%g", s0, s1)
	}
	z := randDense(rng, 2000, 2)
	out := e.Mvrnorm(z, []float64{3, -3}, dense.Identity(2))
	cm := out.ColSums()
	if math.Abs(cm[0]/2000-3) > 0.2 || math.Abs(cm[1]/2000+3) > 0.2 {
		t.Fatalf("mvrnorm means %g %g", cm[0]/2000, cm[1]/2000)
	}
}

// TestSymmetricCrossProdAgrees: the ROpen dsyrk path must match the generic
// kernel on symmetric Gramians.
func TestSymmetricCrossProdAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randDense(rng, 300, 7)
	want := New(StyleH2O, 2).CrossProd(a, a)
	got := New(StyleROpen, 1).CrossProd(a, a)
	if !dense.Equalish(got, want, 1e-9) {
		t.Fatal("ROpen syrk crossprod differs")
	}
	// Symmetry of the result.
	for i := 0; i < 7; i++ {
		for j := 0; j < i; j++ {
			if got.At(i, j) != got.At(j, i) {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
}
