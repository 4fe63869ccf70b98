package flashr

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dense"
)

// testSessions builds an in-memory and an external-memory session with small
// partitions so modest matrices still span many partitions.
func testSessions(t *testing.T) map[string]*Session {
	t.Helper()
	out := map[string]*Session{}
	im, err := NewSession(Options{Workers: 4, PartRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	out["im"] = im
	dirs := []string{
		filepath.Join(t.TempDir(), "d0"),
		filepath.Join(t.TempDir(), "d1"),
	}
	em, err := NewSession(Options{Workers: 4, PartRows: 256, EM: true, SSDDirs: dirs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { em.Close() })
	out["em"] = em
	return out
}

func TestArithmeticAndReductions(t *testing.T) {
	for name, s := range testSessions(t) {
		x, err := s.Runif(2000, 4, 0, 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		// sum((2x - x) - x) == 0 exactly.
		z := Sub(Sub(Mul(x, 2.0), x), x)
		if v := Sum(z).MustFloat(); v != 0 {
			t.Fatalf("%s: residual %g", name, v)
		}
		// mean in [0.45, 0.55] for U(0,1).
		if v := Mean(x).MustFloat(); v < 0.45 || v > 0.55 {
			t.Fatalf("%s: mean %g", name, v)
		}
		// colSums + rowSums agree with total.
		total := Sum(x).MustFloat()
		cs, err := ColSums(x).AsVector()
		if err != nil {
			t.Fatal(err)
		}
		var csum float64
		for _, v := range cs {
			csum += v
		}
		if math.Abs(csum-total) > 1e-8 {
			t.Fatalf("%s: colsums %g != %g", name, csum, total)
		}
		rtot := Sum(RowSums(x)).MustFloat()
		if math.Abs(rtot-total) > 1e-8 {
			t.Fatalf("%s: rowsums total %g != %g", name, rtot, total)
		}
		// min <= mean <= max; comparisons produce 0/1.
		mn, mx := Min(x).MustFloat(), Max(x).MustFloat()
		if !(mn <= total/float64(x.Length()) && total/float64(x.Length()) <= mx) {
			t.Fatalf("%s: min/mean/max ordering", name)
		}
		frac := Mean(Lt(x, 0.5)).MustFloat()
		if frac < 0.4 || frac > 0.6 {
			t.Fatalf("%s: P(x<0.5) = %g", name, frac)
		}
	}
}

func TestTransposeAndMatMul(t *testing.T) {
	for name, s := range testSessions(t) {
		xd := dense.New(600, 5)
		rng := rand.New(rand.NewSource(11))
		for i := range xd.Data {
			xd.Data[i] = rng.NormFloat64()
		}
		x, err := s.FromDense(xd)
		if err != nil {
			t.Fatal(err)
		}
		// Gramian via t(X) %*% X equals crossprod and the dense reference.
		g1, err := MatMul(x.T(), x).AsDense()
		if err != nil {
			t.Fatal(err)
		}
		g2, err := CrossProd(x).AsDense()
		if err != nil {
			t.Fatal(err)
		}
		want := dense.CrossProd(xd, xd)
		if !dense.Equalish(g1, want, 1e-9) || !dense.Equalish(g2, want, 1e-9) {
			t.Fatalf("%s: gramian mismatch", name)
		}
		// X %*% w with small w.
		w := s.SmallFromRows([][]float64{{1}, {2}, {-1}, {0.5}, {3}})
		xw, err := MatMul(x, w).AsDense()
		if err != nil {
			t.Fatal(err)
		}
		if !dense.Equalish(xw, dense.MatMul(xd, w.mustSmall()), 1e-9) {
			t.Fatalf("%s: X%%*%%w mismatch", name)
		}
		// Double transpose is identity.
		v := Sum(x.T().T()).MustFloat()
		if math.Abs(v-xd.Sum()) > 1e-8 {
			t.Fatalf("%s: t(t(x)) sum", name)
		}
		// t(x) shape.
		if r, c := x.T().Dim(); r != 5 || c != 600 {
			t.Fatalf("%s: t dims %dx%d", name, r, c)
		}
	}
}

// TestLogisticGradientExpression runs the Figure 2 gradient expression
// through the public API and compares against a dense reference.
func TestLogisticGradientExpression(t *testing.T) {
	for name, s := range testSessions(t) {
		const n, p = 1000, 6
		rng := rand.New(rand.NewSource(13))
		xd := dense.New(n, p)
		for i := range xd.Data {
			xd.Data[i] = rng.NormFloat64()
		}
		yd := dense.New(n, 1)
		for i := range yd.Data {
			yd.Data[i] = float64(rng.Intn(2))
		}
		x, _ := s.FromDense(xd)
		y, _ := s.FromDense(yd)
		w := s.SmallFromRows([][]float64{{0.1, -0.2, 0.3, 0, 0.5, -0.1}})
		// grad = t(X) %*% (1/(1+exp(-X %*% t(w))) - y) / n
		xb := MatMul(x, w.T())
		prob := Div(1.0, Add(Exp(Neg(xb)), 1.0))
		grad := Div(MatMul(x.T(), Sub(prob, y)), float64(n))
		gd, err := grad.AsDense()
		if err != nil {
			t.Fatal(err)
		}
		// Dense reference.
		want := dense.New(p, 1)
		for i := 0; i < n; i++ {
			var dot float64
			for j := 0; j < p; j++ {
				dot += xd.At(i, j) * w.mustSmall().At(0, j)
			}
			e := 1/(1+math.Exp(-dot)) - yd.At(i, 0)
			for j := 0; j < p; j++ {
				want.Data[j] += xd.At(i, j) * e / n
			}
		}
		if !dense.Equalish(gd, want, 1e-9) {
			t.Fatalf("%s: gradient mismatch", name)
		}
	}
}

// TestKMeansIterationExpression runs one Figure 3 k-means iteration through
// the GenOp API and checks against a dense reference.
func TestKMeansIterationExpression(t *testing.T) {
	for name, s := range testSessions(t) {
		const n, p, k = 900, 4, 3
		rng := rand.New(rand.NewSource(17))
		xd := dense.New(n, p)
		for i := range xd.Data {
			xd.Data[i] = rng.NormFloat64()
		}
		cd := dense.New(k, p)
		for i := range cd.Data {
			cd.Data[i] = rng.NormFloat64()
		}
		x, _ := s.FromDense(xd)
		c := s.Small(cd)
		// D = inner.prod(X, t(C), "euclidean", "+"); I = which.min per row.
		d := InnerProd(x, c.T(), "euclidean", "+")
		i := RowWhichMin(d).SetCache(false)
		cnt := GroupByRow(s.Ones(n, 1), i, k, "+")
		newC := Sweep(GroupByRow(x, i, k, "+"), 1, cnt, "/")
		got, err := newC.AsDense()
		if err != nil {
			t.Fatal(err)
		}
		// Dense reference.
		wantCnt := make([]float64, k)
		want := dense.New(k, p)
		for r := 0; r < n; r++ {
			best, bd := 0, math.Inf(1)
			for g := 0; g < k; g++ {
				var dist float64
				for j := 0; j < p; j++ {
					dd := xd.At(r, j) - cd.At(g, j)
					dist += dd * dd
				}
				if dist < bd {
					bd, best = dist, g
				}
			}
			wantCnt[best]++
			for j := 0; j < p; j++ {
				want.Data[best*p+j] += xd.At(r, j)
			}
		}
		for g := 0; g < k; g++ {
			for j := 0; j < p; j++ {
				want.Data[g*p+j] /= wantCnt[g]
			}
		}
		if !dense.Equalish(got, want, 1e-9) {
			t.Fatalf("%s: centers mismatch", name)
		}
		if !i.big.Materialized() {
			t.Fatalf("%s: set.cache did not persist assignments", name)
		}
	}
}

func TestSweepAndBroadcast(t *testing.T) {
	for name, s := range testSessions(t) {
		xd := dense.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}})
		x, _ := s.FromDense(xd)
		colMeans := s.SmallFromRows([][]float64{{4, 5}})
		centered, err := Sweep(x, 2, colMeans, "-").AsDense()
		if err != nil {
			t.Fatal(err)
		}
		if centered.At(0, 0) != -3 || centered.At(3, 1) != 3 {
			t.Fatalf("%s: sweep margin 2: %v", name, centered.Data)
		}
		rv, _ := s.FromVec([]float64{1, 2, 3, 4})
		scaled, err := Sweep(x, 1, rv, "/").AsDense()
		if err != nil {
			t.Fatal(err)
		}
		if scaled.At(1, 0) != 1.5 || scaled.At(3, 1) != 2 {
			t.Fatalf("%s: sweep margin 1: %v", name, scaled.Data)
		}
	}
}

func TestCumulativeAndTable(t *testing.T) {
	for name, s := range testSessions(t) {
		v, _ := s.FromVec([]float64{1, 2, 3, 4, 5})
		cs, err := Cumsum(v).AsVector()
		if err != nil {
			t.Fatal(err)
		}
		want := []float64{1, 3, 6, 10, 15}
		for i := range want {
			if cs[i] != want[i] {
				t.Fatalf("%s: cumsum %v", name, cs)
			}
		}
		labels, _ := s.FromVec([]float64{0, 1, 0, 1, 2, 0})
		keys, counts, err := TableOf(labels)
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 3 || counts[0] != 3 || counts[1] != 2 || counts[2] != 1 {
			t.Fatalf("%s: table %v %v", name, keys, counts)
		}
		u, err := Unique(labels)
		if err != nil || len(u) != 3 {
			t.Fatalf("%s: unique %v %v", name, u, err)
		}
	}
}

func TestIndexingConcat(t *testing.T) {
	for name, s := range testSessions(t) {
		xd := dense.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
		x, _ := s.FromDense(xd)
		sub, err := GetCols(x, []int{2, 0}).AsDense()
		if err != nil {
			t.Fatal(err)
		}
		if sub.At(0, 0) != 3 || sub.At(1, 1) != 4 {
			t.Fatalf("%s: getcols %v", name, sub.Data)
		}
		both, err := Cbind(x, GetCol(x, 1)).AsDense()
		if err != nil {
			t.Fatal(err)
		}
		if both.C != 4 || both.At(1, 3) != 5 {
			t.Fatalf("%s: cbind %v", name, both.Data)
		}
		stacked, err := Rbind(x, x).AsDense()
		if err != nil {
			t.Fatal(err)
		}
		if stacked.R != 4 || stacked.At(3, 2) != 6 {
			t.Fatalf("%s: rbind", name)
		}
		if v, err := x.Element(1, 2); err != nil || v != 6 {
			t.Fatalf("%s: element %g %v", name, v, err)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := NewMemSession()
	dir := t.TempDir()
	path := filepath.Join(dir, "m.csv")
	if err := os.WriteFile(path, []byte("1,2.5,3\n-4,5,6e-1\n7,8,9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	x, err := s.LoadCSV(path, ",")
	if err != nil {
		t.Fatal(err)
	}
	if r, c := x.Dim(); r != 3 || c != 3 {
		t.Fatalf("dims %dx%d", r, c)
	}
	if v, _ := x.Element(1, 2); v != 0.6 {
		t.Fatalf("parsed %g", v)
	}
	out := filepath.Join(dir, "o.csv")
	if err := SaveCSV(x, out, ","); err != nil {
		t.Fatal(err)
	}
	y, err := s.LoadCSV(out, ",")
	if err != nil {
		t.Fatal(err)
	}
	diff := Max(Abs(Sub(x, y))).MustFloat()
	if diff != 0 {
		t.Fatalf("round trip diff %g", diff)
	}
}

// TestBatchedSinkMaterialization asserts that multiple pending sinks flush
// in a single fused pass (DAG grown as large as possible, §3.4).
func TestBatchedSinkMaterialization(t *testing.T) {
	s := NewMemSession()
	x, err := s.Runif(4000, 3, 0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	before := s.eng.Stats().Passes.Load()
	a := Sum(x)
	b := ColSums(x)
	c := Max(x)
	// Forcing one sink materializes all three in one pass.
	_ = a.MustFloat()
	if got := s.eng.Stats().Passes.Load() - before; got != 1 {
		t.Fatalf("batched flush used %d passes, want 1", got)
	}
	if b.sink == nil && b.small == nil {
		t.Fatal("colSums lost")
	}
	if !b.IsVirtual() == false && false {
		t.Fatal("unreachable")
	}
	if v := c.MustFloat(); v <= 0 || v > 1 {
		t.Fatalf("max %g", v)
	}
	bv, err := b.AsVector()
	if err != nil || len(bv) != 3 {
		t.Fatalf("colsums %v %v", bv, err)
	}
	// No further passes were needed for b and c.
	if got := s.eng.Stats().Passes.Load() - before; got != 1 {
		t.Fatalf("forcing remaining sinks re-ran the DAG (%d passes)", got)
	}
}

func TestFuseLevelsAgree(t *testing.T) {
	var ref float64
	for i, fuse := range []core.FuseLevel{FuseCache, FuseMem, FuseNone} {
		s, err := NewSession(Options{Workers: 3, PartRows: 256, Fuse: fuse})
		if err != nil {
			t.Fatal(err)
		}
		x, err := s.Runif(3000, 5, -1, 1, 99)
		if err != nil {
			t.Fatal(err)
		}
		v := Sum(Sqrt(Abs(Mul(x, x)))).MustFloat()
		if i == 0 {
			ref = v
		} else if math.Abs(v-ref) > 1e-8 {
			t.Fatalf("fuse level %v result %g != %g", fuse, v, ref)
		}
	}
}

func TestConstMatrices(t *testing.T) {
	s := NewMemSession()
	ones := s.Ones(5000, 2)
	if v := Sum(ones).MustFloat(); v != 10000 {
		t.Fatalf("sum of ones %g", v)
	}
	seq, err := s.SeqVec(1000)
	if err != nil {
		t.Fatal(err)
	}
	if v := Sum(seq).MustFloat(); v != 999*1000/2 {
		t.Fatalf("sum of seq %g", v)
	}
}

// TestGenerateSeededPartialFill: a fill that writes only some rows' cells
// must see zeros in the rest, whatever the partitioning — a worker reuses one
// buffer across the partitions it fills.
func TestGenerateSeededPartialFill(t *testing.T) {
	fill := func(rng *rand.Rand, row []float64) {
		if rng.Float64() < 0.5 {
			row[0] = 1
		}
	}
	count := func(partRows int) float64 {
		s, err := NewSession(Options{Workers: 1, PartRows: partRows})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		x, err := s.GenerateSeeded(1024, 1, 5, fill)
		if err != nil {
			t.Fatal(err)
		}
		v, err := Sum(x).Float()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if one, four := count(1024), count(256); one != four {
		t.Fatalf("ones: %v in one partition, %v in four", one, four)
	}
}
