package ml

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	flashr "repro"
	"repro/internal/dense"
	"repro/internal/linalg"
)

func memSession(t *testing.T) *flashr.Session {
	t.Helper()
	s, err := flashr.NewSession(flashr.Options{Workers: 4, PartRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func emSession(t *testing.T) *flashr.Session {
	t.Helper()
	s, err := flashr.NewSession(flashr.Options{
		Workers: 4, PartRows: 256, EM: true,
		SSDDirs: []string{filepath.Join(t.TempDir(), "d0"), filepath.Join(t.TempDir(), "d1")},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// gauss2 builds a labeled two-Gaussian dataset with well-separated means.
func gauss2(t *testing.T, s *flashr.Session, n int64, p int, seed int64) (x, y *flashr.FM) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	xd := dense.New(int(n), p)
	yd := dense.New(int(n), 1)
	for i := 0; i < int(n); i++ {
		c := rng.Intn(2)
		yd.Data[i] = float64(c)
		for j := 0; j < p; j++ {
			xd.Set(i, j, rng.NormFloat64()+float64(c)*3)
		}
	}
	x, err := s.FromDense(xd)
	if err != nil {
		t.Fatal(err)
	}
	y, err = s.FromDense(yd)
	if err != nil {
		t.Fatal(err)
	}
	return x, y
}

// TestCorrelationMatchesNaive compares against a direct Pearson computation.
func TestCorrelationMatchesNaive(t *testing.T) {
	for _, s := range []*flashr.Session{memSession(t), emSession(t)} {
		const n, p = 1500, 4
		rng := rand.New(rand.NewSource(2))
		xd := dense.New(n, p)
		for i := 0; i < n; i++ {
			base := rng.NormFloat64()
			for j := 0; j < p; j++ {
				xd.Set(i, j, base*float64(j)/3+rng.NormFloat64())
			}
		}
		x, _ := s.FromDense(xd)
		got, err := Correlation(x)
		if err != nil {
			t.Fatal(err)
		}
		// Naive reference.
		mean := make([]float64, p)
		for j := 0; j < p; j++ {
			for i := 0; i < n; i++ {
				mean[j] += xd.At(i, j)
			}
			mean[j] /= n
		}
		cov := dense.New(p, p)
		for i := 0; i < n; i++ {
			for a := 0; a < p; a++ {
				for b := 0; b < p; b++ {
					cov.Set(a, b, cov.At(a, b)+(xd.At(i, a)-mean[a])*(xd.At(i, b)-mean[b])/n)
				}
			}
		}
		for a := 0; a < p; a++ {
			for b := 0; b < p; b++ {
				want := cov.At(a, b) / math.Sqrt(cov.At(a, a)*cov.At(b, b))
				if math.Abs(got.At(a, b)-want) > 1e-8 {
					t.Fatalf("corr[%d,%d]=%g want %g", a, b, got.At(a, b), want)
				}
			}
		}
		if got.At(2, 2) != 1 {
			t.Fatal("diagonal not 1")
		}
	}
}

// TestPCARecoversDominantDirection embeds variance along a known direction.
func TestPCARecoversDominantDirection(t *testing.T) {
	s := memSession(t)
	const n, p = 3000, 5
	rng := rand.New(rand.NewSource(3))
	dir := []float64{1, 2, -1, 0.5, 3}
	var norm float64
	for _, v := range dir {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	for j := range dir {
		dir[j] /= norm
	}
	xd := dense.New(n, p)
	for i := 0; i < n; i++ {
		t0 := rng.NormFloat64() * 10
		for j := 0; j < p; j++ {
			xd.Set(i, j, t0*dir[j]+rng.NormFloat64()*0.5)
		}
	}
	x, _ := s.FromDense(xd)
	res, err := PCA(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values[0] < 10*res.Values[1] {
		t.Fatalf("dominant eigenvalue not dominant: %v", res.Values)
	}
	var cos float64
	for j := 0; j < p; j++ {
		cos += res.Rotation.At(j, 0) * dir[j]
	}
	if math.Abs(math.Abs(cos)-1) > 1e-2 {
		t.Fatalf("first PC misaligned: |cos|=%g", math.Abs(cos))
	}
	// Projected variance of PC1 ≈ eigenvalue 1.
	scores := res.Transform(s, x)
	pc1 := flashr.GetCol(scores, 0)
	v := flashr.Sum(flashr.Square(pc1)).MustFloat() / float64(n-1)
	if math.Abs(v-res.Values[0])/res.Values[0] > 1e-6 {
		t.Fatalf("score variance %g vs eigenvalue %g", v, res.Values[0])
	}
}

func TestNaiveBayesSeparatesClasses(t *testing.T) {
	for _, s := range []*flashr.Session{memSession(t), emSession(t)} {
		x, y := gauss2(t, s, 2000, 4, 5)
		m, err := NaiveBayes(s, x, y, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Means near 0 and 3.
		if math.Abs(m.Mean.At(0, 0)) > 0.3 || math.Abs(m.Mean.At(1, 0)-3) > 0.3 {
			t.Fatalf("class means off: %v", m.Mean.Data[:4])
		}
		acc, err := Accuracy(m.Predict(s, x), y)
		if err != nil {
			t.Fatal(err)
		}
		if acc < 0.95 {
			t.Fatalf("NB accuracy %g", acc)
		}
	}
}

func TestLogisticRegressionBothOptimizers(t *testing.T) {
	s := memSession(t)
	x0, y := gauss2(t, s, 2000, 4, 7)
	// Append an intercept column (the class means are 0 and 3, so the
	// separating hyperplane does not pass through the origin).
	x := flashr.Cbind(x0, s.Ones(x0.NRow(), 1))
	lb, err := LogisticRegressionLBFGS(s, x, y, LogisticOptions{MaxIter: 60})
	if err != nil {
		t.Fatal(err)
	}
	accL, err := Accuracy(lb.Predict(s, x), y)
	if err != nil {
		t.Fatal(err)
	}
	if accL < 0.95 {
		t.Fatalf("LBFGS accuracy %g (loss %g after %d iters)", accL, lb.LogLoss, lb.Iters)
	}
	gd, err := LogisticRegressionGD(s, x, y, LogisticOptions{MaxIter: 60})
	if err != nil {
		t.Fatal(err)
	}
	accG, err := Accuracy(gd.Predict(s, x), y)
	if err != nil {
		t.Fatal(err)
	}
	if accG < 0.90 {
		t.Fatalf("GD accuracy %g", accG)
	}
	if lb.LogLoss > 0.4 {
		t.Fatalf("LBFGS final loss %g", lb.LogLoss)
	}
}

// TestLogisticGradient checks the fused loss/gradient against central
// differences through the whole engine stack.
func TestLogisticGradient(t *testing.T) {
	s := memSession(t)
	x, y := gauss2(t, s, 600, 3, 11)
	w := []float64{0.2, -0.1, 0.05}
	f0, g, err := logisticLossGrad(s, x, y, w, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(f0) {
		t.Fatal("NaN loss")
	}
	const eps = 1e-5
	for j := range w {
		wp := append([]float64(nil), w...)
		wm := append([]float64(nil), w...)
		wp[j] += eps
		wm[j] -= eps
		fp, _, _ := logisticLossGrad(s, x, y, wp, 0.1)
		fm, _, _ := logisticLossGrad(s, x, y, wm, 0.1)
		num := (fp - fm) / (2 * eps)
		if math.Abs(num-g[j]) > 1e-5*math.Max(1, math.Abs(g[j])) {
			t.Fatalf("grad[%d]=%g numeric %g", j, g[j], num)
		}
	}
}

func TestKMeansRecoversClusters(t *testing.T) {
	for _, s := range []*flashr.Session{memSession(t), emSession(t)} {
		const n, p, k = 1800, 3, 3
		rng := rand.New(rand.NewSource(13))
		centers := [][]float64{{0, 0, 0}, {8, 8, 8}, {-8, 8, 0}}
		xd := dense.New(n, p)
		for i := 0; i < n; i++ {
			c := centers[i%k]
			for j := 0; j < p; j++ {
				xd.Set(i, j, c[j]+rng.NormFloat64())
			}
		}
		x, _ := s.FromDense(xd)
		res, err := KMeans(s, x, k, KMeansOptions{MaxIter: 50, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("k-means did not converge in %d iters", res.Iters)
		}
		// Every true center must be ≈ some found center.
		for _, c := range centers {
			best := math.Inf(1)
			for g := 0; g < k; g++ {
				var d float64
				for j := 0; j < p; j++ {
					dd := res.Centers.At(g, j) - c[j]
					d += dd * dd
				}
				best = math.Min(best, d)
			}
			if best > 0.5 {
				t.Fatalf("center %v missed (dist² %g); got %v", c, best, res.Centers.Data)
			}
		}
		// Moves must be non-increasing to 0.
		if res.Moves[len(res.Moves)-1] != 0 {
			t.Fatalf("last move count %d", res.Moves[len(res.Moves)-1])
		}
		res.Assign.Free()
	}
}

func TestGMMFitsMixture(t *testing.T) {
	s := memSession(t)
	const n, p, k = 1500, 2, 2
	rng := rand.New(rand.NewSource(17))
	xd := dense.New(n, p)
	for i := 0; i < n; i++ {
		if i%3 == 0 { // weight 1/3 vs 2/3
			xd.Set(i, 0, rng.NormFloat64()*0.8+6)
			xd.Set(i, 1, rng.NormFloat64()*0.8+6)
		} else {
			xd.Set(i, 0, rng.NormFloat64())
			xd.Set(i, 1, rng.NormFloat64())
		}
	}
	x, _ := s.FromDense(xd)
	m, err := GMM(s, x, k, GMMOptions{MaxIter: 60, Tol: 1e-4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// One component near (0,0), the other near (6,6); components may come
	// out in either order.
	cfgA := math.Max(
		math.Hypot(m.Means.At(0, 0), m.Means.At(0, 1)),
		math.Hypot(m.Means.At(1, 0)-6, m.Means.At(1, 1)-6))
	cfgB := math.Max(
		math.Hypot(m.Means.At(1, 0), m.Means.At(1, 1)),
		math.Hypot(m.Means.At(0, 0)-6, m.Means.At(0, 1)-6))
	if math.Min(cfgA, cfgB) > 0.5 {
		t.Fatalf("GMM means off: %v", m.Means.Data)
	}
	wmin := math.Min(m.Weights[0], m.Weights[1])
	if math.Abs(wmin-1.0/3) > 0.08 {
		t.Fatalf("GMM weights %v", m.Weights)
	}
	if m.LogLike > 0 || math.IsNaN(m.LogLike) {
		t.Fatalf("loglike %g", m.LogLike)
	}
}

// TestGMMLogLikeAscends verifies EM's monotonic likelihood (within numeric
// slack).
func TestGMMLogLikeAscends(t *testing.T) {
	s := memSession(t)
	x, _ := gauss2(t, s, 900, 3, 23)
	var lls []float64
	// Rerun with increasing iteration caps; loglike must not decrease.
	for _, it := range []int{1, 3, 8} {
		m, err := GMM(s, x, 2, GMMOptions{MaxIter: it, Tol: 1e-12, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		lls = append(lls, m.LogLike)
	}
	if lls[1] < lls[0]-1e-6 || lls[2] < lls[1]-1e-6 {
		t.Fatalf("loglike not ascending: %v", lls)
	}
}

func TestMvrnormMoments(t *testing.T) {
	for _, s := range []*flashr.Session{memSession(t), emSession(t)} {
		mu := []float64{1, -2, 3}
		sigma := dense.FromRows([][]float64{
			{2, 0.5, 0.2},
			{0.5, 1, -0.3},
			{0.2, -0.3, 1.5},
		})
		x, err := Mvrnorm(s, 60000, mu, sigma, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Correlation(x)
		if err != nil {
			t.Fatal(err)
		}
		means, err := flashr.ColMeans(x).AsVector()
		if err != nil {
			t.Fatal(err)
		}
		for j, m := range mu {
			if math.Abs(means[j]-m) > 0.05 {
				t.Fatalf("mean[%d]=%g want %g", j, means[j], m)
			}
		}
		// Check correlations implied by sigma.
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				want := sigma.At(a, b) / math.Sqrt(sigma.At(a, a)*sigma.At(b, b))
				if math.Abs(got.At(a, b)-want) > 0.05 {
					t.Fatalf("corr[%d,%d]=%g want %g", a, b, got.At(a, b), want)
				}
			}
		}
	}
}

func TestLDASeparatesClasses(t *testing.T) {
	s := memSession(t)
	x, y := gauss2(t, s, 2500, 4, 29)
	m, err := LDA(s, x, y, 2)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(m.Predict(s, x), y)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("LDA accuracy %g", acc)
	}
	// Pooled covariance ≈ identity (unit-variance classes).
	for i := 0; i < 4; i++ {
		if math.Abs(m.PooledW.At(i, i)-1) > 0.15 {
			t.Fatalf("pooled var[%d]=%g", i, m.PooledW.At(i, i))
		}
	}
}

func TestLDARejectsEmptyClass(t *testing.T) {
	s := memSession(t)
	x, _ := gauss2(t, s, 500, 3, 31)
	y := s.Zeros(500, 1) // only class 0 present
	if _, err := LDA(s, x, y, 2); err == nil {
		t.Fatal("LDA accepted an empty class")
	}
}

// TestAlgorithmsAgreeIMvsEM runs NB and k-means on identical data in both
// backends and compares outputs exactly.
func TestAlgorithmsAgreeIMvsEM(t *testing.T) {
	im := memSession(t)
	em := emSession(t)
	mkData := func(s *flashr.Session) (*flashr.FM, *flashr.FM) { return gauss2(t, s, 1200, 3, 37) }
	xi, yi := mkData(im)
	xe, ye := mkData(em)
	mi, err := NaiveBayes(im, xi, yi, 2)
	if err != nil {
		t.Fatal(err)
	}
	me, err := NaiveBayes(em, xe, ye, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Equalish(mi.Mean, me.Mean, 1e-12) || !dense.Equalish(mi.Var, me.Var, 1e-12) {
		t.Fatal("NB models differ between IM and EM")
	}
	ki, err := KMeans(im, xi, 2, KMeansOptions{MaxIter: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ke, err := KMeans(em, xe, 2, KMeansOptions{MaxIter: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Equalish(ki.Centers, ke.Centers, 1e-9) {
		t.Fatal("k-means centers differ between IM and EM")
	}
}

// refGMMIter is one EM iteration of ml.GMM as plain loops, from the given
// means, equal weights and the ridged global covariance: the Mahalanobis
// distance through the explicit precision matrix, the Gramians one row at a
// time.
func refGMMIter(x, init *dense.Dense) (ll float64, weights []float64, means *dense.Dense, covs []*dense.Dense) {
	n, p, k := x.R, x.C, init.R
	mu0, gram := make([]float64, p), dense.New(p, p)
	for i := 0; i < n; i++ {
		for a, va := range x.Row(i) {
			mu0[a] += va / float64(n)
			for b, vb := range x.Row(i) {
				gram.Data[a*p+b] += va * vb
			}
		}
	}
	global := dense.New(p, p)
	for a := 0; a < p; a++ {
		for b := 0; b < p; b++ {
			global.Set(a, b, gram.At(a, b)/float64(n)-mu0[a]*mu0[b])
		}
	}
	l, err := linalg.Cholesky(ridge(global))
	if err != nil {
		panic(err)
	}
	prec := linalg.SolveChol(l, dense.Identity(p))
	logConst := math.Log(1/float64(k)) - 0.5*(float64(p)*math.Log(2*math.Pi)+linalg.LogDetChol(l))
	resp := dense.New(n, k)
	dev := make([]float64, p)
	for i := 0; i < n; i++ {
		rowMax := math.Inf(-1)
		for c := 0; c < k; c++ {
			for j := range dev {
				dev[j] = x.At(i, j) - init.At(c, j)
			}
			var mahal float64
			for a := 0; a < p; a++ {
				for b := 0; b < p; b++ {
					mahal += dev[a] * prec.At(a, b) * dev[b]
				}
			}
			resp.Set(i, c, -0.5*mahal+logConst)
			rowMax = math.Max(rowMax, resp.At(i, c))
		}
		var sumExp float64
		for c := 0; c < k; c++ {
			resp.Set(i, c, math.Exp(resp.At(i, c)-rowMax))
			sumExp += resp.At(i, c)
		}
		for c := 0; c < k; c++ {
			resp.Set(i, c, resp.At(i, c)/sumExp)
		}
		ll += rowMax + math.Log(sumExp)
	}
	weights, means = make([]float64, k), dense.New(k, p)
	for c := 0; c < k; c++ {
		var w float64
		for i := 0; i < n; i++ {
			w += resp.At(i, c)
			for j := 0; j < p; j++ {
				means.Data[c*p+j] += resp.At(i, c) * x.At(i, j)
			}
		}
		w = math.Max(w, 1e-10)
		weights[c] = w / float64(n)
		for j := 0; j < p; j++ {
			means.Data[c*p+j] /= w
		}
		g := dense.New(p, p)
		for i := 0; i < n; i++ {
			for a := 0; a < p; a++ {
				for b := 0; b < p; b++ {
					g.Data[a*p+b] += resp.At(i, c) * x.At(i, a) * x.At(i, b)
				}
			}
		}
		cov := dense.New(p, p)
		for a := 0; a < p; a++ {
			for b := 0; b < p; b++ {
				cov.Set(a, b, g.At(a, b)/w-means.At(c, a)*means.At(c, b))
			}
		}
		covs = append(covs, ridge(cov))
	}
	return ll / float64(n), weights, means, covs
}

// closeRel reports whether got matches want within tol relative to want's
// largest magnitude.
func closeRel(got, want []float64, tol float64) bool {
	var scale float64
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range want {
		if !(math.Abs(got[i]-want[i]) <= tol*scale) {
			return false
		}
	}
	return len(got) == len(want)
}

// TestGMMOneIterationMatchesLoop: one EM iteration from given means agrees
// with the plain-loop reference within 1e-9 relative, on a width with
// fringe columns and on GMM's 32, in memory and on the array; every
// covariance is exactly symmetric; and the iteration runs three passes (the
// global covariance, the E-step, the M-step).
func TestGMMOneIterationMatchesLoop(t *testing.T) {
	for _, p := range []int{11, 32} {
		for name, s := range map[string]*flashr.Session{"im": memSession(t), "em": emSession(t)} {
			const n, k = 999, 3
			rng := rand.New(rand.NewSource(int64(p)))
			xd, init := dense.New(n, p), dense.New(k, p)
			for i := range xd.Data {
				xd.Data[i] = rng.NormFloat64() + float64(i/p%3)
			}
			for i := range init.Data {
				init.Data[i] = rng.NormFloat64() + float64(i/p)
			}
			x, err := s.FromDense(xd)
			if err != nil {
				t.Fatal(err)
			}
			before := s.TotalMaterializeStats().Passes
			m, err := GMM(s, x, k, GMMOptions{MaxIter: 1, InitMeans: init})
			if err != nil {
				t.Fatal(err)
			}
			if passes := s.TotalMaterializeStats().Passes - before; passes != 3 {
				t.Errorf("%s p=%d: one iteration ran %d passes, want 3", name, p, passes)
			}
			ll, weights, means, covs := refGMMIter(xd, init)
			if !closeRel([]float64{m.LogLike}, []float64{ll}, 1e-9) || !closeRel(m.Weights, weights, 1e-9) ||
				!closeRel(m.Means.Data, means.Data, 1e-9) {
				t.Fatalf("%s p=%d: loglike %v weights %v means %v, want %v %v %v", name, p, m.LogLike, m.Weights, m.Means.Data, ll, weights, means.Data)
			}
			for c, cov := range m.Covs {
				if !closeRel(cov.Data, covs[c].Data, 1e-9) {
					t.Fatalf("%s p=%d: cov %d = %v, want %v", name, p, c, cov.Data, covs[c].Data)
				}
				for a := 0; a < p; a++ {
					for b := a + 1; b < p; b++ {
						if math.Float64bits(cov.At(a, b)) != math.Float64bits(cov.At(b, a)) {
							t.Fatalf("%s p=%d: cov %d [%d,%d] = %v, [%d,%d] = %v", name, p, c, a, b, cov.At(a, b), b, a, cov.At(b, a))
						}
					}
				}
			}
		}
	}
}
