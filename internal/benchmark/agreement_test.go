package benchmark

import (
	"math"
	"testing"

	flashr "repro"
	"repro/internal/dense"
	"repro/internal/eager"
	"repro/internal/workload"
	"repro/ml"
)

// TestEnginesAgree verifies the central validity condition of the Fig. 7
// comparisons: the FlashR implementations and the eager baselines compute
// the same models from the same data and the same initialization — the
// measured differences are purely about execution strategy.
func TestEnginesAgree(t *testing.T) {
	s, err := flashr.NewSession(flashr.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	x, y, err := workload.Criteo(s, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := workload.PageGraph(s, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	xd, err := x.AsDense()
	if err != nil {
		t.Fatal(err)
	}
	yd, err := y.AsDense()
	if err != nil {
		t.Fatal(err)
	}
	pgd, err := pg.AsDense()
	if err != nil {
		t.Fatal(err)
	}
	for _, style := range []eager.Style{eager.StyleH2O, eager.StyleMLlib} {
		e := eager.New(style, 2)

		// Correlation matrices identical.
		cf, err := ml.Correlation(x)
		if err != nil {
			t.Fatal(err)
		}
		ce := e.Correlation(xd)
		if !dense.Equalish(cf, ce, 1e-9) {
			t.Fatalf("%v: correlation disagrees", style)
		}

		// PCA eigenvalues identical (eigenvectors may flip sign).
		vf, err := ml.PCA(x, 8)
		if err != nil {
			t.Fatal(err)
		}
		ve, _ := e.PCA(xd, 8)
		for i := range vf.Values {
			if math.Abs(vf.Values[i]-ve[i]) > 1e-7*math.Max(1, ve[i]) {
				t.Fatalf("%v: PCA eigenvalue %d: %g vs %g", style, i, vf.Values[i], ve[i])
			}
		}

		// Naive Bayes models identical.
		nbf, err := ml.NaiveBayes(s, x, y, 2)
		if err != nil {
			t.Fatal(err)
		}
		_, nbMean, nbVar := e.NaiveBayes(xd, yd, 2)
		if !dense.Equalish(nbf.Mean, nbMean, 1e-10) || !dense.Equalish(nbf.Var, nbVar, 1e-10) {
			t.Fatalf("%v: naive bayes disagrees", style)
		}

		// Logistic: same optimizer on the same objective → same weights.
		lf, err := ml.LogisticRegressionLBFGS(s, x, y, ml.LogisticOptions{MaxIter: 4, Tol: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		we, _ := e.Logistic(xd, yd, 4, 1e-12)
		for j := range lf.W {
			if math.Abs(lf.W[j]-we[j]) > 1e-8 {
				t.Fatalf("%v: logistic w[%d]: %g vs %g", style, j, lf.W[j], we[j])
			}
		}

		// K-means from identical centers → identical centers after the
		// same number of iterations.
		init := FixedInitCenters(workload.PageGraphCols, 10)
		kf, err := ml.KMeans(s, pg, 10, ml.KMeansOptions{MaxIter: 3, InitCenters: init})
		if err != nil {
			t.Fatal(err)
		}
		ke, _ := e.KMeans(pgd, init, 3)
		if !dense.Equalish(kf.Centers, ke, 1e-9) {
			t.Fatalf("%v: kmeans centers disagree", style)
		}
		kf.Assign.Free()

		// GMM means agree after the same EM iterations.
		ginit := FixedInitCenters(workload.PageGraphCols, 4)
		gf, err := ml.GMM(s, pg, 4, ml.GMMOptions{MaxIter: 2, Tol: 1e-12, InitMeans: ginit})
		if err != nil {
			t.Fatal(err)
		}
		_, gMeans, _, gll := e.GMM(pgd, ginit, 2, 1e-12)
		if !dense.Equalish(gf.Means, gMeans, 1e-6) {
			t.Fatalf("%v: GMM means disagree", style)
		}
		if math.Abs(gf.LogLike-gll) > 1e-6 {
			t.Fatalf("%v: GMM loglike %g vs %g", style, gf.LogLike, gll)
		}
	}
}
