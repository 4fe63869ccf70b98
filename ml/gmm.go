package ml

import (
	"fmt"
	"math"

	flashr "repro"
	"repro/internal/dense"
	"repro/internal/linalg"
)

// GMMModel is a Gaussian mixture with full per-component covariances,
// fitted by expectation-maximization (§4.1; computation O(n·p²·k), I/O
// O(n·p + n·k) per iteration — the heaviest algorithm in Table 4).
type GMMModel struct {
	K       int
	Weights []float64      // mixing proportions π
	Means   *dense.Dense   // k×p
	Covs    []*dense.Dense // k of p×p
	LogLike float64        // mean log-likelihood at convergence
	Iters   int
}

// GMMOptions controls EM.
type GMMOptions struct {
	MaxIter int     // default 100
	Tol     float64 // mean log-likelihood delta; the paper converges at 1e-2
	Seed    int64
	// InitMeans, when non-nil, skips the k-means warm start (benchmarks
	// hand every engine identical initial components).
	InitMeans *dense.Dense
}

// GMM fits the mixture to tall data x. The initial global covariance takes
// one pass (the Gramian and the column means share it), and each EM
// iteration two: one for the E-step responsibilities + log-likelihood + soft
// counts + weighted feature sums, and one for the k weighted Gramians of the
// M-step, each crossprod(sqrt(r_c) * x), a symmetric (Syrk) sink, all k in
// one DAG.
func GMM(s *flashr.Session, x *flashr.FM, k int, opts GMMOptions) (*GMMModel, error) {
	if k < 1 {
		return nil, fmt.Errorf("ml: GMM with k=%d", k)
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 100
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-2
	}
	n := x.NRow()
	p := int(x.NCol())

	// Initialize from a short k-means run, unless means are supplied.
	var initMeans *dense.Dense
	if opts.InitMeans != nil {
		initMeans = opts.InitMeans.Clone()
	} else {
		km, err := KMeans(s, x, k, KMeansOptions{MaxIter: 5, Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		km.Assign.Free()
		initMeans = km.Centers.Clone()
	}
	m := &GMMModel{K: k, Weights: make([]float64, k), Means: initMeans}
	m.Covs = make([]*dense.Dense, k)
	// Global covariance as the initial per-component covariance; both sinks
	// are pending before either is forced, so they share one pass.
	gramFM := flashr.CrossProd(x)
	mu0, err := flashr.ColMeans(x).AsVector()
	if err != nil {
		return nil, err
	}
	gram, err := gramFM.AsDense()
	if err != nil {
		return nil, err
	}
	globalCov := dense.New(p, p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			globalCov.Set(i, j, gram.At(i, j)/float64(n)-mu0[i]*mu0[j])
		}
	}
	for c := 0; c < k; c++ {
		m.Weights[c] = 1 / float64(k)
		m.Covs[c] = ridge(globalCov.Clone())
	}

	prevLL := math.Inf(-1)
	for iter := 0; iter < opts.MaxIter; iter++ {
		// ---- E-step (one fused pass) ----
		logDens := m.logDensities(s, x) // n×k lazy
		rowMax := flashr.AggRow(logDens, "max")
		shifted := flashr.Exp(flashr.Sweep(logDens, 1, rowMax, "-"))
		sumExp := flashr.RowSums(shifted)
		// log-sum-exp per row = rowMax + log(sumExp); resp = shifted/sumExp.
		resp := flashr.Sweep(shifted, 1, sumExp, "/").SetCache(false)
		llSink := flashr.Sum(flashr.Add(rowMax, flashr.Log(sumExp)))
		nc := flashr.ColSums(resp)          // 1×k soft counts
		wsums := flashr.CrossProd2(resp, x) // k×p weighted feature sums
		ll, err := llSink.Float()           // forces the whole E-step DAG
		if err != nil {
			return nil, err
		}
		ll /= float64(n)
		ncd, err := nc.AsVector()
		if err != nil {
			return nil, err
		}
		wsd, err := wsums.AsDense()
		if err != nil {
			return nil, err
		}
		// ---- M-step ----
		for c := 0; c < k; c++ {
			w := math.Max(ncd[c], 1e-10)
			m.Weights[c] = w / float64(n)
			for j := 0; j < p; j++ {
				m.Means.Set(c, j, wsd.At(c, j)/w)
			}
		}
		// Weighted Gramians t(x) diag(r_c) x = crossprod(sqrt(r_c) * x): k
		// Syrk sinks in one pass, so each covariance is exactly symmetric.
		grams := make([]*flashr.FM, k)
		for c := 0; c < k; c++ {
			xw := flashr.Sweep(x, 1, flashr.Sqrt(flashr.GetCol(resp, c)), "*")
			grams[c] = flashr.CrossProd(xw)
		}
		for c := 0; c < k; c++ {
			gd, err := grams[c].AsDense()
			if err != nil {
				return nil, err
			}
			w := math.Max(ncd[c], 1e-10)
			cov := dense.New(p, p)
			for i := 0; i < p; i++ {
				for j := 0; j < p; j++ {
					cov.Set(i, j, gd.At(i, j)/w-m.Means.At(c, i)*m.Means.At(c, j))
				}
			}
			m.Covs[c] = ridge(cov)
		}
		resp.Free()
		m.Iters = iter + 1
		m.LogLike = ll
		if ll-prevLL >= 0 && ll-prevLL < opts.Tol && iter > 0 {
			break
		}
		prevLL = ll
	}
	return m, nil
}

// logDensities builds the lazy n×k matrix of log(π_c · N(x; μ_c, Σ_c)).
// Per component, with Σ = LLᵀ and M = L⁻ᵀ (upper triangular), the
// Mahalanobis distance is the whitened ‖xM − μᵀM‖², as scikit-learn
// computes it: one product with M, whose zero lower triangle the BLAS path
// skips, a row sweep, a square and a row sum. It subtracts before it
// squares, so no large squared terms cancel when x is near μ.
func (m *GMMModel) logDensities(s *flashr.Session, x *flashr.FM) *flashr.FM {
	p := m.Means.C
	var cols *flashr.FM
	for c := 0; c < m.K; c++ {
		l, err := linalg.Cholesky(m.Covs[c])
		if err != nil {
			// Degenerate component; re-ridge and retry once.
			m.Covs[c] = ridge(m.Covs[c])
			l, err = linalg.Cholesky(m.Covs[c])
			if err != nil {
				panic(fmt.Sprintf("ml: GMM covariance not PD: %v", err))
			}
		}
		w := linalg.InvLower(l).T()                                   // M = L⁻ᵀ
		muW := dense.MatMul(dense.FromSlice(1, p, m.Means.Row(c)), w) // μᵀM
		z := flashr.Sweep(flashr.MatMul(x, s.Small(w)), 2, s.Small(muW), "-")
		mahal := flashr.RowSums(flashr.Square(z))
		logDet := linalg.LogDetChol(l)
		logConst := math.Log(m.Weights[c]) - 0.5*(float64(p)*math.Log(2*math.Pi)+logDet)
		ll := flashr.Add(flashr.Mul(mahal, -0.5), logConst)
		if cols == nil {
			cols = ll
		} else {
			cols = flashr.Cbind(cols, ll)
		}
	}
	return cols
}

// Predict returns the most probable component per row.
func (m *GMMModel) Predict(s *flashr.Session, x *flashr.FM) *flashr.FM {
	return flashr.RowWhichMax(m.logDensities(s, x))
}

// ridge adds a small diagonal loading to keep a covariance positive
// definite.
func ridge(c *dense.Dense) *dense.Dense {
	var tr float64
	for i := 0; i < c.R; i++ {
		tr += c.At(i, i)
	}
	eps := 1e-6*tr/float64(c.R) + 1e-9
	for i := 0; i < c.R; i++ {
		c.Set(i, i, c.At(i, i)+eps)
	}
	return c
}
