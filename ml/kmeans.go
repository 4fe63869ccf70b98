package ml

import (
	"fmt"
	"math/rand"

	flashr "repro"
	"repro/internal/dense"
)

// KMeansResult reports the clustering found by KMeans.
type KMeansResult struct {
	Centers   *dense.Dense // k×p
	Assign    *flashr.FM   // n×1 tall matrix of 0-based cluster ids
	Sizes     []float64
	Iters     int
	Moves     []int64 // points that changed cluster, per iteration
	Objective float64 // final within-cluster sum of squares
	Converged bool
}

// KMeansOptions controls the clustering.
type KMeansOptions struct {
	MaxIter int   // default 100
	Seed    int64 // center initialization seed
	// InitCenters, when non-nil, overrides the sampled initialization
	// (benchmarks pass the same k×p matrix to every engine under test).
	InitCenters *dense.Dense
}

// KMeans is Lloyd's algorithm written exactly as the paper's Figure 3: the
// Euclidean generalized inner product computes point-center distances,
// agg.row("which.min") assigns points, groupby.row recomputes centers, and
// the assignment vector is set.cache'd for the convergence test against the
// previous iteration. Computation O(n·p·k), I/O O(n·p) per iteration
// (Table 4); it converges when no data points move.
func KMeans(s *flashr.Session, x *flashr.FM, k int, opts KMeansOptions) (*KMeansResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("ml: k-means with k=%d", k)
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 100
	}
	n := x.NRow()
	p := int(x.NCol())
	// Initialize centers from a sample of rows (deterministic per seed),
	// unless the caller supplies them.
	var centers *dense.Dense
	if opts.InitCenters != nil {
		centers = opts.InitCenters.Clone()
	} else {
		head, err := flashr.Head(x, min(int(n), 4096))
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(opts.Seed*7919 + 1))
		centers = dense.New(k, p)
		perm := rng.Perm(head.R)
		for c := 0; c < k; c++ {
			copy(centers.Row(c), head.Row(perm[c%len(perm)]))
		}
	}
	res := &KMeansResult{}
	var assign *flashr.FM
	for iter := 0; iter < opts.MaxIter; iter++ {
		c := s.Small(centers)
		// D = inner.prod(X, t(C), "euclidean", "+")
		d := flashr.InnerProd(x, c.T(), "euclidean", "+")
		// I = agg.row(D, "which.min"), cached for the next iteration.
		newAssign := flashr.RowWhichMin(d).SetCache(false)
		cnt := flashr.GroupByRow(s.Ones(n, 1), newAssign, k, "+")
		sums := flashr.GroupByRow(x, newAssign, k, "+")
		var moves int64 = -1
		if assign != nil {
			mv := flashr.Sum(flashr.Ne(assign, newAssign))
			mvf, err := mv.Float() // forces cnt+sums+moves in one pass
			if err != nil {
				return nil, err
			}
			moves = int64(mvf)
		}
		cd, err := cnt.AsDense()
		if err != nil {
			return nil, err
		}
		sd, err := sums.AsDense()
		if err != nil {
			return nil, err
		}
		// New centers; empty clusters keep their previous center.
		for g := 0; g < k; g++ {
			if cd.Data[g] == 0 {
				continue
			}
			for j := 0; j < p; j++ {
				centers.Set(g, j, sd.At(g, j)/cd.Data[g])
			}
		}
		if assign != nil {
			assign.Free()
		}
		assign = newAssign
		res.Iters = iter + 1
		res.Sizes = cd.Data
		if moves >= 0 {
			res.Moves = append(res.Moves, moves)
			if moves == 0 {
				res.Converged = true
				break
			}
		}
	}
	res.Centers = centers
	res.Assign = assign
	// Final objective: total squared distance to the assigned center.
	d := flashr.InnerProd(x, s.Small(centers).T(), "euclidean", "+")
	obj, err := flashr.Sum(flashr.AggRow(d, "min")).Float()
	if err != nil {
		return nil, err
	}
	res.Objective = obj
	return res, nil
}
