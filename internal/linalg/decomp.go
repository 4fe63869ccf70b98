package linalg

import (
	"fmt"
	"math"

	"repro/internal/dense"
)

// SVDThin computes the thin singular value decomposition of an m×n matrix
// with m ≥ n: A = U diag(s) Vᵀ, via the eigendecomposition of AᵀA (the same
// Gramian route the paper's PCA takes). Singular values come back in
// descending order; tiny trailing values are clamped to zero.
func SVDThin(a *dense.Dense) (u *dense.Dense, s []float64, v *dense.Dense, err error) {
	m, n := a.R, a.C
	if m < n {
		return nil, nil, nil, fmt.Errorf("linalg: SVDThin needs m >= n, got %dx%d", m, n)
	}
	gram := dense.CrossProd(a, a)
	vals, vecs, err := EigSym(gram)
	if err != nil {
		return nil, nil, nil, err
	}
	s = make([]float64, n)
	tol := 1e-12 * math.Max(1, math.Abs(vals[0]))
	for i, ev := range vals {
		if ev < tol {
			s[i] = 0
		} else {
			s[i] = math.Sqrt(ev)
		}
	}
	v = vecs
	// U = A V diag(1/s) for the nonzero singular values.
	av := dense.MatMul(a, v)
	u = dense.New(m, n)
	for j := 0; j < n; j++ {
		if s[j] == 0 {
			continue
		}
		inv := 1 / s[j]
		for i := 0; i < m; i++ {
			u.Set(i, j, av.At(i, j)*inv)
		}
	}
	return u, s, v, nil
}
