package linalg

import (
	"fmt"
	"math"

	"repro/internal/dense"
)

// QR computes the thin QR decomposition of an m×n matrix (m ≥ n) by
// Householder reflections: A = Q R with Q m×n orthonormal columns and R n×n
// upper triangular. The algorithm layer uses it for numerically-stable
// least squares (linear regression on ill-conditioned designs).
func QR(a *dense.Dense) (q, r *dense.Dense, err error) {
	m, n := a.R, a.C
	if m < n {
		return nil, nil, fmt.Errorf("linalg: QR needs m >= n, got %dx%d", m, n)
	}
	// Work on a copy; accumulate the Householder vectors in-place.
	w := a.Clone()
	vs := make([][]float64, n)
	for k := 0; k < n; k++ {
		// Householder vector for column k below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			norm += w.At(i, k) * w.At(i, k)
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return nil, nil, fmt.Errorf("linalg: rank-deficient matrix at column %d", k)
		}
		alpha := -math.Copysign(norm, w.At(k, k))
		v := make([]float64, m-k)
		v[0] = w.At(k, k) - alpha
		for i := k + 1; i < m; i++ {
			v[i-k] = w.At(i, k)
		}
		var vnorm float64
		for _, x := range v {
			vnorm += x * x
		}
		if vnorm == 0 {
			vs[k] = v
			w.Set(k, k, alpha)
			continue
		}
		// Apply the reflector to the remaining columns.
		for j := k; j < n; j++ {
			var dot float64
			for i := k; i < m; i++ {
				dot += v[i-k] * w.At(i, j)
			}
			f := 2 * dot / vnorm
			for i := k; i < m; i++ {
				w.Set(i, j, w.At(i, j)-f*v[i-k])
			}
		}
		vs[k] = v
	}
	// R is the upper triangle of w.
	r = dense.New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			r.Set(i, j, w.At(i, j))
		}
	}
	// Q = H_0 H_1 … H_{n-1} applied to the first n columns of I.
	q = dense.New(m, n)
	for j := 0; j < n; j++ {
		q.Set(j, j, 1)
	}
	for k := n - 1; k >= 0; k-- {
		v := vs[k]
		var vnorm float64
		for _, x := range v {
			vnorm += x * x
		}
		if vnorm == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			var dot float64
			for i := k; i < m; i++ {
				dot += v[i-k] * q.At(i, j)
			}
			f := 2 * dot / vnorm
			for i := k; i < m; i++ {
				q.Set(i, j, q.At(i, j)-f*v[i-k])
			}
		}
	}
	return q, r, nil
}

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
