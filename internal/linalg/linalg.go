// Package linalg provides the dense factorizations FlashR's algorithm layer
// needs where the paper relies on LAPACK through R: a cyclic Jacobi
// eigensolver for symmetric matrices (PCA on the Gramian, MASS-style
// mvrnorm, LDA whitening), Cholesky factorization with triangular solves
// (GMM covariance inverses and log-determinants), and a pivoted LU solve for
// general square systems. Inputs here are small (p×p with p up to ~1000), so
// O(p³) dense algorithms with good constants are the right tool.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/dense"
)

// ErrNotPD is returned by Cholesky when the matrix is not positive definite.
var ErrNotPD = errors.New("linalg: matrix not positive definite")

// EigSym computes the eigendecomposition of a symmetric n×n matrix using the
// cyclic Jacobi method. It returns eigenvalues in descending order and the
// matching eigenvectors as columns of V (A = V diag(vals) Vᵀ).
func EigSym(a *dense.Dense) (vals []float64, vecs *dense.Dense, err error) {
	n := a.R
	if a.C != n {
		return nil, nil, fmt.Errorf("linalg: EigSym on %dx%d matrix", a.R, a.C)
	}
	// Verify symmetry up to round-off; Jacobi silently corrupts results on
	// asymmetric input.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := math.Abs(a.At(i, j) - a.At(j, i))
			scale := math.Abs(a.At(i, j)) + math.Abs(a.At(j, i)) + 1
			if d > 1e-8*scale {
				return nil, nil, fmt.Errorf("linalg: EigSym on asymmetric matrix (|a[%d,%d]-a[%d,%d]|=%g)", i, j, j, i, d)
			}
		}
	}
	w := a.Clone()
	v := dense.Identity(n)
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off < 1e-14*(1+frobNorm(w)) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				jacobiRotate(w, v, p, q)
			}
		}
	}
	vals = make([]float64, n)
	for i := range vals {
		vals[i] = w.At(i, i)
	}
	// Sort descending, permuting eigenvector columns to match.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return vals[idx[i]] > vals[idx[j]] })
	sortedVals := make([]float64, n)
	vecs = dense.New(n, n)
	for c, id := range idx {
		sortedVals[c] = vals[id]
		for r := 0; r < n; r++ {
			vecs.Set(r, c, v.At(r, id))
		}
	}
	return sortedVals, vecs, nil
}

func jacobiRotate(w, v *dense.Dense, p, q int) {
	apq := w.At(p, q)
	if apq == 0 {
		return
	}
	app, aqq := w.At(p, p), w.At(q, q)
	theta := (aqq - app) / (2 * apq)
	var t float64
	if theta >= 0 {
		t = 1 / (theta + math.Sqrt(1+theta*theta))
	} else {
		t = -1 / (-theta + math.Sqrt(1+theta*theta))
	}
	c := 1 / math.Sqrt(1+t*t)
	s := t * c
	n := w.R
	for k := 0; k < n; k++ {
		wkp, wkq := w.At(k, p), w.At(k, q)
		w.Set(k, p, c*wkp-s*wkq)
		w.Set(k, q, s*wkp+c*wkq)
	}
	for k := 0; k < n; k++ {
		wpk, wqk := w.At(p, k), w.At(q, k)
		w.Set(p, k, c*wpk-s*wqk)
		w.Set(q, k, s*wpk+c*wqk)
	}
	for k := 0; k < n; k++ {
		vkp, vkq := v.At(k, p), v.At(k, q)
		v.Set(k, p, c*vkp-s*vkq)
		v.Set(k, q, s*vkp+c*vkq)
	}
}

func offDiagNorm(w *dense.Dense) float64 {
	var s float64
	for i := 0; i < w.R; i++ {
		for j := 0; j < w.C; j++ {
			if i != j {
				s += w.At(i, j) * w.At(i, j)
			}
		}
	}
	return math.Sqrt(s)
}

func frobNorm(w *dense.Dense) float64 {
	var s float64
	for _, v := range w.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Cholesky factors a symmetric positive-definite matrix as A = L Lᵀ and
// returns lower-triangular L.
func Cholesky(a *dense.Dense) (*dense.Dense, error) {
	n := a.R
	if a.C != n {
		return nil, fmt.Errorf("linalg: Cholesky on %dx%d matrix", a.R, a.C)
	}
	l := dense.New(n, n)
	for j := 0; j < n; j++ {
		var d float64 = a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w (pivot %d = %g)", ErrNotPD, j, d)
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return l, nil
}

// SolveChol solves A x = b for each column of b given the Cholesky factor L
// of A, via forward then backward substitution.
func SolveChol(l *dense.Dense, b *dense.Dense) *dense.Dense {
	n := l.R
	x := b.Clone()
	// Forward: L y = b.
	for c := 0; c < x.C; c++ {
		for i := 0; i < n; i++ {
			s := x.At(i, c)
			for k := 0; k < i; k++ {
				s -= l.At(i, k) * x.At(k, c)
			}
			x.Set(i, c, s/l.At(i, i))
		}
		// Backward: Lᵀ x = y.
		for i := n - 1; i >= 0; i-- {
			s := x.At(i, c)
			for k := i + 1; k < n; k++ {
				s -= l.At(k, i) * x.At(k, c)
			}
			x.Set(i, c, s/l.At(i, i))
		}
	}
	return x
}

// InvLower returns the inverse of the lower-triangular L with a nonzero
// diagonal, by forward substitution on each column of the identity. The
// result is lower triangular with exact zeros above the diagonal, so its
// transpose is an upper-triangular operand whose zero tails blas skips.
func InvLower(l *dense.Dense) *dense.Dense {
	n := l.R
	x := dense.New(n, n)
	for c := 0; c < n; c++ {
		x.Set(c, c, 1/l.At(c, c))
		for i := c + 1; i < n; i++ {
			var s float64
			for k := c; k < i; k++ {
				s -= l.At(i, k) * x.At(k, c)
			}
			x.Set(i, c, s/l.At(i, i))
		}
	}
	return x
}

// LogDetChol returns log(det(A)) from the Cholesky factor L of A.
func LogDetChol(l *dense.Dense) float64 {
	var s float64
	for i := 0; i < l.R; i++ {
		s += math.Log(l.At(i, i))
	}
	return 2 * s
}

// Solve solves the general square system A x = b (b may have many columns)
// by LU decomposition with partial pivoting.
func Solve(a, b *dense.Dense) (*dense.Dense, error) {
	n := a.R
	if a.C != n {
		return nil, fmt.Errorf("linalg: Solve with %dx%d matrix", a.R, a.C)
	}
	if b.R != n {
		return nil, fmt.Errorf("linalg: Solve rhs has %d rows, want %d", b.R, n)
	}
	lu := a.Clone()
	x := b.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		p := col
		best := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu.At(r, col)); v > best {
				best, p = v, r
			}
		}
		if best == 0 {
			return nil, fmt.Errorf("linalg: singular matrix at column %d", col)
		}
		if p != col {
			swapRows(lu, p, col)
			swapRows(x, p, col)
			piv[p], piv[col] = piv[col], piv[p]
		}
		pivVal := lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) / pivVal
			if f == 0 {
				continue
			}
			lu.Set(r, col, f)
			for c := col + 1; c < n; c++ {
				lu.Set(r, c, lu.At(r, c)-f*lu.At(col, c))
			}
			for c := 0; c < x.C; c++ {
				x.Set(r, c, x.At(r, c)-f*x.At(col, c))
			}
		}
	}
	// Back substitution.
	for c := 0; c < x.C; c++ {
		for i := n - 1; i >= 0; i-- {
			s := x.At(i, c)
			for k := i + 1; k < n; k++ {
				s -= lu.At(i, k) * x.At(k, c)
			}
			x.Set(i, c, s/lu.At(i, i))
		}
	}
	return x, nil
}

func swapRows(d *dense.Dense, i, j int) {
	ri, rj := d.Row(i), d.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// SqrtSPD returns the symmetric square root A^(1/2) = V diag(sqrt(λ)) Vᵀ of
// a symmetric positive semi-definite matrix, clamping tiny negative
// eigenvalues from round-off to zero. MASS's mvrnorm uses exactly this
// construction.
func SqrtSPD(a *dense.Dense) (*dense.Dense, error) {
	vals, vecs, err := EigSym(a)
	if err != nil {
		return nil, err
	}
	n := a.R
	tol := 1e-9 * math.Max(1, math.Abs(vals[0]))
	d := dense.New(n, n)
	for i, v := range vals {
		if v < -tol {
			return nil, fmt.Errorf("linalg: SqrtSPD with negative eigenvalue %g", v)
		}
		if v < 0 {
			v = 0
		}
		d.Set(i, i, math.Sqrt(v))
	}
	return dense.MatMul(dense.MatMul(vecs, d), vecs.T()), nil
}
