package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dense"
)

// randSPD builds a random symmetric positive-definite matrix A = BᵀB + n*I.
func randSPD(rng *rand.Rand, n int) *dense.Dense {
	b := dense.New(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := dense.CrossProd(b, b)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

// TestEigSymReconstruction property-tests A == V diag(λ) Vᵀ and VᵀV == I.
func TestEigSymReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		a := randSPD(rng, n)
		vals, vecs, err := EigSym(a)
		if err != nil {
			return false
		}
		// Descending order.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-9 {
				return false
			}
		}
		d := dense.New(n, n)
		for i, v := range vals {
			d.Set(i, i, v)
		}
		recon := dense.MatMul(dense.MatMul(vecs, d), vecs.T())
		if !dense.Equalish(recon, a, 1e-7) {
			return false
		}
		return dense.Equalish(dense.CrossProd(vecs, vecs), dense.Identity(n), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEigSymRejectsAsymmetric(t *testing.T) {
	a := dense.FromRows([][]float64{{1, 2}, {3, 4}})
	if _, _, err := EigSym(a); err == nil {
		t.Fatal("asymmetric matrix accepted")
	}
}

func TestEigSymKnownValues(t *testing.T) {
	// Eigenvalues of [[2,1],[1,2]] are 3 and 1.
	a := dense.FromRows([][]float64{{2, 1}, {1, 2}})
	vals, _, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-10 || math.Abs(vals[1]-1) > 1e-10 {
		t.Fatalf("vals=%v", vals)
	}
}

// TestCholeskyReconstruction property-tests L Lᵀ == A.
func TestCholeskyReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(15)
		a := randSPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		// L must be lower-triangular.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					return false
				}
			}
		}
		return dense.Equalish(dense.MatMul(l, l.T()), a, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := dense.FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); !errors.Is(err, ErrNotPD) {
		t.Fatalf("err=%v, want ErrNotPD", err)
	}
}

// TestSolveChol property-tests A x == b.
func TestSolveChol(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := randSPD(rng, n)
		b := dense.New(n, 2)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		x := SolveChol(l, b)
		return dense.Equalish(dense.MatMul(a, x), b, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestInvLower property-tests L · InvLower(L) == I on Cholesky factors, and
// that the inverse is lower triangular with +0 above the diagonal.
func TestInvLower(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		l, err := Cholesky(randSPD(rng, n))
		if err != nil {
			return false
		}
		inv := InvLower(l)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if math.Float64bits(inv.At(i, j)) != 0 {
					return false
				}
			}
		}
		return dense.Equalish(dense.MatMul(l, inv), dense.Identity(n), 1e-9) &&
			dense.Equalish(dense.MatMul(inv, l), dense.Identity(n), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
	// A hand-checked case: [[2,0],[1,4]]⁻¹ = [[1/2,0],[−1/8,1/4]].
	got := InvLower(dense.FromRows([][]float64{{2, 0}, {1, 4}}))
	if want := dense.FromRows([][]float64{{0.5, 0}, {-0.125, 0.25}}); !dense.Equalish(got, want, 0) {
		t.Fatalf("InvLower = %v, want %v", got.Data, want.Data)
	}
}

func TestLogDetChol(t *testing.T) {
	// det([[4,0],[0,9]]) = 36.
	a := dense.FromRows([][]float64{{4, 0}, {0, 9}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := LogDetChol(l); math.Abs(got-math.Log(36)) > 1e-12 {
		t.Fatalf("logdet=%g want %g", got, math.Log(36))
	}
}

// TestSolve property-tests the pivoted LU path on general matrices.
func TestSolve(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := dense.New(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)) // keep well-conditioned
		}
		b := dense.New(n, 3)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		return dense.Equalish(dense.MatMul(a, x), b, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveSingular(t *testing.T) {
	a := dense.FromRows([][]float64{{1, 2}, {2, 4}})
	b := dense.New(2, 1)
	if _, err := Solve(a, b); err == nil {
		t.Fatal("singular system solved")
	}
}

// TestSolveNeedsPivoting exercises a matrix with a zero leading pivot.
func TestSolveNeedsPivoting(t *testing.T) {
	a := dense.FromRows([][]float64{{0, 1}, {1, 0}})
	b := dense.FromRows([][]float64{{3}, {5}})
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x.At(0, 0)-5) > 1e-12 || math.Abs(x.At(1, 0)-3) > 1e-12 {
		t.Fatalf("x=%v", x.Data)
	}
}

func TestSqrtSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randSPD(rng, 6)
	s, err := SqrtSPD(a)
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Equalish(dense.MatMul(s, s), a, 1e-7) {
		t.Fatal("sqrt(A)^2 != A")
	}
}
