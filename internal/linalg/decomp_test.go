package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dense"
)

func randTall(rng *rand.Rand, m, n int) *dense.Dense {
	d := dense.New(m, n)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

// TestSVDThinReconstruction property-tests U S Vᵀ == A and orthonormality.
func TestSVDThinReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		m := n + rng.Intn(15)
		a := randTall(rng, m, n)
		u, s, v, err := SVDThin(a)
		if err != nil {
			return false
		}
		// Descending singular values.
		for i := 1; i < n; i++ {
			if s[i] > s[i-1]+1e-9 {
				return false
			}
		}
		us := dense.New(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				us.Set(i, j, u.At(i, j)*s[j])
			}
		}
		if !dense.Equalish(dense.MatMul(us, v.T()), a, 1e-7) {
			return false
		}
		return dense.Equalish(dense.CrossProd(u, u), dense.Identity(n), 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Two identical columns → one zero singular value.
	a := dense.FromRows([][]float64{
		{1, 1}, {2, 2}, {3, 3}, {-1, -1},
	})
	_, s, _, err := SVDThin(a)
	if err != nil {
		t.Fatal(err)
	}
	if s[1] != 0 {
		t.Fatalf("rank-1 matrix has s=%v", s)
	}
	if math.Abs(s[0]-math.Sqrt(2*(1+4+9+1))) > 1e-9 {
		t.Fatalf("s0=%g", s[0])
	}
}
