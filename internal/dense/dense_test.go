package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstructorsAndAccess(t *testing.T) {
	d := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if d.R != 2 || d.C != 3 {
		t.Fatalf("shape %dx%d", d.R, d.C)
	}
	if d.At(1, 2) != 6 {
		t.Fatalf("At=%g", d.At(1, 2))
	}
	d.Set(0, 1, 9)
	if d.Row(0)[1] != 9 {
		t.Fatal("Set/Row broken")
	}
	col := d.Col(2)
	if col[0] != 3 || col[1] != 6 {
		t.Fatalf("Col=%v", col)
	}
	i := Identity(3)
	if i.Sum() != 3 {
		t.Fatal("identity sum")
	}
	c := d.Clone()
	c.Set(0, 0, -1)
	if d.At(0, 0) == -1 {
		t.Fatal("clone aliases")
	}
}

func TestRaggedRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows accepted")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

// TestTransposeInvolution property-tests t(t(A)) == A.
func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(1+rng.Intn(10), 1+rng.Intn(10))
		for i := range d.Data {
			d.Data[i] = rng.NormFloat64()
		}
		return Equalish(d.T().T(), d, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestArithmetic(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	if got := Add(a, b).Sum(); got != 36 {
		t.Fatalf("add sum=%g", got)
	}
	if got := Sub(b, a).Sum(); got != 16 {
		t.Fatalf("sub sum=%g", got)
	}
	if got := a.Scale(2).At(1, 0); got != 6 {
		t.Fatalf("scale=%g", got)
	}
	if got := a.Apply(math.Sqrt).At(1, 1); got != 2 {
		t.Fatalf("apply=%g", got)
	}
}

// TestMatMulProperties checks (AB)ᵀ == BᵀAᵀ and crossprod == t(A)%*%B.
func TestMatMulProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a, b := New(m, k), New(k, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		ab := MatMul(a, b)
		if !Equalish(ab.T(), MatMul(b.T(), a.T()), 1e-10) {
			return false
		}
		return Equalish(CrossProd(a, MatMul(a, b)), MatMul(a.T(), MatMul(a, b)), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSums(t *testing.T) {
	d := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	rs := d.RowSums()
	if rs[0] != 6 || rs[1] != 15 {
		t.Fatalf("rowsums=%v", rs)
	}
	cs := d.ColSums()
	if cs[0] != 5 || cs[1] != 7 || cs[2] != 9 {
		t.Fatalf("colsums=%v", cs)
	}
}

func TestSweep(t *testing.T) {
	d := FromRows([][]float64{{1, 2}, {3, 4}})
	byCol := d.SweepRows([]float64{1, 10}, func(x, s float64) float64 { return x - s })
	if byCol.At(0, 1) != -8 || byCol.At(1, 0) != 2 {
		t.Fatalf("sweep rows=%v", byCol.Data)
	}
	byRow := d.SweepCols([]float64{1, 10}, func(x, s float64) float64 { return x / s })
	if byRow.At(0, 0) != 1 || byRow.At(1, 1) != 0.4 {
		t.Fatalf("sweep cols=%v", byRow.Data)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch accepted")
		}
	}()
	Add(New(2, 2), New(2, 3))
}
