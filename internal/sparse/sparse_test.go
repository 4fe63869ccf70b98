package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dense"
	"repro/internal/safs"
)

func randCSR(rng *rand.Rand, rows, cols, nnz int) *CSR {
	ri := make([]int, nnz)
	ci := make([]int, nnz)
	v := make([]float64, nnz)
	for i := 0; i < nnz; i++ {
		ri[i] = rng.Intn(rows)
		ci[i] = rng.Intn(cols)
		v[i] = rng.NormFloat64()
	}
	m, err := NewCSR(rows, cols, ri, ci, v)
	if err != nil {
		panic(err)
	}
	return m
}

func denseOf(m *CSR) *dense.Dense {
	d := dense.New(m.Rows, m.Cols)
	for r := 0; r < m.Rows; r++ {
		cols, vals := m.Row(r)
		for i, c := range cols {
			d.Set(r, int(c), vals[i])
		}
	}
	return d
}

func TestCSRConstruction(t *testing.T) {
	// Duplicates sum; rows sorted.
	m, err := NewCSR(3, 3, []int{2, 0, 2}, []int{1, 0, 1}, []float64{1, 5, 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 {
		t.Fatalf("nnz=%d", m.NNZ())
	}
	cols, vals := m.Row(2)
	if len(cols) != 1 || cols[0] != 1 || vals[0] != 3 {
		t.Fatalf("row 2: %v %v", cols, vals)
	}
	if _, err := NewCSR(2, 2, []int{5}, []int{0}, []float64{1}); err == nil {
		t.Fatal("out-of-range entry accepted")
	}
}

// TestSpMMMatchesDense property-tests in-memory SpMM against dense matmul.
func TestSpMMMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols, k := 1+rng.Intn(60), 1+rng.Intn(60), 1+rng.Intn(8)
		m := randCSR(rng, rows, cols, rng.Intn(200))
		b := dense.New(cols, k)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		got, err := m.MulDense(b, 3)
		if err != nil {
			return false
		}
		want := dense.MatMul(denseOf(m), b)
		return dense.Equalish(got, want, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSemiExternalSpMM round-trips a CSR through the SSD array and checks
// the streaming multiply, including a block boundary crossing.
func TestSemiExternalSpMM(t *testing.T) {
	fs, err := safs.OpenTempDir(t.TempDir(), 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	rng := rand.New(rand.NewSource(4))
	const rows, cols, k = 20000, 500, 4
	m := randCSR(rng, rows, cols, 60000)
	se, err := WriteSE(fs, "graph", m)
	if err != nil {
		t.Fatal(err)
	}
	if se.NNZ() != int64(m.NNZ()) {
		t.Fatalf("nnz %d != %d", se.NNZ(), m.NNZ())
	}
	b := dense.New(cols, k)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	got, err := se.MulDense(b, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.MulDense(b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Equalish(got, want, 1e-9) {
		t.Fatal("semi-external SpMM differs from in-memory")
	}
}

func TestRandomGraphShape(t *testing.T) {
	g := RandomGraph(5000, 8, 1)
	if g.Rows != 5000 || g.Cols != 5000 {
		t.Fatal("bad shape")
	}
	avg := float64(g.NNZ()) / 5000
	if avg < 2 || avg > 20 {
		t.Fatalf("average degree %g", avg)
	}
	// Degree skew: low ids should accumulate more in-edges. Compare column
	// counts in the first and last decile.
	counts := make([]int, 5000)
	for _, c := range g.ColIdx {
		counts[c]++
	}
	var lo, hi int
	for i := 0; i < 500; i++ {
		lo += counts[i]
		hi += counts[4500+i]
	}
	if lo <= hi {
		t.Fatalf("no preferential skew: first decile %d, last %d", lo, hi)
	}
}

func TestSpMMShapeMismatch(t *testing.T) {
	m := randCSR(rand.New(rand.NewSource(1)), 10, 10, 20)
	if _, err := m.MulDense(dense.New(11, 2), 1); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestPowerIterationOnGraph(t *testing.T) {
	// One power-iteration step keeps vector norms finite and positive —
	// the spectral-embedding substrate behaves.
	g := RandomGraph(2000, 6, 2)
	v := dense.New(2000, 1)
	for i := range v.Data {
		v.Data[i] = 1
	}
	w, err := g.MulDense(v, 2)
	if err != nil {
		t.Fatal(err)
	}
	var norm float64
	for _, x := range w.Data {
		norm += x * x
	}
	if norm <= 0 || math.IsNaN(norm) {
		t.Fatalf("norm %g", norm)
	}
}
